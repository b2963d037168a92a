"""Graph output formats: DOT, JSON, and flat edge lists.

All emitters are deterministic. The DOT form carries one node per vertex with
its structural label, then one line per edge.
"""

from __future__ import annotations

import json
from typing import Optional

from .graphs import Graph


def to_dot(g: Graph) -> str:
    lines = ["graph cactus {"]
    lines += [f'  v{v} [label="{label}"];' for v, label in enumerate(g.labels)]
    lines += [f"  v{u} -- v{v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: Graph, family: Optional[str] = None, n: Optional[int] = None,
            aux: Optional[str] = None) -> str:
    payload = {
        "family": family,
        "aux": aux,
        "n": n,
        "vertex_count": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges()],
        "labels": {str(v): label for v, label in enumerate(g.labels)},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def to_edge_list(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def emit(g: Graph, fmt: str, family: Optional[str] = None, n: Optional[int] = None,
         aux: Optional[str] = None) -> str:
    if fmt == "dot":
        return to_dot(g)
    if fmt == "json":
        return to_json(g, family=family, n=n, aux=aux)
    if fmt == "edges":
        return to_edge_list(g)
    raise ValueError(f"unknown graph format {fmt!r}")
