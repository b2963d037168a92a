"""Graph output formats: DOT, JSON, and flat edge lists.

All emitters are deterministic. A `Graph` carries no text, so the DOT and
JSON forms take the vertex labels beside it, one per vertex in vertex order
(`build` passes `graphs.graph_labels` of the same family, n and kind). The
DOT form carries one node per vertex with its label, then one line per edge.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._json_text import json_text
from .graphs import Graph


def to_dot(g: Graph, labels: Sequence[str]) -> str:
    lines = ["graph cactus {"]
    lines += [f'  v{v} [label="{label}"];' for v, label in enumerate(labels)]
    lines += [f"  v{u} -- v{v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: Graph, labels: Sequence[str], family: Optional[str] = None,
            n: Optional[int] = None, aux: Optional[str] = None) -> str:
    payload = {
        "family": family,
        "aux": aux,
        "n": n,
        "vertex_count": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges()],
        "labels": {str(v): label for v, label in enumerate(labels)},
    }
    return json_text(payload)


def to_edge_list(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def emit(g: Graph, labels: Sequence[str], fmt: str, family: Optional[str] = None,
         n: Optional[int] = None, aux: Optional[str] = None) -> str:
    """`g` in format `fmt` ("dot", "json" or "edges"); `labels` names its vertices."""
    if len(labels) != g.vertex_count:
        raise ValueError(f"{len(labels)} labels for {g.vertex_count} vertices")
    if fmt == "dot":
        return to_dot(g, labels)
    if fmt == "json":
        return to_json(g, labels, family=family, n=n, aux=aux)
    if fmt == "edges":
        return to_edge_list(g)
    raise ValueError(f"unknown graph format {fmt!r}")
