"""Graph output formats: DOT, JSON, and flat edge lists.

All emitters are deterministic. The DOT form carries one node per vertex with
its structural label and round-trips through parse_dot.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .graphs import Graph


def to_dot(g: Graph) -> str:
    lines = ["graph cactus {"]
    for v in range(g.vertex_count):
        lines.append(f'  v{v} [label="{g.label_text(v)}"];')
    for u, v in g.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_NODE = re.compile(r'^\s*v(\d+)\s*\[label="([^"]*)"\];\s*$')
_DOT_EDGE = re.compile(r"^\s*v(\d+)\s*--\s*v(\d+);\s*$")


def parse_dot(text: str) -> tuple[int, list[tuple[int, int]], dict[int, str]]:
    """Read back the DOT produced by to_dot: (vertex_count, edges, labels)."""
    labels: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("graph") or stripped == "}":
            continue
        m = _DOT_NODE.match(line)
        if m:
            labels[int(m.group(1))] = m.group(2)
            continue
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
            continue
        raise ValueError(f"unrecognized DOT line: {line!r}")
    return len(labels), edges, labels


def to_json(g: Graph, family: Optional[str] = None, n: Optional[int] = None,
            aux: Optional[str] = None) -> str:
    payload = {
        "family": family,
        "aux": aux,
        "n": n,
        "vertex_count": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges()],
        "labels": {str(v): g.label_text(v) for v in range(g.vertex_count)},
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
