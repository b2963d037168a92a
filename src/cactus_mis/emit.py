"""Graph output formats: DOT, JSON, and flat edge lists.

All emitters are deterministic. A `Graph` carries no text, so the DOT and
JSON forms take the vertex labels beside it, one per vertex in vertex order.
`emit`, which `build` calls, makes both from one family, n and kind:
`graphs.build_graph` and, for DOT and JSON only, `graphs.graph_labels`. The
DOT form carries one node per vertex with its label, then one line per edge.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._json_text import json_text
from .graphs import Graph, build_graph, graph_labels

GRAPH_FORMATS = ("dot", "json", "edges")


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


def emit(family_id: str, n: int, kind: str, fmt: str) -> str:
    """`build_graph(family_id, n, kind)` in format `fmt`, one of GRAPH_FORMATS."""
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}")
    g = build_graph(family_id, n, kind)
    if fmt == "edges":
        return to_edge_list(g)
    labels = graph_labels(family_id, n, kind)
    if fmt == "dot":
        return to_dot(g, labels)
    return to_json(g, labels, family=family_id, n=n, aux=None if kind == "family" else kind)
