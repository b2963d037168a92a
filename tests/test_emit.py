"""Emitters: DOT label round-trip, JSON and edge-list shapes.

A `Graph` carries no labels: each emitter that prints them takes
`graph_labels` of the same family, n and kind beside the graph, and `emit`
builds both from those three values.
"""

import json

import pytest

from _oracles import parse_dot
from cactus_mis import emit as emit_mod
from cactus_mis.emit import emit, to_dot, to_edge_list, to_json
from cactus_mis.graphs import build_graph, graph_labels


# the chain itself keeps its earlier id "None", so test ids stay stable
@pytest.mark.parametrize("fam,kind,n", [
    ("triangular", "family", 3),
    ("diamond", "bar", 2),
    ("ortho-hexagonal", "tilde", 1),
    ("square", "family", 0),
], ids=lambda value: "None" if value == "family" else None)
def test_dot_round_trip(fam, kind, n):
    g, names = build_graph(fam, n, kind), graph_labels(fam, n, kind)
    vertex_count, edges, labels = parse_dot(to_dot(g, names))
    assert vertex_count == g.vertex_count
    assert sorted(edges) == sorted(g.edges())
    assert labels == dict(enumerate(names))


def test_json_payload():
    g = build_graph("pentagonal", 1)
    payload = json.loads(to_json(g, graph_labels("pentagonal", 1), family="pentagonal", n=1))
    assert payload["family"] == "pentagonal"
    assert payload["n"] == 1
    assert payload["labels"]["0"] == "b1_p1"
    assert len(payload["edges"]) == 5


def test_edge_list():
    g = build_graph("triangular", 1)
    assert to_edge_list(g) == "0 1\n0 2\n1 2\n"
    assert to_edge_list(build_graph("triangular", 0)) == ""


def test_unknown_format(monkeypatch):
    # the format is refused before any graph or label is built
    def refuse(*args):
        raise AssertionError("built for an unknown format")

    monkeypatch.setattr(emit_mod, "build_graph", refuse)
    monkeypatch.setattr(emit_mod, "graph_labels", refuse)
    with pytest.raises(ValueError, match="^unknown graph format 'svg'$"):
        emit("square", 1, "family", "svg")


def test_parse_dot_rejects_noise():
    with pytest.raises(ValueError):
        parse_dot("graph g {\n  spurious\n}")
