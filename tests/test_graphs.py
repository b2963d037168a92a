"""Structural checks of the family and auxiliary graph builders.

networkx serves as the independent recomputation for articulation points,
biconnected blocks, and the isomorphism spot checks.
"""

import pickle
import random
import re

import networkx as nx
import pytest

from _oracles import chain_graph_reference, last_n_within_walk
from cactus_mis.graphs import (
    BAR_GADGETS,
    FAMILIES,
    FAMILY_IDS,
    GRAPH_KINDS,
    TILDE_GADGETS,
    Graph,
    build_graph,
    family_spec,
    graph_labels,
    graph_order,
    last_n_within,
)

ALL_SPECS = [FAMILIES[f] for f in FAMILY_IDS]


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_edges_from(g.edges())
    return G


def cuts(g):
    return set(nx.articulation_points(to_nx(g)))


def anchor_of(labels, spec, n):
    """Vertex where block n+1 or a gadget attaches, read off a graph's labels.

    Block n's cycle position d+1 is the next block's entry (a shared vertex
    keeps the earlier block's label); with no blocks the gadget hangs on the root.
    """
    return labels.index(f"b{n}_p{spec.attach_dist + 1}" if n else "root")


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(0, 11))
def test_family_vertex_and_edge_counts(spec, n):
    g = build_graph(spec.family_id, n)
    if n == 0:
        assert g.vertex_count == 0 and g.edge_count == 0
    else:
        assert g.vertex_count == (spec.cycle_len - 1) * n + 1
        assert g.edge_count == spec.cycle_len * n
        assert nx.is_connected(to_nx(g))
    assert graph_order(spec.family_id, n) == g.vertex_count


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("kind", GRAPH_KINDS[1:])
@pytest.mark.parametrize("n", range(0, 11))
def test_aux_gadget_deltas(spec, kind, n):
    table = BAR_GADGETS if kind == "bar" else TILDE_GADGETS
    if spec.family_id not in table:
        with pytest.raises(ValueError):
            build_graph(spec.family_id, n, kind)
        for func in (graph_order, graph_labels):
            with pytest.raises(ValueError, match=f"no {kind} auxiliary graph"):
                func(spec.family_id, n, kind)
        return
    g = build_graph(spec.family_id, n, kind)
    base_v = (spec.cycle_len - 1) * n + 1 if n >= 1 else 1
    base_e = spec.cycle_len * n
    delta = sum(table[spec.family_id])
    assert g.vertex_count == base_v + delta
    assert g.edge_count == base_e + delta
    assert nx.is_connected(to_nx(g))
    assert graph_order(spec.family_id, n, kind) == g.vertex_count


def test_expected_gadget_sizes():
    # a gadget on the empty chain hangs on a lone root: the order less one is its size
    # one pendant for triangular/meta-pentagonal bars, two for the other bars
    # except square (path of 2) and pentagonal (path of 3); tilde gadgets add
    # 3 vertices for meta-pentagonal and 4 for the hexagonal families
    assert graph_order("triangular", 0, "bar") - 1 == 1
    assert graph_order("diamond", 0, "bar") - 1 == 2
    assert graph_order("square", 0, "bar") - 1 == 2
    assert graph_order("pentagonal", 0, "bar") - 1 == 3
    assert graph_order("meta-pentagonal", 0, "bar") - 1 == 1
    assert graph_order("meta-pentagonal", 0, "tilde") - 1 == 3
    for fam in ("meta-hexagonal", "para-hexagonal", "ortho-hexagonal"):
        assert graph_order(fam, 0, "bar") - 1 == 2
        assert graph_order(fam, 0, "tilde") - 1 == 4


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(1, 9))
def test_block_decomposition(spec, n):
    G = to_nx(build_graph(spec.family_id, n))
    labels = graph_labels(spec.family_id, n)
    blocks = [frozenset(b) for b in nx.biconnected_components(G)]
    assert len(blocks) == n
    cut_set = set(nx.articulation_points(G))
    assert cut_set == {anchor_of(labels, spec, i) for i in range(1, n)}
    if n >= 2:
        end_blocks = [b for b in blocks if len(b & cut_set) == 1]
        assert len(end_blocks) == 2


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(1, 7))
def test_cactus_property(spec, n):
    # every block of a family graph is a single cycle of length k; gadget
    # edges of auxiliary graphs are bridges (they lie on no cycle)
    g = build_graph(spec.family_id, n)
    G = to_nx(g)
    for block in nx.biconnected_components(G):
        sub = G.subgraph(block)
        assert sub.number_of_nodes() == spec.cycle_len
        assert sub.number_of_edges() == spec.cycle_len
    for kind in GRAPH_KINDS[1:]:
        table = BAR_GADGETS if kind == "bar" else TILDE_GADGETS
        if spec.family_id not in table:
            continue
        aux = build_graph(spec.family_id, n, kind)
        bridges = set(nx.bridges(to_nx(aux)))
        gadget_vertices = set(range(g.vertex_count, aux.vertex_count))
        for u, v in aux.edges():
            if u in gadget_vertices or v in gadget_vertices:
                assert (u, v) in bridges or (v, u) in bridges


KIND_PAIRS = [(kind, fam) for kind, table in (("family", FAMILIES), ("bar", BAR_GADGETS),
                                            ("tilde", TILDE_GADGETS))
              for fam in FAMILY_IDS if fam in table]
AUX_PAIRS = [(kind, fam) for kind, fam in KIND_PAIRS if kind != "family"]


@pytest.mark.parametrize("kind,family_id", AUX_PAIRS, ids=[f"{k}-{f}" for k, f in AUX_PAIRS])
@pytest.mark.parametrize("n", range(0, 5))
def test_cut_vertices_match_networkx_on_aux(kind, family_id, n):
    # read off the construction: the chain's shared vertices, the anchor when
    # something hangs on both sides of it, and every gadget vertex but a leg's last
    spec = family_spec(family_id)
    legs = (BAR_GADGETS if kind == "bar" else TILDE_GADGETS)[family_id]
    g = build_graph(family_id, n, kind)
    labels = graph_labels(family_id, n, kind)
    expected = {anchor_of(labels, spec, i) for i in range(1, n)}
    if n >= 1 or len(legs) >= 2:
        expected.add(anchor_of(labels, spec, n))
    for v, label in enumerate(labels):
        if label.startswith("g"):  # g<leg>_<pos>
            leg, pos = map(int, label[1:].split("_"))
            if pos < legs[leg - 1]:
                expected.add(v)
    assert cuts(g) == expected


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(1, 9))
def test_anchor_is_a_degree_two_cycle_vertex(spec, n):
    g = build_graph(spec.family_id, n)
    a = anchor_of(graph_labels(spec.family_id, n), spec, n)
    assert g.masks[a].bit_count() == 2
    assert a not in cuts(g)


def test_cut_vertices_examples():
    c5 = build_graph("pentagonal", 1)
    assert cuts(c5) == set()
    bowtie = build_graph("triangular", 2)
    assert cuts(bowtie) == {anchor_of(graph_labels("triangular", 2), family_spec("triangular"), 1)}
    sq3 = build_graph("square", 3)
    assert len(cuts(sq3)) == 2


def test_small_count_examples():
    assert build_graph("triangular", 1).vertex_count == 3
    g = build_graph("meta-hexagonal", 2)
    assert (g.vertex_count, g.edge_count) == (11, 12)
    g = build_graph("pentagonal", 3)
    assert (g.vertex_count, g.edge_count) == (13, 15)
    assert len(cuts(g)) == 2


def test_aux_base_cases():
    k2 = build_graph("triangular", 0, "bar")
    assert (k2.vertex_count, k2.edge_count) == (2, 1)
    p4 = build_graph("pentagonal", 0, "bar")
    assert nx.is_isomorphic(to_nx(p4), nx.path_graph(4))
    p5 = build_graph("ortho-hexagonal", 0, "tilde")
    assert nx.is_isomorphic(to_nx(p5), nx.path_graph(5))
    star = build_graph("diamond", 0, "bar")
    assert nx.is_isomorphic(to_nx(star), nx.star_graph(2))


# Removing the anchor from the n-block graph must leave the smaller auxiliary
# graph named by the corresponding deletion argument: the cycle loses its
# attachment vertex and degenerates into the gadget legs of the kind below.
ANCHOR_DELETION_KIND = {
    "triangular": "bar",
    "diamond": "bar",
    "square": "bar",
    "pentagonal": "bar",
    "meta-pentagonal": "tilde",
    "meta-hexagonal": "tilde",
    "para-hexagonal": "tilde",
    "ortho-hexagonal": "tilde",
}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(1, 5))
def test_anchor_deletion_yields_smaller_aux_graph(spec, n):
    G = to_nx(build_graph(spec.family_id, n))
    G.remove_node(anchor_of(graph_labels(spec.family_id, n), spec, n))
    expected = build_graph(spec.family_id, n - 1, ANCHOR_DELETION_KIND[spec.family_id])
    assert nx.is_isomorphic(G, to_nx(expected))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(2, 5))
def test_last_block_deletion_yields_smaller_family(spec, n):
    # dropping every vertex of block n except its entry leaves the (n-1)-chain
    g = build_graph(spec.family_id, n)
    G = to_nx(g)
    entry = anchor_of(graph_labels(spec.family_id, n), spec, n - 1)
    block_n = set(range(g.vertex_count - (spec.cycle_len - 1), g.vertex_count))
    assert entry not in block_n
    G.remove_nodes_from(block_n)
    assert nx.is_isomorphic(G, to_nx(build_graph(spec.family_id, n - 1)))


@pytest.mark.parametrize("kind,family_id", KIND_PAIRS, ids=[f"{k}-{f}" for k, f in KIND_PAIRS])
def test_builder_matches_edge_list_reference(kind, family_id):
    # the builder writes masks unchecked; the reference goes through Graph(...)
    for n in range(31):
        g = build_graph(family_id, n, kind)
        assert g == chain_graph_reference(family_id, n, kind)[0], n
        assert g.vertex_count == len(g.masks)
        for v, m in enumerate(g.masks):
            assert not m >> v & 1, (n, v)
            assert all(g.masks[u] >> v & 1 for u in range(g.vertex_count) if m >> u & 1), (n, v)
        assert pickle.loads(pickle.dumps(g)) == g


@pytest.mark.parametrize("kind,family_id", KIND_PAIRS, ids=[f"{k}-{f}" for k, f in KIND_PAIRS])
@pytest.mark.parametrize("n", range(0, 13))
def test_labels_match_reference(kind, family_id, n):
    # one label per vertex, naming the builder's vertices in the order the
    # reference adds them
    labels = graph_labels(family_id, n, kind)
    assert len(labels) == graph_order(family_id, n, kind)
    assert labels == chain_graph_reference(family_id, n, kind)[1]


def test_labels_are_reproducible():
    assert graph_labels("triangular", 2) == ["b1_p1", "b1_p2", "b1_p3", "b2_p2", "b2_p3"]
    assert graph_labels("triangular", 1, "bar")[-1] == "g1_1"
    assert graph_labels("diamond", 0, "bar") == ["root", "g1_1", "g2_1"]
    assert graph_labels("square", 0) == []


def test_graph_is_its_adjacency_alone():
    # equal edges make equal graphs, however listed; a pickle carries
    # (vertex_count, edges) and nothing else
    g = build_graph("triangular", 1)
    same = Graph(3, [(1, 2), (2, 0), (0, 1)])
    assert g == same and hash(g) == hash(same)
    assert g != Graph(4, [(0, 1), (0, 2), (1, 2)])
    assert g.__reduce__() == (Graph, (3, ((0, 1), (0, 2), (1, 2))))
    assert Graph.__slots__ == ("masks",) and g.vertex_count == 3


@pytest.mark.parametrize("kind,family_id", KIND_PAIRS, ids=[f"{k}-{f}" for k, f in KIND_PAIRS])
def test_last_n_within_matches_walk(kind, family_id):
    first = graph_order(family_id, 1, kind)
    for cap in range(81):
        last = last_n_within(family_id, kind, cap)
        assert last == last_n_within_walk(family_id, kind, cap), cap
        if cap < first:  # cap 0 among them
            assert last == 0, cap


@pytest.mark.parametrize("kind,family_id", KIND_PAIRS, ids=[f"{k}-{f}" for k, f in KIND_PAIRS])
@pytest.mark.parametrize("n", [-1, -3])
def test_negative_block_count_rejected_by_builder_and_sizer(kind, family_id, n):
    for func in (build_graph, graph_order, graph_labels):
        with pytest.raises(ValueError, match="^block count must be >= 0$"):
            func(family_id, n, kind)


@pytest.mark.parametrize("kind", [None, "foo"])
@pytest.mark.parametrize("func", [build_graph, graph_order, graph_labels],
                         ids=["build_graph", "graph_order", "graph_labels"])
def test_unknown_kind_rejected(func, kind):
    with pytest.raises(ValueError, match=re.escape(str(GRAPH_KINDS))):
        func("triangular", 1, kind)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        family_spec("heptagonal")
    with pytest.raises(ValueError):
        build_graph("triangular", 1, "ring")
    with pytest.raises(ValueError):
        graph_order("triangular", 1, "ring")
    with pytest.raises(ValueError):
        graph_labels("heptagonal", 1)
    with pytest.raises(ValueError):
        build_graph("triangular", -1)


@pytest.mark.parametrize("edges,message", [
    ([(1, 1)], "loop"),
    ([(0, 1), (0, 1)], "parallel edge"),
    ([(0, 1), (1, 0)], "parallel edge"),
    ([(0, 3)], "out of range"),
    ([(-1, 0)], "out of range"),
], ids=["loop", "parallel", "parallel-reversed", "endpoint-too-large", "endpoint-negative"])
def test_graph_rejects_non_simple_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, edges)


def test_graph_from_random_simple_edge_sets():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(0, 80)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = rng.sample(pairs, rng.randrange(min(len(pairs), 3 * n) + 1))
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in chosen]
        g = Graph(n, edges)
        assert list(g.edges()) == sorted(chosen)
        assert g.edge_count == len(edges)
        assert len(g.masks) == n
        assert all(g.masks[u] >> v & 1 == g.masks[v] >> u & 1 for u in range(n) for v in range(n))
