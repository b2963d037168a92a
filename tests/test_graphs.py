"""Structural checks of the family and auxiliary graph builders.

networkx serves as the independent recomputation for articulation points,
biconnected blocks, and the isomorphism spot checks.
"""

import networkx as nx
import pytest

from cactus_mis.graphs import (
    AUX_KINDS,
    BAR_GADGETS,
    FAMILIES,
    FAMILY_IDS,
    GADGET_BLOCK,
    TILDE_GADGETS,
    VertexLabel,
    build_aux,
    build_family,
    build_graph,
    family_spec,
    gadget_size,
    graph_order,
)

ALL_SPECS = [FAMILIES[f] for f in FAMILY_IDS]


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_edges_from(g.edges())
    return G


def cuts(g):
    return set(nx.articulation_points(to_nx(g)))


def anchor_of(g, spec, n):
    """Vertex where block n+1 or a gadget attaches, read off the labels.

    Block n's cycle position d+1 is the next block's entry (a shared vertex
    keeps the earlier block's label); with no blocks the gadget hangs on the root.
    """
    label = VertexLabel(n, spec.attach_dist + 1) if n else VertexLabel(GADGET_BLOCK, "root")
    return g.labels.index(label)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(0, 11))
def test_family_vertex_and_edge_counts(spec, n):
    g = build_family(spec, n)
    if n == 0:
        assert g.vertex_count == 0 and g.edge_count == 0
    else:
        assert g.vertex_count == (spec.cycle_len - 1) * n + 1
        assert g.edge_count == spec.cycle_len * n
        assert nx.is_connected(to_nx(g))
    assert graph_order(spec.family_id, n) == g.vertex_count


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("kind", AUX_KINDS)
@pytest.mark.parametrize("n", range(0, 11))
def test_aux_gadget_deltas(spec, kind, n):
    table = BAR_GADGETS if kind == "bar" else TILDE_GADGETS
    if spec.family_id not in table:
        with pytest.raises(ValueError):
            build_aux(spec, kind, n)
        with pytest.raises(ValueError, match=f"no {kind} auxiliary graph"):
            graph_order(spec.family_id, n, kind)
        return
    g = build_aux(spec, kind, n)
    base_v = (spec.cycle_len - 1) * n + 1 if n >= 1 else 1
    base_e = spec.cycle_len * n
    delta = gadget_size(spec.family_id, kind)
    assert g.vertex_count == base_v + delta
    assert g.edge_count == base_e + delta
    assert nx.is_connected(to_nx(g))
    assert graph_order(spec.family_id, n, kind) == g.vertex_count


def test_expected_gadget_sizes():
    # one pendant for triangular/meta-pentagonal bars, two for the other bars
    # except square (path of 2) and pentagonal (path of 3); tilde gadgets add
    # 3 vertices for meta-pentagonal and 4 for the hexagonal families
    assert gadget_size("triangular", "bar") == 1
    assert gadget_size("diamond", "bar") == 2
    assert gadget_size("square", "bar") == 2
    assert gadget_size("pentagonal", "bar") == 3
    assert gadget_size("meta-pentagonal", "bar") == 1
    assert gadget_size("meta-pentagonal", "tilde") == 3
    for fam in ("meta-hexagonal", "para-hexagonal", "ortho-hexagonal"):
        assert gadget_size(fam, "bar") == 2
        assert gadget_size(fam, "tilde") == 4


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(1, 9))
def test_block_decomposition(spec, n):
    g = build_family(spec, n)
    G = to_nx(g)
    blocks = [frozenset(b) for b in nx.biconnected_components(G)]
    assert len(blocks) == n
    cut_set = set(nx.articulation_points(G))
    assert cut_set == {anchor_of(g, spec, i) for i in range(1, n)}
    if n >= 2:
        end_blocks = [b for b in blocks if len(b & cut_set) == 1]
        assert len(end_blocks) == 2


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(1, 7))
def test_cactus_property(spec, n):
    # every block of a family graph is a single cycle of length k; gadget
    # edges of auxiliary graphs are bridges (they lie on no cycle)
    g = build_family(spec, n)
    G = to_nx(g)
    for block in nx.biconnected_components(G):
        sub = G.subgraph(block)
        assert sub.number_of_nodes() == spec.cycle_len
        assert sub.number_of_edges() == spec.cycle_len
    for kind in AUX_KINDS:
        table = BAR_GADGETS if kind == "bar" else TILDE_GADGETS
        if spec.family_id not in table:
            continue
        aux = build_aux(spec, kind, n)
        bridges = set(nx.bridges(to_nx(aux)))
        gadget_vertices = set(range(g.vertex_count, aux.vertex_count))
        for u, v in aux.edges():
            if u in gadget_vertices or v in gadget_vertices:
                assert (u, v) in bridges or (v, u) in bridges


AUX_PAIRS = [(kind, fam) for kind, table in (("bar", BAR_GADGETS), ("tilde", TILDE_GADGETS))
             for fam in FAMILY_IDS if fam in table]


@pytest.mark.parametrize("kind,family_id", AUX_PAIRS, ids=[f"{k}-{f}" for k, f in AUX_PAIRS])
@pytest.mark.parametrize("n", range(0, 5))
def test_cut_vertices_match_networkx_on_aux(kind, family_id, n):
    # read off the construction: the chain's shared vertices, the anchor when
    # something hangs on both sides of it, and every gadget vertex but a leg's last
    spec = family_spec(family_id)
    legs = (BAR_GADGETS if kind == "bar" else TILDE_GADGETS)[family_id]
    g = build_aux(spec, kind, n)
    expected = {anchor_of(g, spec, i) for i in range(1, n)}
    if n >= 1 or len(legs) >= 2:
        expected.add(anchor_of(g, spec, n))
    for v, label in enumerate(g.labels):
        if label.block == GADGET_BLOCK and label.position != "root":
            leg, pos = map(int, label.position[1:].split("_"))
            if pos < legs[leg - 1]:
                expected.add(v)
    assert cuts(g) == expected


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(1, 9))
def test_anchor_is_a_degree_two_cycle_vertex(spec, n):
    g = build_family(spec, n)
    a = anchor_of(g, spec, n)
    assert g.degree(a) == 2
    assert a not in cuts(g)


def test_cut_vertices_examples():
    c5 = build_family(family_spec("pentagonal"), 1)
    assert cuts(c5) == set()
    bowtie = build_family(family_spec("triangular"), 2)
    assert cuts(bowtie) == {anchor_of(bowtie, family_spec("triangular"), 1)}
    sq3 = build_family(family_spec("square"), 3)
    assert len(cuts(sq3)) == 2


def test_small_count_examples():
    assert build_family(family_spec("triangular"), 1).vertex_count == 3
    g = build_family(family_spec("meta-hexagonal"), 2)
    assert (g.vertex_count, g.edge_count) == (11, 12)
    g = build_family(family_spec("pentagonal"), 3)
    assert (g.vertex_count, g.edge_count) == (13, 15)
    assert len(cuts(g)) == 2


def test_aux_base_cases():
    k2 = build_aux(family_spec("triangular"), "bar", 0)
    assert (k2.vertex_count, k2.edge_count) == (2, 1)
    p4 = build_aux(family_spec("pentagonal"), "bar", 0)
    assert nx.is_isomorphic(to_nx(p4), nx.path_graph(4))
    p5 = build_aux(family_spec("ortho-hexagonal"), "tilde", 0)
    assert nx.is_isomorphic(to_nx(p5), nx.path_graph(5))
    star = build_aux(family_spec("diamond"), "bar", 0)
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
    g = build_family(spec, n)
    G = to_nx(g)
    G.remove_node(anchor_of(g, spec, n))
    expected = build_aux(spec, ANCHOR_DELETION_KIND[spec.family_id], n - 1)
    assert nx.is_isomorphic(G, to_nx(expected))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family_id)
@pytest.mark.parametrize("n", range(2, 5))
def test_last_block_deletion_yields_smaller_family(spec, n):
    # dropping every vertex of block n except its entry leaves the (n-1)-chain
    g = build_family(spec, n)
    G = to_nx(g)
    entry = anchor_of(g, spec, n - 1)
    block_n = set(range(g.vertex_count - (spec.cycle_len - 1), g.vertex_count))
    assert entry not in block_n
    G.remove_nodes_from(block_n)
    assert nx.is_isomorphic(G, to_nx(build_family(spec, n - 1)))


def test_labels_are_reproducible():
    g = build_graph("triangular", 2)
    texts = [g.label_text(v) for v in range(g.vertex_count)]
    assert texts == ["b1_p1", "b1_p2", "b1_p3", "b2_p2", "b2_p3"]
    aux = build_graph("triangular", 1, "bar")
    assert aux.label_text(aux.vertex_count - 1) == "g1_1"
    root = build_graph("diamond", 0, "bar")
    assert root.label_text(0) == "root"


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        family_spec("heptagonal")
    with pytest.raises(ValueError):
        build_graph("triangular", 1, "ring")
    with pytest.raises(ValueError):
        graph_order("triangular", 1, "ring")
    with pytest.raises(ValueError):
        build_family(family_spec("triangular"), -1)
