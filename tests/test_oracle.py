"""Oracle correctness: frozen small cases plus independent recounts."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    complement_cliques,
    convolve,
    is_maximal_independent,
    subset_filter_masks,
    subset_filter_slow,
)
from cactus_mis.graphs import (
    BAR_GADGETS,
    FAMILIES,
    FAMILY_IDS,
    TILDE_GADGETS,
    Graph,
    build_graph,
    graph_order,
)
from cactus_mis.oracle import (
    TRAIL_WIDTH,
    SizeDistribution,
    VertexLimitExceeded,
    enumerate_mis,
)
from cactus_mis.series import recurrence_sequence


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def small_generated_graphs(max_order):
    out = []
    for fam in FAMILY_IDS:
        for kind, table in (("family", FAMILIES), ("bar", BAR_GADGETS), ("tilde", TILDE_GADGETS)):
            if fam not in table:
                continue
            n = 0
            while graph_order(fam, n, kind) <= max_order:
                out.append((fam, kind, n))
                n += 1
    return out


def graph_id(value):
    """Parameter id: the chain itself keeps its earlier id "None", so test ids stay stable."""
    return "None" if value == "family" else None


def test_known_distributions():
    assert enumerate_mis(cycle(5)) == {2: 5}
    assert enumerate_mis(cycle(6)) == {2: 3, 3: 2}
    assert enumerate_mis(build_graph("triangular", 2)) == {1: 1, 2: 4}
    assert enumerate_mis(Graph(0, [])) == {0: 1}
    assert enumerate_mis(Graph(1, [])) == {1: 1}


def test_totals():
    assert enumerate_mis(build_graph("diamond", 3)).total == 7
    assert enumerate_mis(build_graph("square", 4)).total == 16
    assert enumerate_mis(build_graph("ortho-hexagonal", 3)).total == 72
    assert enumerate_mis(cycle(5)).total == 5


def test_is_maximal_independent():
    c4 = cycle(4)
    assert is_maximal_independent(c4, {0, 2})
    assert not is_maximal_independent(c4, {0})
    k2 = Graph(2, [(0, 1)])
    assert not is_maximal_independent(k2, {0, 1})
    with pytest.raises(ValueError):
        is_maximal_independent(k2, {5})


@pytest.mark.parametrize("fam,kind,n", small_generated_graphs(14), ids=graph_id)
def test_matches_slow_subset_filter(fam, kind, n):
    g = build_graph(fam, n, kind)
    assert enumerate_mis(g).counts == subset_filter_slow(g)


@pytest.mark.parametrize("fam,kind,n", small_generated_graphs(14), ids=graph_id)
def test_mask_filter_agrees_with_slow_filter(fam, kind, n):
    # validates the faster all-masks oracle used by the acceptance suite
    g = build_graph(fam, n, kind)
    assert subset_filter_masks(g) == subset_filter_slow(g)


@pytest.mark.parametrize("fam,kind,n", small_generated_graphs(18), ids=graph_id)
def test_matches_complement_cliques(fam, kind, n):
    g = build_graph(fam, n, kind)
    assert enumerate_mis(g).counts == complement_cliques(g)


def test_disjoint_union_convolution():
    rng = random.Random(20240817)
    pool = small_generated_graphs(12)
    for _ in range(10):
        fa, ka, na = rng.choice(pool)
        fb, kb, nb = rng.choice(pool)
        ga, gb = build_graph(fa, na, ka), build_graph(fb, nb, kb)
        edges = list(ga.edges()) + [(u + ga.vertex_count, v + ga.vertex_count) for u, v in gb.edges()]
        union = Graph(ga.vertex_count + gb.vertex_count, edges)
        assert enumerate_mis(union) == convolve(enumerate_mis(ga).counts, enumerate_mis(gb).counts)


def test_determinism():
    g = build_graph("meta-pentagonal", 4)
    assert enumerate_mis(g) == enumerate_mis(g)


def random_graph(rng):
    # labels are shuffled, so the sweep order is not path-like and the
    # frontier is wide; a few vertices are left isolated
    n = rng.randint(0, 16)
    p = rng.uniform(0.2, 0.6)
    label = list(range(n))
    rng.shuffle(label)
    isolated = set(rng.sample(range(n), min(n, rng.randint(0, 2))))
    edges = [(label[u], label[v]) for u in range(n) for v in range(u + 1, n)
             if u not in isolated and v not in isolated and rng.random() < p]
    return Graph(n, edges)


def assert_counts_zero_free(dist):
    # the oracle's counts skip SizeDistribution's checks, so hold them to them
    assert all(type(k) is int and k >= 0 and type(v) is int and v > 0
               for k, v in dist.counts.items())
    assert dist.counts == SizeDistribution(dist.counts).counts


def test_matches_independent_oracles_on_random_graphs():
    rng = random.Random(20261018)
    for _ in range(30):
        g = random_graph(rng)
        result = enumerate_mis(g)
        assert_counts_zero_free(result)
        dist = result.counts
        assert dist == subset_filter_masks(g)
        assert dist == complement_cliques(g)


@pytest.mark.parametrize("fam", FAMILY_IDS)
def test_counts_are_zero_free_on_chains(fam):
    for kind, table in (("family", FAMILIES), ("bar", BAR_GADGETS), ("tilde", TILDE_GADGETS)):
        if fam in table:
            for n in range(31):
                assert_counts_zero_free(enumerate_mis(build_graph(fam, n, kind), vertex_limit=10 ** 9))


@pytest.mark.parametrize("fam", FAMILY_IDS)
def test_totals_follow_recurrence_to_n_40(catalog, fam):
    rec = catalog.family(fam).recurrence
    expected = recurrence_sequence(rec.lags, rec.initial, 40)
    for n in range(41):
        assert enumerate_mis(build_graph(fam, n), vertex_limit=10 ** 9).total == expected[n]


def test_large_chain_within_default_recursion_limit(catalog):
    # 1501 vertices: a search as deep as |V| would exceed the default limit
    assert sys.getrecursionlimit() < 1501
    rec = catalog.family("ortho-hexagonal").recurrence
    g = build_graph("ortho-hexagonal", 300)
    assert g.vertex_count == 1501
    total = enumerate_mis(g, vertex_limit=10 ** 9).total
    assert total == recurrence_sequence(rec.lags, rec.initial, 300)[300]


def test_vertex_limit_guard():
    g = build_graph("triangular", 5)
    with pytest.raises(VertexLimitExceeded):
        enumerate_mis(g, vertex_limit=10)
    assert enumerate_mis(g, vertex_limit=11).total == 21


def test_size_distribution_arithmetic():
    d = SizeDistribution({1: 2, 2: 3, 4: 0})
    assert d.total == 5
    assert (d[2], d[4], d[7]) == (3, 0, 0)
    assert d == {1: 2, 2: 3} == SizeDistribution({2: 3, 1: 2})
    assert d.counts == {1: 2, 2: 3} and d.items() == [(1, 2), (2, 3)]
    with pytest.raises(ValueError):
        SizeDistribution({-1: 1})
    with pytest.raises(ValueError):
        SizeDistribution({1: -1})


def shuffled_components(component_edges, copies, window, seed):
    """Disjoint copies of one small graph, vertex ids shuffled within each
    run of `window` ids, so the sweep interleaves several components and
    merges their choices into shared frontier states."""
    size = 1 + max(max(e) for e in component_edges)
    n = size * copies
    label = list(range(n))
    rng = random.Random(seed)
    for start in range(0, n, window):
        run = label[start:start + window]
        rng.shuffle(run)
        label[start:start + window] = run
    edges = [(label[c * size + u], label[c * size + v])
             for c in range(copies) for u, v in component_edges]
    return Graph(n, edges)


@pytest.mark.parametrize("seed", range(3))
def test_packed_digits_hold_extremal_counts(seed):
    # one size holds every maximal independent set, so a single digit of the
    # packed polynomial reaches the largest count the graph has: 2^32 on a
    # perfect matching of 64 vertices, 3^21 on 21 disjoint triangles (the
    # Moon-Moser extremal graph on 63 vertices)
    matching = shuffled_components([(0, 1)], 32, 16, seed)
    assert matching.vertex_count == 64
    assert enumerate_mis(matching) == {32: 2 ** 32}
    triangles = shuffled_components([(0, 1), (1, 2), (0, 2)], 21, 15, seed)
    assert triangles.vertex_count == 63
    assert enumerate_mis(triangles) == {21: 3 ** 21}
    assert enumerate_mis(Graph(0, [])) == {0: 1}


# ----------------------------------------------------------------------------
# Resumed sweeps: a trail carries one graph's (mask, layer) pairs to the next call.
# ----------------------------------------------------------------------------

def graph_from_back_edges(back):
    """The graph in which vertex u is joined to each vertex of back[u] (all below u)."""
    return Graph(len(back), [(v, u) for u, below in enumerate(back) for v in below])


def assert_resumes_exactly(graphs, reference=subset_filter_masks):
    """Count `graphs` in order through one trail: every count must equal the
    trail-less one and the reference's, and the trail must end up holding
    exactly the pairs an empty trail gets from the same graph."""
    trail = []
    for g in graphs:
        resumed = enumerate_mis(g, 10 ** 9, trail)
        assert_counts_zero_free(resumed)
        assert resumed.counts == enumerate_mis(g, 10 ** 9).counts == reference(g)
        if g.vertex_count < TRAIL_WIDTH:
            fresh = []
            enumerate_mis(g, trail=fresh)
            assert trail == fresh
            assert [mask for mask, _ in trail] == list(g.masks)


@st.composite
def prefix_sharing_sequences(draw):
    """Graphs on at most 11 vertices, each keeping a prefix of the one before
    and adding vertices whose edges may reach back into that prefix."""
    graphs = []
    back: list[set] = []
    for _ in range(draw(st.integers(1, 6))):
        back = back[:draw(st.integers(0, len(back)))]
        for u in range(len(back), draw(st.integers(len(back), 11))):
            back.append(draw(st.sets(st.integers(0, u - 1))) if u else set())
        graphs.append(graph_from_back_edges(back))
    return graphs


@settings(max_examples=80, deadline=None)
@given(prefix_sharing_sequences())
def test_resumed_counts_match_fresh_and_references(graphs):
    assert_resumes_exactly(graphs)


PATH4 = [set(), {0}, {1}, {2}]  # the path 0-1-2-3


@pytest.mark.parametrize("backs, kept", [
    # vertex 4 joins vertex 1, so vertex 1's mask changes: resume after vertex 0
    ([PATH4, PATH4 + [{1}]], 1),
    # the same graph twice: every pair is kept
    ([PATH4, PATH4], 4),
    # a graph that extends the previous one without touching it
    ([PATH4, PATH4 + [set(), {4}]], 4),
    # a prefix of the previous graph: kept up to the first vertex whose
    # mask loses a neighbor (vertex 1 of the path), or whole if none does
    ([PATH4, PATH4[:2]], 1),
    ([[set(), {0}, set(), {2}], PATH4[:2]], 2),
    # the empty graph shares nothing
    ([PATH4, []], 0),
    ([[], PATH4], 0),
], ids=["back-edge", "identical", "disjoint-extension", "cut-prefix", "component-prefix",
        "to-empty", "from-empty"])
def test_trail_resumes_after_the_shared_prefix_only(backs, kept):
    first, second = map(graph_from_back_edges, backs)
    trail = []
    enumerate_mis(first, trail=trail)
    before = list(trail)
    assert enumerate_mis(second, trail=trail).counts == complement_cliques(second)
    # the pairs of the shared prefix are the same objects, the rest are new
    assert [a is b for a, b in zip(before, trail)] == (
        [True] * kept + [False] * (min(len(before), len(trail)) - kept))
    assert_resumes_exactly([first, second], complement_cliques)


def disjoint_cliques(sizes):
    edges = []
    start = 0
    for size in sizes:
        edges += [(start + i, start + j) for i in range(size) for j in range(i)]
        start += size
    return Graph(start, edges)


def test_trail_across_the_width_step():
    # 63 vertices share the trail's digit width; 64 and more are counted
    # with their own width and leave the trail as it was
    g63 = disjoint_cliques([21, 21, 21])
    g64 = Graph(64, list(g63.edges()) + [(62, 63)])
    g65 = Graph(65, list(g64.edges()) + [(0, 64), (63, 64)])
    g62 = disjoint_cliques([21, 21, 20])
    assert [g.vertex_count for g in (g62, g63, g64, g65)] == [TRAIL_WIDTH - 2, TRAIL_WIDTH - 1,
                                                              TRAIL_WIDTH, TRAIL_WIDTH + 1]
    trail = []
    enumerate_mis(g63, trail=trail)
    enumerate_mis(g64, 10 ** 9, trail)
    assert [mask for mask, _ in trail] == list(g63.masks)
    assert_resumes_exactly([g63, g64, g63, g65, g62, g64, g65], complement_cliques)


# States in the layer after each vertex of a few chains. A sweep that keeps
# a state the survival tests should drop ends with more than the one (0, 0)
# state, or carries more states through the middle.
LAYER_SIZES = {
    ("diamond", "family", 2): [2, 3, 4, 3, 4, 5, 1],
    ("square", "family", 2): [2, 3, 5, 3, 4, 5, 1],
    ("pentagonal", "family", 2): [2, 3, 5, 6, 2, 3, 4, 5, 1],
    ("ortho-hexagonal", "family", 2): [2, 3, 5, 6, 8, 3, 4, 5, 6, 8, 1],
    ("meta-pentagonal", "bar", 1): [2, 3, 4, 6, 2, 1],
}


@pytest.mark.parametrize("fam, kind, n", sorted(LAYER_SIZES))
def test_layer_sizes_show_the_pruning(fam, kind, n):
    trail = []
    enumerate_mis(build_graph(fam, n, kind), trail=trail)
    assert [len(layer) for _, layer in trail] == LAYER_SIZES[fam, kind, n]
