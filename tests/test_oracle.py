"""Oracle correctness: frozen small cases plus independent recounts."""

import random
import sys

import pytest

from _oracles import complement_cliques, convolve, subset_filter_masks, subset_filter_slow
from cactus_mis.graphs import (
    BAR_GADGETS,
    FAMILY_IDS,
    TILDE_GADGETS,
    Graph,
    build_graph,
    graph_order,
)
from cactus_mis.oracle import (
    SizeDistribution,
    VertexLimitExceeded,
    enumerate_mis,
    is_maximal_independent,
)
from cactus_mis.series import recurrence_sequence


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def small_generated_graphs(max_order):
    out = []
    for fam in FAMILY_IDS:
        for aux in (None, "bar", "tilde"):
            table = {"bar": BAR_GADGETS, "tilde": TILDE_GADGETS}.get(aux)
            if aux is not None and fam not in table:
                continue
            n = 0
            while graph_order(fam, n, aux) <= max_order:
                out.append((fam, aux, n))
                n += 1
    return out


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


@pytest.mark.parametrize("fam,aux,n", small_generated_graphs(14))
def test_matches_slow_subset_filter(fam, aux, n):
    g = build_graph(fam, n, aux)
    assert enumerate_mis(g).as_dict() == subset_filter_slow(g)


@pytest.mark.parametrize("fam,aux,n", small_generated_graphs(14))
def test_mask_filter_agrees_with_slow_filter(fam, aux, n):
    # validates the faster all-masks oracle used by the acceptance suite
    g = build_graph(fam, n, aux)
    assert subset_filter_masks(g) == subset_filter_slow(g)


@pytest.mark.parametrize("fam,aux,n", small_generated_graphs(18))
def test_matches_complement_cliques(fam, aux, n):
    g = build_graph(fam, n, aux)
    assert enumerate_mis(g).as_dict() == complement_cliques(g)


def test_disjoint_union_convolution():
    rng = random.Random(20240817)
    pool = small_generated_graphs(12)
    for _ in range(10):
        fa, aa, na = rng.choice(pool)
        fb, ab, nb = rng.choice(pool)
        ga, gb = build_graph(fa, na, aa), build_graph(fb, nb, ab)
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


def test_matches_independent_oracles_on_random_graphs():
    rng = random.Random(20261018)
    for _ in range(30):
        g = random_graph(rng)
        dist = enumerate_mis(g).as_dict()
        assert dist == subset_filter_masks(g)
        assert dist == complement_cliques(g)


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
    assert d.as_dict() == {1: 2, 2: 3} and d.items() == [(1, 2), (2, 3)]
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
