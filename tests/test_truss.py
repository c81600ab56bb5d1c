"""Truss decomposition, τ and the truss-based edge ordering (Section 4.2)."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ebbkc import _sweep, rank_map
from repro.graph import generators as G
from repro.graph.core import core_decomposition
from repro.graph.loader import to_spark
from repro.graph.truss import truss_decomposition, truss_decomposition_from_spark

from .test_properties import graphs, near_complete_graphs


def test_complete_graph_truss():
    td = truss_decomposition(G.complete_graph(6))
    # Every edge of K6 sits in the 6-truss: support n-2 = 4, tau = 4.
    assert td.tau == 4
    assert td.k_max == 6
    assert all(t == 6 for t in td.truss_number.values())


def test_bipartite_tau_zero():
    """The paper's δ/τ gap example: K_{p,p} has δ = p but τ = 0."""
    g = G.complete_bipartite(6, 6)
    assert truss_decomposition(g).tau == 0
    assert core_decomposition(g).degeneracy == 6


def test_triangle_free_tau_zero():
    assert truss_decomposition(G.cycle_graph(10)).tau == 0
    assert truss_decomposition(G.star_graph(8)).tau == 0


def test_empty_graph():
    td = truss_decomposition(G.complete_graph(1))
    assert td.tau == 0 and td.order == []


@pytest.mark.parametrize("seed", range(5))
def test_lemma_4_1_tau_strictly_less_than_delta(seed):
    """Lemma 4.1: τ(g) < δ(g) for every graph with at least one edge."""
    for g in (
        G.erdos_renyi(40, 0.3, seed=seed),
        G.barabasi_albert(120, 5, seed=seed),
        G.planted_cliques(80, 0.05, [10], seed=seed),
    ):
        assert truss_decomposition(g).tau < core_decomposition(g).degeneracy


def test_ordering_is_permutation_of_edges():
    g = G.erdos_renyi(30, 0.3, seed=2)
    td = truss_decomposition(g)
    assert sorted(td.order) == g.edge_list()
    assert len(td.rank) == g.m


@pytest.mark.parametrize(
    "g",
    [
        G.erdos_renyi(30, 0.3, seed=2),
        G.planted_cliques(60, 0.05, [8], seed=3),
        G.complete_graph(1),
    ],
)
def test_nbr_rank_is_the_order(g):
    """EBBkC-T's rank map ``nr[u][w]`` is edge {u, w}'s position in π_τ,
    both ways, and its keys are the adjacency of the edges from its
    start position on: all of it from position 0, a suffix from m // 2."""
    td = truss_decomposition(g)
    pos = {e: i for i, e in enumerate(td.order)}
    for start in (0, len(td.order) // 2):
        nr = rank_map(td.order, start)
        adj: dict[int, set[int]] = {}
        for u, v in td.order[start:]:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        assert {v: set(nb) for v, nb in nr.items()} == adj
        for u, nb in nr.items():
            for w, r in nb.items():
                assert r == nr[w][u] == pos[(min(u, w), max(u, w))]
    assert {v: set(nb) for v, nb in rank_map(td.order, 0).items()} == g.adj


@given(graphs(max_n=20))
@settings(max_examples=60, deadline=None)
def test_sizes_are_the_initial_branch_sizes(g):
    """``sizes[i]``, the support the peel removes ``order[i]`` at, is the
    size of that edge's initial branch g_i, and its running max + 2 is
    the truss number."""
    td = truss_decomposition(g)
    tn = td.truss_number
    pos = {e: i for i, e in enumerate(td.order)}
    for i, (u, v) in enumerate(td.order):
        g_i = {
            w for w in g.adj[u] & g.adj[v]
            if pos[(min(u, w), max(u, w))] > i and pos[(min(v, w), max(v, w))] > i
        }
        assert td.sizes[i] == len(g_i)
        assert tn[(u, v)] == max(td.sizes[: i + 1]) + 2


def test_greedy_min_support_property():
    """Eq. (4): each removed edge has the minimum number of common
    neighbors in the remaining graph at its removal step."""
    g = G.erdos_renyi(18, 0.45, seed=3)
    td = truss_decomposition(g)
    adj = {v: set(nb) for v, nb in g.adj.items()}
    for u, v in td.order:
        my_common = len(adj[u] & adj[v])
        others = [
            len(adj[a] & adj[b])
            for a in adj
            for b in adj[a]
            if a < b
        ]
        assert my_common == min(others)
        adj[u].discard(v)
        adj[v].discard(u)


def test_truss_numbers_monotone_in_removal_order():
    g = G.barabasi_albert(80, 4, seed=4)
    td = truss_decomposition(g)
    values = [td.truss_number[e] for e in td.order]
    assert values == sorted(values)


@given(st.one_of(graphs(max_n=16), near_complete_graphs(max_n=12)),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=120, deadline=None)
def test_cut_peels_exactly_the_k_truss(g, k):
    """``truss_decomposition(g, k=k)`` peels the k-truss: its edges are
    those of truss number ≥ k in the whole-graph peel, ``sizes[i]`` is
    |g_i| as the sweep slices it, and every removal takes an edge of
    minimum support among the k-truss edges still there (Eq. 4)."""
    td = truss_decomposition(g, k=k)
    whole = truss_decomposition(g).truss_number
    assert set(td.order) == {e for e, t in whole.items() if t >= k}
    assert len(td.order) == len(set(td.order))
    positions = list(range(len(td.order)))
    for i, (rem, u, v) in zip(positions, _sweep(td.order, positions)):
        assert td.sizes[i] == len(rem[u] & rem[v])
    adj: dict[int, set[int]] = {}
    for u, v in td.order:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for i, (u, v) in enumerate(td.order):
        rest = td.order[i:]
        assert len(adj[u] & adj[v]) == min(len(adj[a] & adj[b]) for a, b in rest)
        adj[u].discard(v)
        adj[v].discard(u)


def test_cut_above_k_max_is_empty():
    """Above k_max no edge is in the k-truss: nothing is peeled."""
    g = G.planted_cliques(60, 0.05, [8], seed=3)
    td = truss_decomposition(g)
    assert td.k_max == 8
    assert len(truss_decomposition(g, k=8).order) > 0
    cut = truss_decomposition(g, k=9)
    assert cut.order == [] and cut.sizes == []


def test_tau_from_spark_matches_local(spark):
    g = G.erdos_renyi(35, 0.3, seed=6)
    td_spark = truss_decomposition_from_spark(to_spark(spark, g))
    td_local = truss_decomposition(g)
    assert td_spark.tau == td_local.tau
    assert td_spark.truss_number == td_local.truss_number


def test_planted_clique_tau():
    g = G.planted_cliques(100, 0.01, [12], seed=7)
    assert truss_decomposition(g).tau == 10  # clique of size c gives tau = c - 2


@pytest.mark.parametrize("k", [0, 3, 4, 5, 6])
def test_spark_fed_peel_equals_local(spark, k):
    """The triangles of the distributed dataflow, mapped to edge ids, give
    the same cut and the same peel as the numpy listing: exactly the
    local ``order`` and ``sizes``."""
    g = G.planted_cliques(80, 0.08, [7], seed=5)
    td_spark = truss_decomposition_from_spark(to_spark(spark, g), g, k=k)
    td_local = truss_decomposition(g, k=k)
    assert td_spark.order == td_local.order
    assert td_spark.sizes == td_local.sizes
