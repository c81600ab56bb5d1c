"""k-core decomposition, degeneracy ordering and the oriented DAG."""
import pytest

from repro.graph import generators as G
from repro.graph.core import (
    core_decomposition,
    degeneracy_dag,
    oriented_edges_df,
)
from repro.graph.loader import collect_local, to_spark


@pytest.mark.parametrize(
    "g,expected",
    [
        (G.complete_graph(5), 4),
        (G.complete_bipartite(4, 7), 4),
        (G.cycle_graph(10), 2),
        (G.star_graph(9), 1),
    ],
)
def test_degeneracy_known_graphs(g, expected):
    assert core_decomposition(g).degeneracy == expected


def test_degeneracy_empty():
    g = G.complete_graph(1)  # no edges -> LocalGraph with no vertices
    assert core_decomposition(g).degeneracy == 0


def test_core_numbers_complete():
    dec = core_decomposition(G.complete_graph(6))
    assert all(c == 5 for c in dec.core_number.values())


def test_core_number_le_degeneracy():
    g = G.barabasi_albert(200, 5, seed=3)
    dec = core_decomposition(g)
    assert max(dec.core_number.values()) == dec.degeneracy
    assert all(0 <= c <= dec.degeneracy for c in dec.core_number.values())


def test_degeneracy_order_property():
    """Every vertex has at most δ neighbors later in the ordering."""
    g = G.erdos_renyi(50, 0.2, seed=1)
    dec = core_decomposition(g)
    rank = dec.rank
    for v in g.adj:
        later = [w for w in g.adj[v] if rank[w] > rank[v]]
        assert len(later) <= dec.degeneracy


def _k_core(g, k):
    return {v for v, c in core_decomposition(g).core_number.items() if c >= k}


def test_k_core_cycle():
    g = G.cycle_graph(7)
    assert _k_core(g, 2) == set(g.adj)
    assert _k_core(g, 3) == set()


def test_k_core_planted():
    g = G.planted_cliques(100, 0.01, [10], seed=2)
    core9 = _k_core(g, 9)
    assert len(core9) >= 10  # the planted clique survives


def test_degeneracy_dag_sizes():
    g = G.erdos_renyi(40, 0.3, seed=5)
    dec = core_decomposition(g)
    order, out = degeneracy_dag(g)
    assert order == dec.order
    assert all(len(nb) <= dec.degeneracy for nb in out.values())
    assert sum(len(nb) for nb in out.values()) == g.m


def test_oriented_edges_df_is_dag(spark):
    g = G.erdos_renyi(30, 0.3, seed=9)
    rank = core_decomposition(g).rank
    dag = oriented_edges_df(to_spark(spark, g), rank).collect()
    assert len(dag) == g.m
    for r in dag:
        assert rank[int(r["src"])] < rank[int(r["dst"])]
