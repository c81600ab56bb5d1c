"""Greedy coloring, the color-based vertex ordering, and its DAG."""
import pytest

from repro.graph import generators as G
from repro.graph.coloring import (
    color_ordering,
    greedy_coloring,
    subgraph_color_ordering,
)
from repro.graph.core import core_decomposition, degeneracy_dag, degree_order, orient


@pytest.mark.parametrize("seed", range(4))
def test_coloring_is_proper(seed):
    g = G.erdos_renyi(40, 0.3, seed=seed)
    col = greedy_coloring(g)
    assert all(col[u] != col[v] for u, v in g.edge_list())


def test_coloring_bounded_by_degeneracy_plus_one():
    g = G.barabasi_albert(150, 5, seed=1)
    col = greedy_coloring(g)
    assert max(col.values()) <= core_decomposition(g).degeneracy + 1


def test_complete_graph_needs_n_colors():
    g = G.complete_graph(7)
    assert max(greedy_coloring(g).values()) == 7


def test_bipartite_two_colors():
    g = G.complete_bipartite(5, 5)
    assert max(greedy_coloring(g).values()) == 2


def test_color_ordering_non_increasing():
    g = G.erdos_renyi(35, 0.3, seed=2)
    co = color_ordering(g)
    cols = [co.col[v] for v in co.order]
    assert cols == sorted(cols, reverse=True)


def test_color_ordering_tie_break_by_id():
    g = G.erdos_renyi(35, 0.3, seed=3)
    co = color_ordering(g)
    for a, b in zip(co.order, co.order[1:]):
        assert (co.col[a], -a) >= (co.col[b], -b)


def test_color_ordering_vid_consistent():
    g = G.barabasi_albert(50, 3, seed=4)
    co = color_ordering(g)
    assert all(co.order[i] == v for v, i in co.vid.items())


def _degeneracy_dag(g):
    order, out = degeneracy_dag(g)
    return {v: i for i, v in enumerate(order)}, out


def _color_dag(g):
    co = color_ordering(g)
    return co.vid, co.out


ORIENTATIONS = {
    "degeneracy": _degeneracy_dag,
    "color": _color_dag,
    "degree": lambda g: orient(degree_order(g.adj), g.adj),
}


@pytest.mark.parametrize("ordering", sorted(ORIENTATIONS))
def test_color_dag_complete_and_acyclic(ordering):
    """Every ordering's DAG holds each edge exactly once, pointing from
    the lower position to the higher."""
    g = G.erdos_renyi(30, 0.35, seed=5)
    pos, out = ORIENTATIONS[ordering](g)
    arcs = [(v, w) for v, nb in out.items() for w in nb]
    assert sorted(tuple(sorted(a)) for a in arcs) == sorted(g.edge_list())
    assert all(pos[v] < pos[w] for v, w in arcs)


def test_dag_endpoint_colors():
    """u→v in the DAG implies col(u) ≥ col(v) — the precondition of
    pruning Rule (1)."""
    g = G.erdos_renyi(30, 0.4, seed=6)
    co = color_ordering(g)
    for u, nb in co.out.items():
        for v in nb:
            assert co.col[u] >= co.col[v]


def test_subgraph_color_ordering_proper():
    g = G.erdos_renyi(40, 0.35, seed=7)
    verts = set(list(g.adj)[:20])
    co = subgraph_color_ordering({v: g.adj[v] & verts for v in verts})
    for v in verts:
        for w in g.adj[v] & verts:
            assert co.col[v] != co.col[w]
    assert set(co.order) == verts


def test_subgraph_color_ordering_dag():
    g = G.erdos_renyi(40, 0.35, seed=8)
    verts = set(list(g.adj)[5:25])
    co = subgraph_color_ordering({v: g.adj[v] & verts for v in verts})
    for v, nb in co.out.items():
        for w in nb:
            assert co.vid[v] < co.vid[w]
            assert w in g.adj[v]
