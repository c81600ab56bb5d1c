"""EBBkC (T / C / H, ± Rule 2, ± early termination) vs brute force, run
through the engine's sequential path."""
from itertools import combinations

import pytest
from hypothesis import given, settings

from repro.core import ebbkc
from repro.core.bruteforce import check_cliques, is_clique
from repro.core.engine import run_local
from repro.graph import generators as G
from repro.graph.loader import LocalGraph
from repro.graph.truss import truss_decomposition

from .test_properties import graphs


GRAPHS = {
    "er_dense": G.erdos_renyi(22, 0.5, seed=1),
    "er_sparse": G.erdos_renyi(40, 0.15, seed=2),
    "ba": G.barabasi_albert(60, 5, seed=3),
    "ring": G.ring_of_cliques(4, 6, extra_p=0.05, seed=4),
    "k8": G.complete_graph(8),
    "bipartite": G.complete_bipartite(5, 5),
    "planted": G.planted_cliques(50, 0.08, [9], seed=5),
}


def _run(algo, g, k, **kw):
    """The cliques of ``algo`` (named ``ebbkc_t`` / ``ebbkc_c`` / ``ebbkc_h``)."""
    return run_local(g, k, algo.replace("_", "-"), collect=True, **kw)


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_ebbkc_t(gname, k):
    check_cliques(GRAPHS[gname], k, _run("ebbkc_t", GRAPHS[gname], k))


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_ebbkc_c(gname, k):
    check_cliques(GRAPHS[gname], k, _run("ebbkc_c", GRAPHS[gname], k))


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_ebbkc_h(gname, k):
    check_cliques(GRAPHS[gname], k, _run("ebbkc_h", GRAPHS[gname], k))


@pytest.mark.parametrize("et_t", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("algo", ["ebbkc_t", "ebbkc_c", "ebbkc_h"])
def test_early_termination_all_thresholds(algo, et_t):
    g = GRAPHS["er_dense"]
    for k in (4, 5, 6):
        check_cliques(g, k, _run(algo, g, k, et_t=et_t))


@pytest.mark.parametrize("algo", ["ebbkc_c", "ebbkc_h"])
def test_rule2_disabled_still_exact(algo):
    g = GRAPHS["ba"]
    for k in (4, 5, 6):
        check_cliques(g, k, _run(algo, g, k, rule2=False))


def test_k_equal_one_and_two():
    g = GRAPHS["er_sparse"]
    assert sorted(_run("ebbkc_h", g, 1)) == [(v,) for v in g.vertices]
    assert sorted(tuple(sorted(c)) for c in _run("ebbkc_h", g, 2)) == g.edge_list()


def test_k_larger_than_omega_empty():
    g = G.cycle_graph(10)
    assert _run("ebbkc_h", g, 3) == []
    assert _run("ebbkc_t", g, 4) == []


def test_emitted_cliques_are_real():
    g = GRAPHS["planted"]
    for c in _run("ebbkc_h", g, 6, et_t=3):
        assert len(set(c)) == 6
        assert is_clique(g.adj, c)


def test_counter_example_graph_from_appendix_b():
    """Figure 13's 4-vertex, 5-edge graph: EBBkC-T produces branches no
    vertex ordering can, yet the listing stays exact."""
    g = LocalGraph.from_pairs(
        [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )
    for k in (3, 4):
        check_cliques(g, k, _run("ebbkc_t", g, k))


def test_figure_2_example_graph():
    """The EBBkC-C running example (Figure 2): 8 vertices A..H."""
    A, B, C, D, E, F_, G_, H = range(8)
    g = LocalGraph.from_pairs(
        [(A, B), (A, C), (B, C), (B, D), (C, D), (D, E), (E, F_), (E, G_),
         (E, H), (F_, G_), (F_, H), (G_, H)]
    )
    for k in (3, 4):
        check_cliques(g, k, _run("ebbkc_c", g, k))
        check_cliques(g, k, _run("ebbkc_h", g, k, et_t=2))


def _rank_filter(order):
    """The reference rank filter: ``above(i, a, b)`` is whether edge
    {a, b} is in the graph and comes after position i of π_τ."""
    pos = {e: i for i, e in enumerate(order)}

    def above(i, a, b):
        return pos.get((min(a, b), max(a, b)), -1) > i

    return above


def test_top_branch_decomposition_covers_all():
    """Union over truss-ordered top branches = all k-cliques, each once,
    and branch i lists only cliques made of e_i and edges after it."""
    g = GRAPHS["er_dense"]
    td = truss_decomposition(g)
    above = _rank_filter(td.order)
    got = []
    for i, (u, v) in enumerate(td.order):
        branch = []
        ebbkc.ebbkc_t_sweep(td.order, [i], 5, branch.append)
        for c in branch:
            assert {u, v} <= set(c)
            assert all(above(i, a, b) for a, b in combinations(c, 2) if {a, b} != {u, v})
        got += branch
    check_cliques(g, 5, got)


@given(graphs(max_n=16))
@settings(max_examples=60, deadline=None)
def test_sweep_slices_the_rank_filtered_branch(g):
    """At every π_τ position i the sweep's g_i = rem[u] & rem[v] and its
    adjacency {w: rem[w] & g_i} are the rank-filtered slice: the common
    neighbours, and the edges among them, ranked after e_i. EBBkC-T's
    rank map, built from the first unit on, filters the same adjacency.
    Over all positions, and over every other position of a suffix of π_τ."""
    td = truss_decomposition(g)
    above = _rank_filter(td.order)
    m = len(td.order)
    for units in (list(range(m)), list(range(m // 2, m, 2))):
        nr = ebbkc.rank_map(td.order, units[0]) if units else {}
        seen = []
        for rem, u, v in ebbkc._sweep(td.order, units):
            i = td.order.index((u, v))
            seen.append(i)
            verts = {w for w in g.adj[u] & g.adj[v] if above(i, u, w) and above(i, v, w)}
            adj = {w: {x for x in g.adj[w] & verts if above(i, w, x)} for w in verts}
            assert rem[u] & rem[v] == verts
            assert {w: rem[w] & verts for w in verts} == adj
            assert ebbkc._branch_adj(nr, verts, i) == adj
        assert seen == units


def test_variants_agree_on_larger_graph():
    g = G.barabasi_albert(150, 6, seed=9)
    counts = set()
    for algo, kw in [
        ("ebbkc_t", {}),
        ("ebbkc_c", {}),
        ("ebbkc_h", {}),
        ("ebbkc_h", {"et_t": 3}),
    ]:
        counts.add(len(_run(algo, g, 5, **kw)))
    assert len(counts) == 1
