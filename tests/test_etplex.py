"""Early-termination procedures kC2Plex / kCtPlex vs brute force, and
their closed-form counts vs the listing."""
import random

import pytest

from repro.core.bruteforce import brute_force_in_subset
from repro.core.etplex import (
    CliqueCount,
    count_cliques_2plex,
    default_t_threshold,
    list_cliques_2plex,
    list_cliques_tplex,
    list_edges,
    try_early_terminate,
)
from repro.graph import generators as G
from repro.graph.loader import LocalGraph
from repro.graph.plex import partition_2plex, plexity


def _norm(cliques):
    return sorted(tuple(sorted(c)) for c in cliques)


def _tplex_count(verts, adj, l):
    """kCtPlex into a CliqueCount sink: the number of l-cliques."""
    sink = CliqueCount()
    list_cliques_tplex((), verts, adj, l, sink)
    return sink.n


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [4, 7, 10])
def test_kc2plex_matches_brute_force(seed, n):
    """l = 0 lists S alone and l > |V| lists nothing; the closed-form
    count agrees with the listing at every l."""
    g = G.random_t_plex(n, 2, seed=seed)
    verts = set(g.adj)
    f, pairs = partition_2plex(verts, g.adj)
    for l in range(0, n + 2):
        got = []
        list_cliques_2plex((), verts, g.adj, l, got.append)
        if l:
            assert _norm(got) == _norm(brute_force_in_subset(g, verts, l))
        assert count_cliques_2plex(len(f), len(pairs), l) == len(got)


# A 2-plex on {0..7} (non-adjacent pairs 01 and 23) inside a larger
# graph, as EBBkC-C's global `und` rows and Degen's `adj` rows are: every
# row reaches 8 or 9, and 0, 4 and 5 each miss one of them, so a row's
# non-neighbors are not the branch's.
PLEX2_IN_LARGER = LocalGraph.from_pairs(
    [(i, j) for i in range(10) for j in range(i + 1, 10)
     if (i, j) not in {(0, 1), (2, 3), (4, 8), (0, 9), (5, 9)}]
)


def test_kc2plex_superset_rows():
    """kC2Plex at l ≥ 3 on a 2-plex whose rows reach outside ``verts``:
    the listing is the branch's cliques, and a CliqueCount passed straight
    to list_cliques_2plex adds exactly as many."""
    g = PLEX2_IN_LARGER
    verts = set(range(8))
    assert plexity(verts, g.adj) == 2 < plexity(set(g.adj), g.adj)
    assert all(g.adj[v] - verts for v in verts)
    s = (100,)
    for l in range(3, len(verts) + 2):
        got, sink = [], CliqueCount()
        sink.n = 7
        list_cliques_2plex(s, verts, g.adj, l, got.append)
        list_cliques_2plex(s, verts, g.adj, l, sink)
        assert all(c[:1] == s for c in got)
        assert _norm(c[1:] for c in got) == _norm(brute_force_in_subset(g, verts, l))
        assert sink.n - 7 == len(got)


@pytest.mark.parametrize("seed", range(4))
def test_kc2plex_lists_vertices_and_edges_directly(seed):
    """At l = 1 and l = 2 kC2Plex lists the vertices and the edges of the
    branch, each once and merged with S, also when the rows are supersets
    of the branch (vertex 0 is in the rows but not in ``verts``)."""
    g = G.random_t_plex(9, 2, seed=seed)
    verts = set(g.adj) - {0}
    s = (100, 101)
    for l in (1, 2):
        got = []
        list_cliques_2plex(s, verts, g.adj, l, got.append)
        assert all(c[:2] == s for c in got)
        assert _norm(c[2:] for c in got) == _norm(brute_force_in_subset(g, verts, l))


@pytest.mark.parametrize("seed", range(4))
def test_list_edges_lists_each_edge_once(seed):
    """The pair listing on a graph that is not a 2-plex, whose rows are
    supersets of the branch (they reach vertices outside ``verts``):
    every edge inside ``verts`` once, merged with S."""
    base = G.erdos_renyi(16, 0.4, seed=seed)
    # Scattered ids, so that no set iterates in ascending order.
    ids = random.Random(seed).sample(range(10**6), 16)
    g = LocalGraph.from_pairs([(ids[a], ids[b]) for a in base.adj for b in base.adj[a]])
    verts = set(g.adj) - set(ids[:3])
    assert plexity(verts, g.adj) > 2
    s = (100, 101)
    got = []
    list_edges(s, verts, g.adj, got.append)
    assert all(c[:2] == s and len(c) == 4 for c in got)
    edges = _norm(c[2:] for c in got)
    assert len(edges) == len(set(edges))
    assert edges == _norm(brute_force_in_subset(g, verts, 2))


def test_kc2plex_on_pure_clique():
    g = G.complete_graph(7)
    got = []
    list_cliques_2plex((), set(g.adj), g.adj, 4, got.append)
    assert len(got) == 35  # C(7,4)
    assert len(set(_norm(got))) == 35
    assert count_cliques_2plex(7, 0, 4) == 35  # p = 0


def test_kc2plex_prepends_s():
    g = G.complete_graph(4)
    got = []
    list_cliques_2plex((100, 200), set(g.adj), g.adj, 2, got.append)
    assert all(set(c) >= {100, 200} and len(c) == 4 for c in got)
    assert len(got) == 6


def test_kc2plex_l_zero_emits_s():
    got = []
    list_cliques_2plex((1, 2), set(), {}, 0, got.append)
    assert got == [(1, 2)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("t", [3, 4, 5])
def test_kctplex_matches_brute_force(seed, t):
    g = G.random_t_plex(10, t, seed=seed)
    verts = set(g.adj)
    for l in range(0, 12):
        got = []
        list_cliques_tplex((), verts, g.adj, l, got.append)
        if l:
            assert _norm(got) == _norm(brute_force_in_subset(g, verts, l))
        assert _tplex_count(verts, g.adj, l) == len(got)


def test_kctplex_handles_all_adjacent_set():
    """A clique is the extreme case: I = V, all output comes from the
    combinatorial completion."""
    g = G.complete_graph(6)
    got = []
    list_cliques_tplex((), set(g.adj), g.adj, 3, got.append)
    assert len(got) == 20  # C(6,3)
    assert _tplex_count(set(g.adj), g.adj, 3) == 20


# K_8 minus 01, 02, 13: a 3-plex whose all-adjacent set I = {4..7}.
PLEX3_WITH_I = LocalGraph.from_pairs(
    [(i, j) for i in range(8) for j in range(i + 1, 8) if (i, j) not in {(0, 1), (0, 2), (1, 3)}]
)


def test_kctplex_count_with_all_adjacent_set():
    """Both halves of kCtPlex at once: branching over C0 = {0..3} and
    C(|I|, l₂) over I = {4..7}."""
    g = PLEX3_WITH_I
    verts = set(g.adj)
    for l in range(0, 10):
        got = []
        list_cliques_tplex((), verts, g.adj, l, got.append)
        if l:
            assert _norm(got) == _norm(brute_force_in_subset(g, verts, l))
        assert _tplex_count(verts, g.adj, l) == len(got)


def test_kctplex_on_sparse_2plex_still_correct():
    g = G.random_t_plex(8, 2, seed=3)
    got = []
    list_cliques_tplex((), set(g.adj), g.adj, 4, got.append)
    assert _norm(got) == _norm(brute_force_in_subset(g, set(g.adj), 4))


def test_try_early_terminate_disabled():
    g = G.complete_graph(5)
    assert not try_early_terminate((), set(g.adj), g.adj, 3, 0, lambda c: None)
    sink = CliqueCount()
    assert not try_early_terminate((), set(g.adj), g.adj, 3, 0, sink)
    assert sink.n == 0


def test_try_early_terminate_rejects_sparse():
    g = G.cycle_graph(8)  # plexity 6
    assert not try_early_terminate((), set(g.adj), g.adj, 3, 3, lambda c: None)
    sink = CliqueCount()
    sink.n = 5
    assert not try_early_terminate((), set(g.adj), g.adj, 3, 3, sink)
    assert sink.n == 5


def _et_list_and_count(g, l, t_max, verts=None):
    """try_early_terminate on ``verts`` (default: all of g) with a listing
    sink and with a CliqueCount that already holds 7 cliques: (listed
    cliques, cliques the count added)."""
    verts = set(g.adj) if verts is None else verts
    got, sink = [], CliqueCount()
    sink.n = 7
    assert try_early_terminate((), verts, g.adj, l, t_max, got.append)
    assert try_early_terminate((), verts, g.adj, l, t_max, sink)
    return got, sink.n - 7


def test_try_early_terminate_dispatches_2plex():
    g = G.random_t_plex(8, 2, seed=1)
    got, added = _et_list_and_count(g, 3, 2)
    assert _norm(got) == _norm(brute_force_in_subset(g, set(g.adj), 3))
    assert added == len(got)


def test_try_early_terminate_dispatches_tplex():
    for g, t_max in ((G.random_t_plex(9, 4, seed=2), 4), (PLEX3_WITH_I, 3)):
        got, added = _et_list_and_count(g, 3, t_max)
        assert _norm(got) == _norm(brute_force_in_subset(g, set(g.adj), 3))
        assert added == len(got)


# PLEX3_WITH_I inside a larger graph: vertices 8 and 9 are joined to
# everything, so the rows of {0..7} are strict supersets of the branch,
# as the `rem` rows EBBkC-H passes are.
PLEX3_IN_LARGER = LocalGraph.from_pairs(
    PLEX3_WITH_I.edge_list() + [(v, x) for x in (8, 9) for v in range(x)]
)


@pytest.mark.parametrize(
    "g,verts,t_max",
    [
        (PLEX3_IN_LARGER, set(range(8)), 3),
        (G.random_t_plex(13, 4, seed=5), set(range(10)), 4),
    ],
    ids=["plex3-with-I", "random-4plex"],
)
def test_try_early_terminate_tplex_superset_rows(g, verts, t_max):
    """kCtPlex on a t ≥ 3 plex whose rows reach outside ``verts``: the
    listing is the branch's cliques and the count adds exactly as many."""
    assert plexity(verts, g.adj) >= 3
    assert all(g.adj[v] - verts for v in verts)
    for l in range(1, len(verts) + 2):
        got, added = _et_list_and_count(g, l, t_max, verts)
        assert _norm(got) == _norm(brute_force_in_subset(g, verts, l))
        assert added == len(got)


def test_try_early_terminate_superset_adjacency():
    """Adjacency values may be supersets of verts — they are restricted."""
    g = G.complete_graph(8)
    verts = set(range(5))
    got = []
    assert try_early_terminate((), verts, g.adj, 3, 2, got.append)
    assert len(got) == 10  # C(5,3)


def test_default_t_threshold_policy():
    assert default_t_threshold(4, 20) == 2  # k <= tau/2
    assert default_t_threshold(11, 20) == 3
    assert default_t_threshold(10, 20) == 2
