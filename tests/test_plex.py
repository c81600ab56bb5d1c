"""t-plex helpers: plexity, inverse graph, F/L/R partition (Section 5)."""
import pytest

from repro.graph import generators as G
from repro.graph.loader import LocalGraph
from repro.graph.plex import (
    inverse_adj,
    partition_2plex,
    plexity,
)


def test_clique_is_1_plex():
    g = G.complete_graph(6)
    assert plexity(set(g.adj), g.adj) == 1


def test_plexity_empty_set():
    assert plexity(set(), {}) == 0


def test_plexity_known_2plex():
    g = G.random_t_plex(8, 2, seed=1)
    assert plexity(set(g.adj), g.adj) <= 2


def test_plexity_cycle():
    g = G.cycle_graph(6)
    assert plexity(set(g.adj), g.adj) == 6 - 2


def test_inverse_adj_complement():
    g = G.cycle_graph(5)
    verts = set(g.adj)
    inv = inverse_adj(verts, g.adj)
    for v in verts:
        assert inv[v] == verts - g.adj[v] - {v}
        assert v not in inv[v]


def test_inverse_of_clique_is_empty():
    g = G.complete_graph(5)
    inv = inverse_adj(set(g.adj), g.adj)
    assert all(not nb for nb in inv.values())


def test_partition_2plex_clique():
    g = G.complete_graph(6)
    f, pairs = partition_2plex(set(g.adj), g.adj)
    assert sorted(f) == list(range(6)) and pairs == []


@pytest.mark.parametrize("seed", range(5))
def test_partition_2plex_structure(seed):
    g = G.random_t_plex(10, 2, seed=seed)
    verts = set(g.adj)
    f, pairs = partition_2plex(verts, g.adj)
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    assert pairs == sorted(pairs) and all(a < b for a, b in pairs)
    assert sorted(f + left + right) == sorted(verts)
    # F vertices adjacent to everything; pairs are the unique non-edges.
    for v in f:
        assert g.adj[v] & verts == verts - {v}
    for a, b in pairs:
        assert b not in g.adj[a]
    # Each of F, L, R induces a clique.
    for part in (f, left, right):
        for i, a in enumerate(part):
            for b in part[i + 1 :]:
                assert b in g.adj[a]


def test_partition_2plex_rejects_3plex():
    g = G.cycle_graph(6)  # plexity 4
    with pytest.raises(ValueError):
        partition_2plex(set(g.adj), g.adj)
    # K_6 minus 01 and 02: only vertex 0 has two non-neighbors.
    g = LocalGraph.from_pairs(
        [(i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) not in {(0, 1), (0, 2)}]
    )
    with pytest.raises(ValueError, match="not a 2-plex: 0 has 2 non-neighbors"):
        partition_2plex(set(g.adj), g.adj)
