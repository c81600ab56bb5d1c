"""t-plex helpers for the early-termination technique (Section 5).

A t-plex is a graph where every vertex has at most t non-neighbors
*including itself*; equivalently min-degree ≥ |V| − t. The plexity of a
branch graph decides whether kC2Plex / kCtPlex applies. The inverse
graph g_inv (edge ⇔ non-edge) is what kCtPlex branches on.
"""
from __future__ import annotations


def plexity(verts: set[int], adj: dict[int, set[int]]) -> int:
    """Smallest t such that the induced subgraph is a t-plex.

    t = |V| − min degree; t = 1 iff the graph is a clique. Returns 0 for
    the empty vertex set.
    """
    if not verts:
        return 0
    return len(verts) - min(len(adj[v] & verts) for v in verts)


def inverse_adj(verts: set[int], adj: dict[int, set[int]]) -> dict[int, set[int]]:
    """Adjacency of the inverse graph of the induced subgraph: w ~ v in
    g_inv iff w ≠ v and w is NOT adjacent to v in g."""
    return {v: verts - adj[v] - {v} for v in verts}


def partition_2plex(
    verts: set[int], adj: dict[int, set[int]]
) -> tuple[list[int], list[tuple[int, int]]]:
    """The F / L / R partition of a 2-plex (Section 5.1), read off the
    inverse graph: F holds the vertices with an empty inverse row (adjacent
    to all others), and the pairs are the inverse graph's edges (v, w) with
    v < w, sorted, so pair i is (L[i], R[i]). Each of F, L, R induces a
    clique. Raises ValueError when the graph is not a 2-plex.
    """
    inv = inverse_adj(verts, adj)
    for v, missing in inv.items():
        if len(missing) > 1:
            raise ValueError(f"not a 2-plex: {v} has {len(missing)} non-neighbors")
    f = sorted(v for v, missing in inv.items() if not missing)
    pairs = sorted((v, w) for v, missing in inv.items() for w in missing if v < w)
    return f, pairs
