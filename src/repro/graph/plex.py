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
) -> tuple[list[int], list[int], list[int]]:
    """The F / L / R partition of a 2-plex (Section 5.1).

    F holds the vertices adjacent to all others; the rest pair up into
    (non-adjacent) couples, split so L[i] and R[i] are the two members
    of pair i. Each of F, L, R induces a clique. Raises ValueError when
    the graph is not a 2-plex.
    """
    inv = inverse_adj(verts, adj)
    n = len(verts)
    f: list[int] = []
    pairs: dict[int, int] = {}
    for v in sorted(verts):
        missing = inv[v]
        if len(missing) == 0:
            f.append(v)
        elif len(missing) == 1:
            pairs[v] = next(iter(missing))
        else:
            raise ValueError(f"not a 2-plex: {v} has {len(missing)} non-neighbors")
    left: list[int] = []
    right: list[int] = []
    seen: set[int] = set()
    for v in sorted(pairs):
        if v in seen:
            continue
        w = pairs[v]
        left.append(v)
        right.append(w)
        seen.add(v)
        seen.add(w)
    assert len(f) + 2 * len(left) == n
    return f, left, right
