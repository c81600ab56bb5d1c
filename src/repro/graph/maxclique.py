"""Maximum clique size ω.

Needed for Table 1 (dataset statistics report ω) and for the k-sweeps
"k from 4 to ω". Degeneracy-DAG decomposition (each subproblem has
≤ δ vertices) + Tomita-style branch-and-bound with a greedy coloring
bound, on int-bitset adjacency.
"""
from __future__ import annotations

from .core import degeneracy_dag
from .loader import LocalGraph


def _max_clique_masked(verts: set[int], adj: dict[int, set[int]], lb: int) -> int:
    """Max clique size in the induced subgraph, pruned against ``lb``
    (returns a value ≤ lb if nothing larger exists)."""
    idx = {v: i for i, v in enumerate(verts)}
    masks = [0] * len(verts)
    for v in verts:
        m = 0
        for w in adj[v]:
            j = idx.get(w)
            if j is not None:
                m |= 1 << j
        masks[idx[v]] = m
    best = lb

    def expand(size: int, p: int) -> None:
        nonlocal best
        if p == 0:
            if size > best:
                best = size
            return
        # Greedy coloring of P: bounds[i] = color class index, an upper
        # bound on any clique extension that starts at order[i].
        order: list[int] = []
        bounds: list[int] = []
        rest = p
        color = 0
        while rest:
            color += 1
            q = rest
            while q:
                b = q & -q
                i = b.bit_length() - 1
                order.append(i)
                bounds.append(color)
                rest ^= b
                q &= ~b & ~masks[i]
        cur = p
        for pos in range(len(order) - 1, -1, -1):
            if size + bounds[pos] <= best:
                return
            i = order[pos]
            expand(size + 1, cur & masks[i])
            cur &= ~(1 << i)

    expand(0, (1 << len(verts)) - 1)
    return best


def max_clique_size(g: LocalGraph) -> int:
    """ω(G) — 0 for the empty graph, 1 for an edgeless one."""
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    order, out = degeneracy_dag(g)
    best = 1
    for v in order:
        cand = out[v]
        if 1 + len(cand) <= best:
            continue
        best = max(best, 1 + _max_clique_masked(cand, g.adj, best - 1))
    return best
