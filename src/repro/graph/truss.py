"""Truss decomposition, the truss-based edge ordering π_τ, and τ.

The paper's Section 4.2: iteratively remove the edge whose endpoints
have the fewest common neighbors in the remaining graph and append it
to the ordering (Eq. 4) — exactly the classic truss-decomposition peel
[Wang & Cheng, VLDB'12]. The quantity τ is the largest sub-branch size
the ordering ever produces, i.e. the maximum support-at-removal, and
relates to the maximum truss number k_max by k_max = τ + 2 (footnote 2).

Initial per-edge supports come from the distributed triangle dataflow
(`triangles.edge_support_df`); the peel itself is the sequential bucket
loop below (O(m^1.5) with set intersections), run on the driver.

The peel has two products for the kernels:

* the per-vertex rank map ``nbr_rank[u][w]`` = position of edge {u, w}
  in π_τ, stored in both directions. Its keys are the adjacency, so
  EBBkC-T slices a branch with plain dict reads. During the peel the
  same map is the remaining graph, holding edge ids: a removed edge
  leaves it, and every edge is written back with its position once the
  peel ends;
* ``sizes[i]``, the support at which the peel removes ``order[i]``. It
  equals |g_i|, the size of that edge's initial branch: the common
  neighbours still present at its removal are exactly those whose two
  edges come after it in π_τ.

Algorithm 2 discards a branch with fewer than k − 2 vertices, so the
engine's units are only the positions i with ``sizes[i] ≥ k − 2``; the
rest are never sliced. Truss numbers (the running max of ``sizes``,
+ 2) never decrease along π_τ, so the k-truss is the suffix of π_τ from
the first kept edge. A kept branch reads no edge before its own, so the
Spark engine ships only that part: of the rank map for EBBkC-T, of
``order`` itself for EBBkC-H, which slices its branches by sweeping
that suffix instead of reading ranks.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from pyspark.sql import DataFrame

from .core import core_decomposition
from .loader import LocalGraph, collect_local
from .triangles import edge_support_df, local_edge_support

Edge = tuple[int, int]


@dataclass
class TrussDecomposition:
    """``order`` is π_τ (edges in removal order, canonical u < v);
    ``nbr_rank[u][w]`` = ``nbr_rank[w][u]`` is the position of edge
    {u, w} in ``order``; ``sizes[i]`` is the support-at-removal of
    ``order[i]``, which is |g_i|, the size of its initial branch.
    """

    order: list[Edge]
    nbr_rank: dict[int, dict[int, int]]
    sizes: list[int]

    @property
    def tau(self) -> int:
        """k_max − 2 = max support-at-removal."""
        return max(self.sizes, default=0)

    @property
    def rank(self) -> dict[Edge, int]:
        """Edge → position in π_τ."""
        return {e: i for i, e in enumerate(self.order)}

    @property
    def truss_number(self) -> dict[Edge, int]:
        """Edge → truss number t(e) (max k with the edge in the k-truss,
        ≥ 2): the running max of ``sizes``, + 2."""
        return {e: t + 2 for e, t in zip(self.order, accumulate(self.sizes, max))}

    @property
    def k_max(self) -> int:
        return self.tau + 2


def truss_decomposition(
    g: LocalGraph, support: dict[Edge, int] | None = None
) -> TrussDecomposition:
    """Bucket-queue truss peel over edge ids.

    Repeatedly removes a minimum-support edge; when (u, v) goes, the
    support of (u, w) and (v, w) drops for every remaining common
    neighbor w. Each edge's support-at-removal goes to ``sizes``; its
    running max yields the truss numbers and τ. ``support`` (edge →
    triangle count) fixes the edge ids: id i is its i-th key.
    """
    if support is None:
        support = local_edge_support(g)
    ends = list(support)
    sup = list(support.values())
    nr: dict[int, dict[int, int]] = {v: {} for v in g.adj}
    for i, (u, v) in enumerate(ends):
        nr[u][v] = nr[v][u] = i
    # An edge is appended to the bucket of every support value it takes;
    # entries whose value is no longer current are skipped when popped.
    buckets: list[list[int]] = [[] for _ in range(max(sup, default=0) + 1)]
    for i, s in enumerate(sup):
        buckets[s].append(i)
    order: list[Edge] = []
    sizes: list[int] = []
    d = 0
    for _ in ends:
        while True:
            while not buckets[d]:
                d += 1
            i = buckets[d].pop()
            if sup[i] == d:
                break
        sup[i] = -1
        e = u, v = ends[i]
        sizes.append(d)
        order.append(e)
        nu, nv = nr[u], nr[v]
        del nu[v], nv[u]
        # The peel's hot loop, unrolled over the two edges (u, w), (v, w).
        for w in nu.keys() & nv.keys():
            f = nu[w]
            sup[f] -= 1
            buckets[sup[f]].append(f)
            f = nv[w]
            sup[f] -= 1
            buckets[sup[f]].append(f)
        if d:
            d -= 1
    for p, (u, v) in enumerate(order):
        nr[u][v] = nr[v][u] = p
    return TrussDecomposition(order=order, nbr_rank=nr, sizes=sizes)


def truss_decomposition_from_spark(
    edges: DataFrame, g: LocalGraph | None = None
) -> TrussDecomposition:
    """Distributed supports (DataFrame triangle joins) + driver peel.

    ``g`` is ``edges`` already collected; passing it skips the collect
    and orients the triangle joins by its degeneracy rank."""
    if g is None:
        g = collect_local(edges)
    sup_pdf = edge_support_df(edges, core_decomposition(g).rank).toPandas()
    support = {
        (int(r.u), int(r.v)): int(r.support) for r in sup_pdf.itertuples()
    }
    return truss_decomposition(g, support)


def tau(g: LocalGraph) -> int:
    """τ(G): the largest sub-branch size under the truss edge ordering."""
    return truss_decomposition(g).tau
