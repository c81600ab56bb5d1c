"""Truss decomposition, the truss-based edge ordering π_τ, and τ.

The paper's Section 4.2: iteratively remove the edge whose endpoints
have the fewest common neighbors in the remaining graph and append it
to the ordering (Eq. 4) — exactly the classic truss-decomposition peel
[Wang & Cheng, VLDB'12]. The quantity τ is the largest sub-branch size
the ordering ever produces, i.e. the maximum support-at-removal, and
relates to the maximum truss number k_max by k_max = τ + 2 (footnote 2).

The triangles come as edge-id triples, from the numpy listing
(`triangles.triangle_edge_ids`) or from the distributed triangle
dataflow (`triangles.triangles_df`, mapped to the same ids). A call for
k-cliques first cuts the graph to its k-truss: in vectorised rounds it
drops every edge on fewer than k − 2 live triangles, until none is left
to drop. Only the survivors go through the sequential bucket peel
below (O(m^1.5) with set intersections), with their supports counted
over the live triangles. With k ≤ 2 nothing is cut, and the peel is the
whole graph's.

The cut loses nothing Algorithm 2 keeps. Truss numbers (the running max
of the supports-at-removal, + 2) never decrease along π_τ, so the
whole-graph peel removes every edge of truss number < k first, each at a
support below k − 2, whose branch is too small to hold a k-clique; the
k-truss is what remains, and the rest of that peel is a peel of the
k-truss. The cut peel is one too, up to tie-breaks between edges of
equal support.

The peel has two products for the kernels:

* ``order``, π_τ itself, which EBBkC-T and EBBkC-H sweep (EBBkC-T's
  task derives from it the rank map its recursion reads);
* ``sizes[i]``, the support at which the peel removes ``order[i]``. It
  equals |g_i|, the size of that edge's initial branch: the common
  neighbours still present at its removal are exactly those whose two
  edges come after it in π_τ.

Algorithm 2 discards a branch with fewer than k − 2 vertices, so the
engine's units are only the positions i with ``sizes[i] ≥ k − 2``; the
rest are never sliced. After the cut the first edge has support
≥ k − 2, so the first unit is position 0 and the Spark engine ships the
whole (cut) order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from pyspark.sql import DataFrame

from .core import core_decomposition
from .loader import LocalGraph, collect_local
from .triangles import edge_ids, triangle_edge_ids, triangles_df

Edge = tuple[int, int]


@dataclass
class TrussDecomposition:
    """``order`` is π_τ (edges in removal order, canonical u < v);
    ``sizes[i]`` is the support-at-removal of ``order[i]``, which is
    |g_i|, the size of its initial branch.
    """

    order: list[Edge]
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
    g: LocalGraph, *, k: int = 0, tri: np.ndarray | None = None
) -> TrussDecomposition:
    """π_τ of the k-truss of ``g`` (of all of ``g`` for k ≤ 2): the cut,
    then the bucket-queue truss peel over the survivors.

    The peel repeatedly removes a minimum-support edge; when (u, v)
    goes, the support of (u, w) and (v, w) drops for every remaining
    common neighbor w. Each edge's support-at-removal goes to ``sizes``;
    its running max yields the truss numbers and τ. ``tri`` holds the
    triangles as edge-id triples (`triangles.triangle_edge_ids`, which
    lists them when it is not given).
    """
    if tri is None:
        tri = triangle_edge_ids(g)
    # The cut: drop every edge on fewer than k − 2 live triangles, round
    # after round, until none is dropped.
    alive = np.ones(g.m, dtype=bool)
    sup = np.bincount(tri.ravel(), minlength=g.m)
    while k > 2 and (drop := alive & (sup < k - 2)).any():
        alive &= ~drop
        tri = tri[alive[tri].all(axis=1)]
        sup = np.bincount(tri.ravel(), minlength=g.m)
    del tri  # the peel needs only the counts: free the triangles first
    # Peel ids are positions in ``keep``, the surviving edge ids.
    keep = np.flatnonzero(alive)
    sup = sup[keep].tolist()
    ends = list(zip(g.us[keep].tolist(), g.vs[keep].tolist()))
    # The remaining graph: nr[u][w] is the id of edge {u, w} until it goes.
    nr: dict[int, dict[int, int]] = {}
    for i, (u, v) in enumerate(ends):
        nr.setdefault(u, {})[v] = i
        nr.setdefault(v, {})[u] = i
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
            s = sup[f] - 1
            sup[f] = s
            buckets[s].append(f)
            f = nv[w]
            s = sup[f] - 1
            sup[f] = s
            buckets[s].append(f)
        if d:
            d -= 1
    return TrussDecomposition(order=order, sizes=sizes)


def truss_decomposition_from_spark(
    edges: DataFrame, g: LocalGraph | None = None, *, k: int = 0
) -> TrussDecomposition:
    """:func:`truss_decomposition` fed by the distributed triangle
    dataflow: the rows of `triangles.triangles_df`, collected and mapped
    to edge ids, take the place of the numpy listing.

    ``g`` is ``edges`` already collected; passing it skips the collect
    and orients the triangle joins by its degeneracy rank."""
    if g is None:
        g = collect_local(edges)
    pdf = triangles_df(edges, core_decomposition(g).rank).toPandas()
    return truss_decomposition(g, k=k, tri=edge_ids(g, pdf["a"], pdf["b"], pdf["c"]))
