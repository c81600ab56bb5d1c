"""Triangle listing: a Spark DataFrame dataflow and a numpy routine.

Both list every triangle exactly once by orienting the edges and closing
the wedges of out-neighbour pairs:

* :func:`triangles_df` — the standard oriented-join dataflow (Catalyst
  shuffle joins; the fixture disables broadcast): orient each edge along
  a degeneracy-style rank, join wedges ``src→a, src→b`` and close them
  against the oriented edge table;
* :func:`triangle_edge_ids` — the driver-side routine over a collected
  graph, in numpy: each triangle as the ids of its three edges (indices
  into ``g.us``/``g.vs``), which is what the truss peel consumes
  (`repro.graph.truss`). :func:`edge_ids` maps the vertex triples of
  :func:`triangles_df` to the same ids.

Per-edge *support* (the number of triangles on an edge) is a count over
the edge-id triples: :func:`local_edge_support`.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .core import oriented_edges_df
from .loader import LocalGraph


def triangles_df(edges: DataFrame, rank: dict[int, int] | None = None) -> DataFrame:
    """All triangles of a normalized edge table → (a, b, c), rank-ascending.

    ``rank`` defaults to the degeneracy ordering of the collected graph
    (see :func:`oriented_edges_df`); pass one to avoid recomputation.
    """
    dag = oriented_edges_df(edges, rank)
    e1 = dag.select(F.col("src").alias("a"), F.col("dst").alias("b"))
    e2 = dag.select(F.col("src").alias("a"), F.col("dst").alias("c"))
    wedges = e1.join(e2, "a").where(F.col("b") != F.col("c"))
    closing = dag.select(F.col("src").alias("b"), F.col("dst").alias("c"))
    tri = wedges.join(closing, ["b", "c"])
    # b, c are both out-neighbors of a; the closing edge fixes b before c
    # in rank order, so (a, b, c) is rank-ascending and unique.
    return tri.select("a", "b", "c")


_WEDGES = 1 << 14


class _EdgeIndex:
    """The edges of ``g`` over compact vertex ids (positions in the sorted
    ``ids``, int32 where they fit), with their canonical keys sorted for
    the lookup of an edge id by its two endpoints."""

    def __init__(self, g: LocalGraph) -> None:
        m = g.m
        self.ids, inv = np.unique(np.concatenate((g.us, g.vs)), return_inverse=True)
        self.n = n = len(self.ids)
        inv = inv.astype(np.int32 if max(n, m) < 2**31 else np.int64)
        self.cu, self.cv = inv[:m], inv[m:]  # cu < cv: compaction keeps the order
        key = self.cu.astype(np.int64) * n + self.cv
        self.perm = np.argsort(key, kind="stable").astype(inv.dtype)
        self.keys = key[self.perm]

    def find(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Edge ids of the compact vertex pairs (x[j], y[j]), in either
        order; -1 where there is no such edge."""
        q = np.minimum(x, y).astype(np.int64) * self.n + np.maximum(x, y)
        pos = np.searchsorted(self.keys, q)
        pos[pos == len(self.keys)] = 0
        return np.where(self.keys[pos] == q, self.perm[pos], -1)


def triangle_edge_ids(g: LocalGraph) -> np.ndarray:
    """Every triangle of ``g`` once, as a (T, 3) array of the ids of its
    edges (indices into ``g.us``/``g.vs``).

    Each edge points from its endpoint of lower (degree, id) to the
    other, so a vertex has at most √(2m) out-neighbours. Every pair of
    out-edges a→b, a→c (the wedges, expanded with ``np.repeat``) whose
    ends b, c are adjacent is a triangle, and only a, the triangle's
    lowest vertex, sees it; the closing edge is found by ``searchsorted``
    on the sorted edge keys.
    """
    ix = _EdgeIndex(g)
    cu, cv, dt = ix.cu, ix.cv, ix.cu.dtype
    deg = np.bincount(cu, minlength=ix.n) + np.bincount(cv, minlength=ix.n)
    flip = deg[cu] > deg[cv]
    src, dst = np.where(flip, cv, cu), np.where(flip, cu, cv)
    # Out-edges by (source, target): the closing keys of one source's
    # wedges then ascend, which keeps ``searchsorted`` cache-friendly.
    by_src = np.argsort(src.astype(np.int64) * ix.n + dst).astype(dt)
    src, dst = src[by_src], dst[by_src]
    # Out-edge p pairs with each later out-edge of its source: wedge
    # start[p] + j (0 ≤ j < cnt[p]) closes out-edge p + 1 + j.
    cnt = np.cumsum(np.bincount(src, minlength=ix.n))[src] - np.arange(1, g.m + 1)
    start = np.cumsum(cnt) - cnt
    shift = np.arange(1, g.m + 1) - start
    # Close the wedges in runs of about _WEDGES, which bounds the
    # temporaries (peak memory) whatever the graph's size. Every cut is
    # below m: the last out-edge has no later partner, so the wedge
    # total is start[m − 1].
    cuts = np.searchsorted(start, np.arange(0, cnt.sum(), _WEDGES)).tolist() + [g.m]
    parts = [np.empty((0, 3), dtype=dt)]
    for lo, hi in zip(cuts, cuts[1:]):
        first = np.repeat(np.arange(lo, hi, dtype=dt), cnt[lo:hi])
        second = np.arange(start[lo], start[lo] + len(first))
        second += np.repeat(shift[lo:hi], cnt[lo:hi])
        closing = ix.find(dst[first], dst[second])
        hit = closing >= 0
        parts.append(np.stack((by_src[first[hit]], by_src[second[hit]], closing[hit]), axis=1))
    return np.concatenate(parts)


def edge_ids(g: LocalGraph, a, b, c) -> np.ndarray:
    """The triangles with vertices (a[j], b[j], c[j]) (original ids, as
    :func:`triangles_df` lists them) as a (T, 3) array of edge ids, in
    the ids of :func:`triangle_edge_ids`."""
    ix = _EdgeIndex(g)
    a, b, c = (np.searchsorted(ix.ids, np.asarray(x, dtype=np.int64)) for x in (a, b, c))
    return np.stack((ix.find(a, b), ix.find(a, c), ix.find(b, c)), axis=1)


def local_edge_support(g: LocalGraph) -> dict[tuple[int, int], int]:
    """Per-edge support: how many of :func:`triangle_edge_ids`'s
    triangles hold each edge, keyed by the edge's (u, v), u < v; edges
    in no triangle have support 0."""
    sup = np.bincount(triangle_edge_ids(g).ravel(), minlength=g.m)
    return dict(zip(zip(g.us.tolist(), g.vs.tolist()), sup.tolist()))
