"""Edge-list normalization.

The paper works on unweighted, undirected *simple* graphs: "we ignore
the directions, weights and self-loops (if any) at the very beginning"
(Section 6.1). ``normalize_edges`` implements exactly that over a Spark
DataFrame, producing a canonical edge table with ``u < v`` and no
duplicates. All downstream modules consume this canonical form.

On the driver, :class:`LocalGraph` (adjacency sets + numpy edge arrays)
backs the Python kernels; the engine broadcasts it to tasks. Every
``LocalGraph`` is built once, by the numpy constructor
:meth:`LocalGraph.from_arrays`, which normalizes exactly as
``normalize_edges`` does.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import index

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def normalize_edges(edges: DataFrame, src: str = "u", dst: str = "v") -> DataFrame:
    """Canonicalize an edge DataFrame into a simple undirected edge table.

    Drops self-loops, maps every edge to ``(min, max)`` and dedupes, so
    each undirected edge appears exactly once with ``u < v``. Columns are
    cast to ``long``.
    """
    u, v = F.col(src).cast("long"), F.col(dst).cast("long")
    return (
        edges.select(
            F.least(u, v).alias("u"),
            F.greatest(u, v).alias("v"),
        )
        .where(F.col("u") != F.col("v"))
        .dropDuplicates(["u", "v"])
    )


def edges_from_pandas(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Create a normalized Spark edge table from a pandas edge list.

    The explicit schema keeps empty frames valid (no inference needed).
    """
    return normalize_edges(
        spark.createDataFrame(pdf[["u", "v"]], schema="u long, v long")
    )


def edges_from_pairs(spark: SparkSession, pairs) -> DataFrame:
    """Create a normalized Spark edge table from an iterable of (u, v)."""
    pdf = pd.DataFrame(list(pairs), columns=["u", "v"], dtype="int64")
    if pdf.empty:
        pdf = pd.DataFrame({"u": pd.Series(dtype="int64"), "v": pd.Series(dtype="int64")})
    return edges_from_pandas(spark, pdf)


@dataclass
class LocalGraph:
    """Driver-side representation of a (small) normalized graph.

    ``us``/``vs`` are aligned numpy arrays of the canonical edges
    (``us[i] < vs[i]``); ``adj`` maps each vertex to its neighbor set.
    Vertices are the original ids (no compaction — kernels handle sets
    of arbitrary ints).
    """

    us: np.ndarray
    vs: np.ndarray
    adj: dict[int, set[int]] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return len(self.us)

    @property
    def vertices(self) -> list[int]:
        return sorted(self.adj)

    def edge_list(self) -> list[tuple[int, int]]:
        return list(zip(self.us.tolist(), self.vs.tolist()))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    @classmethod
    def from_arrays(cls, a, b) -> "LocalGraph":
        """Build from aligned endpoint arrays; normalizes like the Spark
        path, all in numpy. The edges come out sorted by (u, v),
        ``adj`` lists the vertices in order of first appearance over
        those edges (u, then v) and fills each neighbor set in ascending
        order, so set layouts, and with them every peel tie-break and
        kernel iteration order, depend only on the edge set."""
        a, b = _ids(a), _ids(b)
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("endpoint arrays must be 1-d and of equal length")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        first = np.ones(len(lo), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        us, vs = lo[first], hi[first]
        # The edges' endpoints interleaved (u0, v0, u1, v1, ...); the
        # neighbor of slot j is slot j ^ 1. A stable sort groups each
        # vertex's slots in edge order: first its edges (w, v), w
        # ascending, then its edges (v, w), w ascending, i.e. ascending
        # neighbors (the CSR), with its first appearance at the front.
        ends = np.empty(2 * len(us), dtype=np.int64)
        ends[0::2], ends[1::2] = us, vs
        slot = np.argsort(ends, kind="stable")
        head = np.ones(len(slot), dtype=bool)
        head[1:] = ends[slot[1:]] != ends[slot[:-1]]
        start = np.flatnonzero(head)
        stop = np.append(start[1:], len(slot))
        vertex = np.empty_like(slot)  # slot -> index of its vertex in ``ids``
        vertex[slot] = np.cumsum(head) - 1
        # One int object per vertex, shared by its key and every set that
        # holds it: set probes then match by identity before comparing
        # values, and the graph holds n id objects rather than 2m.
        ids = np.array(ends[slot[start]].tolist(), dtype=object)
        nbrs = ids[vertex[slot ^ 1]].tolist()
        seen = np.argsort(slot[start])  # vertices by first appearance
        adj = {
            v: set(nbrs[i:j])
            for v, i, j in zip(ids[seen].tolist(), start[seen].tolist(), stop[seen].tolist())
        }
        return cls(us=us, vs=vs, adj=adj)

    @classmethod
    def from_pairs(cls, pairs) -> "LocalGraph":
        """Build from an iterable of (u, v) items (see `from_arrays`).
        An item that is not a pair, an id that Spark's ``long`` cannot
        hold, or a non-integral float id raises ValueError; an integral
        float such as ``1.0`` is taken, as pandas takes it."""
        pairs = list(pairs)
        try:
            lengths = set(map(len, pairs))
        except TypeError as e:
            raise ValueError("every item must be a (u, v) pair") from e
        if lengths - {2}:
            raise ValueError(f"every item must be a (u, v) pair, got lengths {sorted(lengths)}")
        try:
            try:
                flat = np.fromiter(map(index, chain.from_iterable(pairs)), np.int64, 2 * len(pairs))
            except TypeError:  # not every id is an int: check each one
                flat = np.fromiter(map(_integral, chain.from_iterable(pairs)), np.int64, 2 * len(pairs))
        except OverflowError as e:
            raise ValueError(_ID_RANGE) from e
        return cls.from_arrays(flat[0::2], flat[1::2])


_ID_RANGE = "vertex ids must fit in a signed 64-bit integer (Spark's long)"
_NOT_INTEGRAL = "vertex ids must be integers"


def _integral(x) -> int:
    """The vertex id ``x`` as an int; a non-integral value raises."""
    i = int(x)
    if i != x:
        raise ValueError(f"{_NOT_INTEGRAL}, got {x!r}")
    return i


def _ids(x) -> np.ndarray:
    """``x`` as an int64 array of vertex ids; ids out of range, string
    ids and non-integral float ids raise. Float and object arrays are
    read one id at a time, as `LocalGraph.from_pairs` reads them."""
    x = np.asarray(x)
    if x.dtype.kind in "SU":
        raise ValueError(f"{_NOT_INTEGRAL}, got {x.dtype} ids")
    if x.dtype.kind == "u" and x.size and x.max() > np.iinfo(np.int64).max:
        raise ValueError(_ID_RANGE)
    try:
        if x.dtype.kind in "fO":
            x = np.asarray(np.frompyfunc(_integral, 1, 1)(x))
        return x.astype(np.int64, copy=False)
    except OverflowError as e:
        raise ValueError(_ID_RANGE) from e


def list_small_k(g: LocalGraph, k: int, out) -> bool:
    """List the k-cliques of ``g`` for k ≤ 2 (the paper assumes k ≥ 3):
    1-cliques are vertices, 2-cliques are edges, and k ≤ 0 lists
    nothing. Returns True when it consumed the call."""
    if k == 1:
        for v in g.vertices:
            out((v,))
    elif k == 2:
        for u, v in zip(g.us.tolist(), g.vs.tolist()):
            out((u, v))
    return k <= 2


def collect_local(edges: DataFrame) -> LocalGraph:
    """Collect a normalized Spark edge table into a :class:`LocalGraph`.

    This is the documented hand-off point between the distributed
    dataflow (degree/triangle/support computation) and the driver-side
    sequential peels (degeneracy, truss) — see DESIGN.md §2.
    """
    pdf = edges.select("u", "v").toPandas()
    return LocalGraph.from_arrays(pdf["u"].to_numpy(np.int64), pdf["v"].to_numpy(np.int64))


def to_spark(spark: SparkSession, g: LocalGraph) -> DataFrame:
    """Lift a :class:`LocalGraph` back into a Spark edge table."""
    pdf = pd.DataFrame({"u": g.us, "v": g.vs})
    return spark.createDataFrame(pdf, schema="u long, v long")
