"""Edge-list normalization.

The paper works on unweighted, undirected *simple* graphs: "we ignore
the directions, weights and self-loops (if any) at the very beginning"
(Section 6.1). ``normalize_edges`` implements exactly that over a Spark
DataFrame, producing a canonical edge table with ``u < v`` and no
duplicates. All downstream modules consume this canonical form.

Two in-memory representations back the Python kernels:

* :class:`LocalGraph` — adjacency sets + numpy edge arrays, built once
  per graph on the driver and broadcast to tasks by the engine.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
        return [(int(u), int(v)) for u, v in zip(self.us, self.vs)]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    @classmethod
    def from_pairs(cls, pairs) -> "LocalGraph":
        """Build from an iterable of (u, v); normalizes like the Spark path."""
        seen: set[tuple[int, int]] = set()
        for a, b in pairs:
            a, b = int(a), int(b)
            if a == b:
                continue
            seen.add((min(a, b), max(a, b)))
        es = sorted(seen)
        us = np.array([e[0] for e in es], dtype=np.int64)
        vs = np.array([e[1] for e in es], dtype=np.int64)
        adj: dict[int, set[int]] = {}
        for a, b in es:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return cls(us=us, vs=vs, adj=adj)


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
    us = pdf["u"].to_numpy(dtype=np.int64)
    vs = pdf["v"].to_numpy(dtype=np.int64)
    order = np.lexsort((vs, us))
    us, vs = us[order], vs[order]
    adj: dict[int, set[int]] = {}
    for a, b in zip(us.tolist(), vs.tolist()):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return LocalGraph(us=us, vs=vs, adj=adj)


def to_spark(spark: SparkSession, g: LocalGraph) -> DataFrame:
    """Lift a :class:`LocalGraph` back into a Spark edge table."""
    pdf = pd.DataFrame({"u": g.us, "v": g.vs})
    return spark.createDataFrame(pdf, schema="u long, v long")
