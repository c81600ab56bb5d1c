"""The k-core decomposition, the degeneracy ordering and the DAG
orientation every vertex ordering shares (:func:`orient`).

The peel — repeatedly remove a minimum-degree vertex — is inherently
sequential, so it runs on the driver with an O(n + m) bucket queue over
the collected (small) graph, exactly as every published distributed
k-clique system does for its preprocessing. :func:`oriented_edges_df`
is the same orientation as a Spark DataFrame, for the pure-DataFrame
lister and triangle dataflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .loader import LocalGraph, collect_local


@dataclass
class CoreDecomposition:
    """Result of the degeneracy peel.

    ``order`` lists vertices in removal order (the *degeneracy
    ordering*); ``core_number`` maps each vertex to its core number;
    ``degeneracy`` is δ = max core number; ``rank`` maps vertex → its
    position in ``order``.
    """

    order: list[int]
    core_number: dict[int, int]
    degeneracy: int

    @property
    def rank(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def core_decomposition(g: LocalGraph) -> CoreDecomposition:
    """O(n + m) bucket-queue peel (Batagelj–Zaveršnik).

    Repeatedly removes a vertex of minimum remaining degree; the core
    number of a vertex is the max degree threshold in force when it is
    removed, and δ is the max over all vertices.
    """
    if g.n == 0:
        return CoreDecomposition(order=[], core_number={}, degeneracy=0)
    verts = g.vertices
    deg = {v: g.degree(v) for v in verts}
    max_deg = max(deg.values())
    buckets: list[set[int]] = [set() for _ in range(max_deg + 1)]
    for v, d in deg.items():
        buckets[d].add(v)
    removed: set[int] = set()
    order: list[int] = []
    core_number: dict[int, int] = {}
    cur_core = 0
    d = 0
    for _ in range(len(verts)):
        while d <= max_deg and not buckets[d]:
            d += 1
        v = buckets[d].pop()
        cur_core = max(cur_core, d)
        core_number[v] = cur_core
        order.append(v)
        removed.add(v)
        for w in g.adj[v]:
            if w in removed:
                continue
            dw = deg[w]
            buckets[dw].discard(w)
            deg[w] = dw - 1
            buckets[dw - 1].add(w)
        d = max(0, d - 1)
    return CoreDecomposition(
        order=order, core_number=core_number, degeneracy=cur_core
    )


def orient(
    order: Iterable[int], adj: dict[int, set[int]]
) -> tuple[dict[int, int], dict[int, set[int]]]:
    """Orient every edge of ``adj`` along the vertex ordering ``order``.

    Returns ``(pos, out)``: ``pos[v]`` is v's position in ``order`` and
    ``out[v]`` the set of v's neighbors that come later. This one DAG
    builder serves the degeneracy, color and degree orderings.
    """
    pos = {v: i for i, v in enumerate(order)}
    return pos, {v: {w for w in adj[v] if pos[w] > i} for v, i in pos.items()}


def degree_order(adj: dict[int, set[int]]) -> list[int]:
    """Vertices by non-increasing degree, ties by vertex id."""
    return sorted(adj, key=lambda v: (-len(adj[v]), v))


def degeneracy_dag(g: LocalGraph) -> tuple[list[int], dict[int, set[int]]]:
    """Orient edges along the degeneracy ordering.

    Returns ``(order, out)`` where ``out[v]`` is the set of neighbors of
    v that come *after* v in the degeneracy ordering — each
    |out[v]| ≤ δ, the bound VBBkC's complexity rests on.
    """
    order = core_decomposition(g).order
    return order, orient(order, g.adj)[1]


def oriented_edges_df(edges: DataFrame, rank: dict[int, int] | None = None) -> DataFrame:
    """DataFrame DAG view: each undirected edge oriented low-rank → high-rank.

    ``rank`` is any total vertex order (degeneracy or color position);
    it defaults to the degeneracy ordering of the collected graph.
    Used by the pure-DataFrame lister and the triangle dataflow.
    """
    if rank is None:
        rank = core_decomposition(collect_local(edges)).rank
    spark = edges.sparkSession
    import pandas as pd

    rank_df = spark.createDataFrame(
        pd.DataFrame(
            {"vtx": list(rank.keys()), "rnk": list(rank.values())},
            dtype="int64",
        ),
        schema="vtx long, rnk long",
    )
    e = (
        edges.join(rank_df.withColumnRenamed("vtx", "u").withColumnRenamed("rnk", "ru"), "u")
        .join(rank_df.withColumnRenamed("vtx", "v").withColumnRenamed("rnk", "rv"), "v")
    )
    return e.select(
        F.when(F.col("ru") < F.col("rv"), F.col("u")).otherwise(F.col("v")).alias("src"),
        F.when(F.col("ru") < F.col("rv"), F.col("v")).otherwise(F.col("u")).alias("dst"),
    )
