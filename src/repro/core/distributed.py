"""Pure-DataFrame k-clique listing by iterative join expansion.

The Spark-native counterpart of the Python kernels: orient the edges
along a total vertex order into a DAG table, seed with the edges
(2-cliques), and expand one vertex per round — the new vertex must be
an out-neighbor of the last clique vertex and adjacent to every earlier
one (triangle-style closing joins, all planned by Catalyst as shuffle
joins under the fixture's no-broadcast config).

This is how "k-clique listing as bulk dataflow" looks when expressed
relationally; it also doubles as the DuckDB-oracle bridge:
:func:`kclique_sql` emits the *same* query as SQL so
``repro.oracle.assert_equivalent`` can diff Spark against DuckDB
row-for-row.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.core import oriented_edges_df


def kcliques_df(
    edges: DataFrame, k: int, rank: dict[int, int] | None = None
) -> DataFrame:
    """All k-cliques as rows (v1, ..., vk), ordered by the vertex rank
    (by default the degeneracy ordering, see :func:`oriented_edges_df`).

    k ≥ 2. Round i joins the DAG on the last vertex to propose v_i, then
    closes v_j–v_i for every j < i − 1.
    """
    if k < 2:
        raise ValueError("kcliques_df requires k >= 2")
    dag = oriented_edges_df(edges, rank)
    cliques = dag.select(F.col("src").alias("v1"), F.col("dst").alias("v2"))
    for i in range(3, k + 1):
        step = dag.select(
            F.col("src").alias(f"v{i - 1}"), F.col("dst").alias(f"v{i}")
        )
        cliques = cliques.join(step, f"v{i - 1}")
        for j in range(1, i - 1):
            close = dag.select(
                F.col("src").alias(f"v{j}"), F.col("dst").alias(f"v{i}")
            )
            cliques = cliques.join(close, [f"v{j}", f"v{i}"])
        cliques = cliques.select(*[f"v{x}" for x in range(1, i + 1)])
    return cliques.select(*[f"v{x}" for x in range(1, k + 1)])


def kclique_sql(k: int, table: str = "dag") -> str:
    """The DuckDB-side twin of :func:`kcliques_df` over a DAG table.

    Produces columns v1..vk with identical aliases so the oracle can
    compare sorted rows directly.
    """
    if k < 2:
        raise ValueError("kclique_sql requires k >= 2")
    select = ["e12.src AS v1", "e12.dst AS v2"]
    frm = [f"{table} e12"]
    for i in range(3, k + 1):
        frm.append(
            f"JOIN {table} g{i} ON g{i}.src = {_vref(i - 1)}"
        )
        for j in range(1, i - 1):
            frm.append(
                f"JOIN {table} c{j}_{i} ON c{j}_{i}.src = {_vref(j)} "
                f"AND c{j}_{i}.dst = g{i}.dst"
            )
        select.append(f"g{i}.dst AS v{i}")
    return "SELECT " + ", ".join(select) + " FROM " + " ".join(frm)


def _vref(j: int) -> str:
    """SQL expression addressing clique vertex v_j inside kclique_sql."""
    if j == 1:
        return "e12.src"
    if j == 2:
        return "e12.dst"
    return f"g{j}.dst"
