"""Pure-DataFrame iterative-join lister vs the DuckDB oracle and kernels."""
import pytest

from repro.core.bruteforce import brute_force_count, brute_force_kcliques
from repro.core.distributed import kclique_sql, kcliques_df
from repro.graph import generators as G
from repro.graph.core import core_decomposition, oriented_edges_df
from repro.graph.loader import to_spark
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def graph():
    return G.barabasi_albert(50, 5, seed=11)


@pytest.fixture(scope="module")
def edges(spark, graph):
    df = to_spark(spark, graph)
    df.cache().count()
    return df


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_count_matches_brute_force(spark, graph, edges, k):
    assert kcliques_df(edges, k).count() == brute_force_count(graph, k)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_oracle_equivalence(spark, graph, edges, k):
    """Spark's multi-join plan vs DuckDB running the same SQL — the
    mandated result-equality check for the dataflow lister."""
    rank = core_decomposition(graph).rank
    dag = oriented_edges_df(edges, rank)
    got = kcliques_df(edges, k, rank)
    assert_equivalent(got, kclique_sql(k), dag=dag)


def test_oracle_catches_wrong_result(spark, graph, edges):
    """The oracle check itself: a listing that lost one clique fails it."""
    rank = core_decomposition(graph).rank
    got = kcliques_df(edges, 4, rank)
    with pytest.raises(AssertionError):
        assert_equivalent(got.exceptAll(got.limit(1)), kclique_sql(4), dag=oriented_edges_df(edges, rank))


def test_rows_are_cliques(spark, graph, edges):
    rows = kcliques_df(edges, 4).collect()
    expected = set(brute_force_kcliques(graph, 4))
    got = {tuple(sorted(int(r[f"v{i}"]) for i in range(1, 5))) for r in rows}
    assert got == expected
    assert len(rows) == len(expected)


def test_triangle_free_graph_empty(spark):
    e = to_spark(spark, G.complete_bipartite(4, 4))
    assert kcliques_df(e, 3).count() == 0


def test_k_less_than_two_raises(spark, edges):
    with pytest.raises(ValueError):
        kcliques_df(edges, 1)
    with pytest.raises(ValueError):
        kclique_sql(1)


def test_dag_has_m_edges(spark, graph, edges):
    assert oriented_edges_df(edges).count() == graph.m


def test_kclique_sql_text():
    sql = kclique_sql(3)
    assert "v3" in sql and "JOIN" in sql
    assert kclique_sql(2).startswith("SELECT")
