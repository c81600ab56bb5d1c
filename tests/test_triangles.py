"""Distributed triangle dataflow vs local computation and the DuckDB oracle."""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph import generators as G
from repro.graph.core import core_decomposition
from repro.graph import triangles as triangles_mod
from repro.graph.loader import LocalGraph, to_spark
from repro.graph.triangles import (
    edge_ids,
    local_edge_support,
    triangle_edge_ids,
    triangles_df,
)

from .test_properties import graphs
from repro.oracle import assert_equivalent


def _local_triangle_count(g):
    return sum(local_edge_support(g).values()) // 3


@pytest.mark.parametrize(
    "g,expected",
    [
        (G.complete_graph(5), 10),
        (G.complete_bipartite(4, 4), 0),
        (G.cycle_graph(3), 1),
        (G.cycle_graph(6), 0),
    ],
)
def test_triangle_count_known(spark, g, expected):
    assert triangles_df(to_spark(spark, g)).count() == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triangle_count_random_vs_local(spark, seed):
    g = G.erdos_renyi(35, 0.3, seed=seed)
    assert triangles_df(to_spark(spark, g)).count() == _local_triangle_count(g)


def test_triangles_unique_and_rank_ascending(spark):
    g = G.erdos_renyi(25, 0.4, seed=3)
    rank = core_decomposition(g).rank
    rows = triangles_df(to_spark(spark, g), rank).collect()
    seen = set()
    for r in rows:
        a, b, c = int(r["a"]), int(r["b"]), int(r["c"])
        assert rank[a] < rank[b] < rank[c]
        assert b in g.adj[a] and c in g.adj[a] and c in g.adj[b]
        key = (a, b, c)
        assert key not in seen
        seen.add(key)
    assert len(rows) == _local_triangle_count(g)


def test_triangles_df_oracle(spark):
    """Same oriented triangle join executed by DuckDB over the DAG table."""
    from repro.graph.core import oriented_edges_df

    g = G.barabasi_albert(60, 4, seed=4)
    rank = core_decomposition(g).rank
    dag = oriented_edges_df(to_spark(spark, g), rank)
    tri = triangles_df(to_spark(spark, g), rank)
    sql = (
        "SELECT e1.src AS a, e1.dst AS b, e2.dst AS c "
        "FROM dag e1 JOIN dag e2 ON e1.src = e2.src AND e1.dst <> e2.dst "
        "JOIN dag e3 ON e3.src = e1.dst AND e3.dst = e2.dst"
    )
    assert_equivalent(tri, sql, dag=dag)


def test_local_edge_support_complete():
    g = G.complete_graph(6)
    sup = local_edge_support(g)
    assert all(s == 4 for s in sup.values())


def _brute_force_triangles(g):
    return {
        c for c in combinations(g.vertices, 3)
        if all(g.has_edge(a, b) for a, b in combinations(c, 2))
    }


def _vertex_triples(g, tri):
    """The vertex sets of edge-id triples, checking each is a triangle."""
    found = []
    for ids in tri.tolist():
        es = [(int(g.us[i]), int(g.vs[i])) for i in ids]
        assert len(set(es)) == 3
        verts = tuple(sorted({w for e in es for w in e}))
        assert len(verts) == 3
        found.append(verts)
    return found


@given(graphs(max_n=16))
@settings(max_examples=60, deadline=None)
def test_triangle_edge_ids_brute_force(g):
    """Each triangle exactly once, as the ids of its three edges."""
    found = _vertex_triples(g, triangle_edge_ids(g))
    assert len(found) == len(set(found))
    assert set(found) == _brute_force_triangles(g)


@pytest.mark.parametrize("seed", [0, 1])
def test_triangle_edge_ids_large_ids(seed):
    """Vertex ids up to 10⁶ are compacted before the wedge keys are formed."""
    base = G.erdos_renyi(60, 0.2, seed=seed)
    label = dict(zip(base.vertices, np.random.default_rng(seed).choice(
        10**6, size=base.n, replace=False).tolist()))
    label[base.vertices[0]] = 10**6
    g = LocalGraph.from_pairs((label[u], label[v]) for u, v in base.edge_list())
    found = _vertex_triples(g, triangle_edge_ids(g))
    assert len(found) == len(set(found))
    assert set(found) == _brute_force_triangles(g)
    assert len(found) == sum(local_edge_support(base).values()) // 3 > 0


def test_triangle_edge_ids_in_many_runs():
    """A graph with several runs of wedges: the support of each edge is
    its number of common neighbours."""
    g = G.erdos_renyi(300, 0.2, seed=4)
    deg = {v: len(nb) for v, nb in g.adj.items()}
    out = [sum((deg[w], w) > (deg[v], v) for w in g.adj[v]) for v in g.adj]
    assert sum(d * (d - 1) // 2 for d in out) > 4 * triangles_mod._WEDGES
    tri = triangle_edge_ids(g)
    sup = np.bincount(tri.ravel(), minlength=g.m)
    assert sup.tolist() == [
        len(g.adj[u] & g.adj[v]) for u, v in zip(g.us.tolist(), g.vs.tolist())
    ]
    assert len({tuple(sorted(t)) for t in tri.tolist()}) == len(tri)


@pytest.mark.parametrize(
    "g", [G.cycle_graph(8), G.complete_bipartite(4, 5), G.star_graph(6),
          LocalGraph.from_pairs([])],
)
def test_triangle_edge_ids_none(g):
    """Triangle-free and empty graphs give an empty (0, 3) array."""
    tri = triangle_edge_ids(g)
    assert tri.shape == (0, 3)
    assert set(local_edge_support(g).values()) <= {0}


def test_edge_ids_map_spark_rows(spark):
    """The dataflow's vertex triples map to the numpy listing's edge ids."""
    g = G.erdos_renyi(30, 0.3, seed=7)
    pdf = triangles_df(to_spark(spark, g)).toPandas()
    got = edge_ids(g, pdf["a"], pdf["b"], pdf["c"])
    assert {tuple(sorted(t)) for t in got.tolist()} == {
        tuple(sorted(t)) for t in triangle_edge_ids(g).tolist()
    }
    assert len(got) == len(triangle_edge_ids(g))
