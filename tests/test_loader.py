"""Edge-list normalization and LocalGraph round-trips."""
import hashlib

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import generators as G
from repro.graph.datasets import DATASETS, load
from repro.graph.loader import (
    LocalGraph,
    collect_local,
    edges_from_pairs,
    edges_from_pandas,
    normalize_edges,
    to_spark,
)


def test_normalize_drops_self_loops(spark):
    e = edges_from_pairs(spark, [(1, 1), (1, 2), (3, 3)])
    assert sorted(map(tuple, e.collect())) == [(1, 2)]


def test_normalize_dedupes_both_directions(spark):
    e = edges_from_pairs(spark, [(1, 2), (2, 1), (2, 1), (1, 2)])
    assert sorted(map(tuple, e.collect())) == [(1, 2)]


def test_normalize_canonical_order(spark):
    e = edges_from_pairs(spark, [(5, 3), (2, 7), (9, 1)])
    rows = sorted(map(tuple, e.collect()))
    assert rows == [(1, 9), (2, 7), (3, 5)]
    assert all(u < v for u, v in rows)


def test_normalize_casts_to_long(spark):
    pdf = pd.DataFrame({"u": np.array([1, 2], dtype="int32"), "v": np.array([2, 3], dtype="int32")})
    e = normalize_edges(spark.createDataFrame(pdf))
    assert dict(e.dtypes) == {"u": "bigint", "v": "bigint"}


def test_normalize_custom_columns(spark):
    pdf = pd.DataFrame({"a": [3, 1], "b": [1, 3]})
    e = normalize_edges(spark.createDataFrame(pdf), src="a", dst="b")
    assert sorted(map(tuple, e.collect())) == [(1, 3)]


def test_edges_from_pairs_empty(spark):
    e = edges_from_pairs(spark, [])
    assert e.count() == 0


def test_edges_from_pandas(spark):
    e = edges_from_pandas(spark, pd.DataFrame({"u": [1, 2], "v": [2, 3]}))
    assert e.count() == 2


def test_local_graph_from_pairs_basic():
    g = LocalGraph.from_pairs([(2, 1), (1, 2), (3, 3), (2, 3)])
    assert g.m == 2
    assert g.n == 3
    assert g.adj[2] == {1, 3}
    assert g.has_edge(1, 2) and not g.has_edge(1, 3)


def test_local_graph_edge_list_sorted():
    g = LocalGraph.from_pairs([(5, 4), (1, 9), (2, 3)])
    assert g.edge_list() == [(1, 9), (2, 3), (4, 5)]


def test_local_graph_degree():
    g = LocalGraph.from_pairs([(1, 2), (1, 3), (1, 4)])
    assert g.degree(1) == 3
    assert g.degree(2) == 1


def test_collect_local_round_trip(spark):
    pairs = [(1, 2), (2, 3), (1, 3), (4, 5)]
    e = edges_from_pairs(spark, pairs)
    g = collect_local(e)
    assert g.edge_list() == sorted(pairs)
    back = to_spark(spark, g)
    assert sorted(map(tuple, back.collect())) == sorted(pairs)


def test_collect_local_empty(spark):
    g = collect_local(edges_from_pairs(spark, []))
    assert g.n == 0 and g.m == 0


def test_vertices_property():
    g = LocalGraph.from_pairs([(3, 1), (2, 5)])
    assert g.vertices == [1, 2, 3, 5]


def _reference_build(pairs):
    """The per-edge Python construction `LocalGraph.from_arrays` must
    reproduce exactly: canonical sorted edges, vertices in order of first
    appearance over them, each neighbor set filled in edge order."""
    es = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    adj: dict[int, set[int]] = {}
    for a, b in es:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return [a for a, _ in es], [b for _, b in es], adj


def _layout(g):
    """Everything iteration order can see: the edge arrays, the vertex
    order and each neighbor set's iteration order."""
    return g.us.tolist(), g.vs.tolist(), list(g.adj), [list(g.adj[v]) for v in g.adj]


ids = st.integers(min_value=-(2**63), max_value=2**63 - 1)
small_ids = st.integers(min_value=-20, max_value=40)


@given(st.lists(st.tuples(st.one_of(small_ids, ids), st.one_of(small_ids, ids)), max_size=60))
@settings(max_examples=200, deadline=None)
def test_from_pairs_matches_reference_build(pairs):
    """Self-loops, duplicates, reversed pairs, negative and extreme ids,
    and the empty list: the same edges, vertex order and set layouts."""
    us, vs, adj = _reference_build(pairs)
    g = LocalGraph.from_pairs(pairs)
    assert g.us.dtype == g.vs.dtype == np.int64
    assert _layout(g) == (us, vs, list(adj), [list(adj[v]) for v in adj])
    assert g.edge_list() == list(zip(us, vs))
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    assert _layout(LocalGraph.from_arrays(a, b)) == _layout(g)


# sha256 of ``us.tobytes() + vs.tobytes()``, recorded with the per-edge
# Python construction that `from_arrays` replaced: the vectorised build must
# produce the same graphs.
GOLDEN = {
    "sparse-k4": "1125d3b6aaaf5bd93a124ebed6ebe3bd6363679c78ac46dff877872075763dca",
    "spark-count": "2e44b5c7edc7bc0f150c6297b4072617f48594f254000ea47126259403fcb3e3",
    "wp-2000": "4b203e055a6709de25f6e037ca2876274ce254a0415e49db49e99bd9ed310b44",
    "na": "30aebef28cc8bdf2fdd504eadbde4c9c7a20b05e9cbb3c28d0d5c0a0bb6b1ed8",
    "fb": "66b49785629fe311a3d6b83e69228c254eb5b415022b2019550e0c69a82e0ac7",
    "wk": "d16fa8771bbc6a91bf8749b74875186eeae1d7ca2276a8267fd412d275ab4a5e",
    "sh": "fdfa5a781577910d027f5564f65aa073f9fa1447e64aae57ed1a287c6f5841fc",
    "so": "b2fb1c30a5df4ab736082c9a59668746f56270dac5983eee7f4d1dd8682df954",
    "po": "a233d553db1fd3496fafe8eeee4d4c1a579917c945a2b21b6ca975263464b7ec",
    "cn": "aa14521f0ca332f6315f3c2e4b03db2ed4c22db169594746734d247698414a10",
    "ba": "2446118727f1afeb419f74d2a39d8b1b17b19af8688854f1571d0fd47b048947",
    "we": "4c3c012ac328cbfc4242ff101cf8f01464e921dcbe44782a6ffa0f07f8e80ce7",
    "ci": "963e37e73e7c3639326ee192214dd0eb3d14529f5cb8abf42424a5eef79ca145",
    "st": "54630544ecd54ff51e685768d56755ca414e61b25b83b8b2b41eaaf08ed8009b",
    "db": "137975f21ddf532d07cb5615520b8b85fcb7be07dedb998238d662691a36a5bd",
    "de": "c173726f78d3afeac6c82bb50d76c3c0af5287fc73cb2cac9ce7ef516f9c7819",
    "dg": "9a45bf8f24ef5c14a0ae923daccd02bc0b30f7e6ebed7d51ea420478229059c3",
    "sk": "b71fd1e203f7cb13537d03ea43bdd0aa21e13c0f9f7cc726fbd1e1f4df450fbd",
    "or": "a813111bd92523651ff0d76922f7f354466a2bb1b10f935c6440cd1ddf3ae1a4",
    "uk": "1e928a856c5a7486a4f783e94558c2164fd88ee14dae789d261b60a045008ddc",
    "cw": "d88530ea797604f1c42f98f75086952b33680f51b84bc8bb5b4d694d2b899c28",
    "wp": "50e2b500944a87081e2ba5c0e0d9aed3bcb0d86352f6d93d7c5af768bfc6a7b6",
}
BUILDS = {
    "sparse-k4": lambda: G.chung_lu(3000, 2.2, 8, seed=7),
    "spark-count": lambda: G.chung_lu(1800, 2.2, 10, seed=107),
    "wp-2000": lambda: G.planted_cliques(2000, 0.002, [44, 32], seed=119),
    **{name: (lambda name=name: load(name)) for name in DATASETS},
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_generated_graphs_are_unchanged(name):
    g = BUILDS[name]()
    assert hashlib.sha256(g.us.tobytes() + g.vs.tobytes()).hexdigest() == GOLDEN[name]


def test_golden_covers_every_dataset():
    assert set(DATASETS) <= set(GOLDEN) == set(BUILDS)


def test_generated_graph_layout_matches_reference_build():
    """The generators' array path lays out ``adj`` as the per-edge
    construction does, on the relabelled copy the benchmark builds too."""
    g = G.chung_lu(1800, 2.2, 10, seed=107)
    us, vs, adj = _reference_build(g.edge_list())
    assert _layout(g) == (us, vs, list(adj), [list(adj[v]) for v in adj])
    rng = np.random.default_rng(3)
    label = dict(zip(g.vertices, rng.permutation(4 * g.n)[: g.n].tolist()))
    pairs = [(label[u], label[v]) for u, v in g.edge_list()]
    us, vs, adj = _reference_build(pairs)
    assert _layout(LocalGraph.from_pairs(pairs)) == (us, vs, list(adj), [list(adj[v]) for v in adj])


def test_collect_local_keeps_iteration_order(spark):
    for g in (G.chung_lu(300, 2.2, 10, seed=5), G.planted_cliques(150, 0.02, [12, 8], seed=2)):
        assert _layout(collect_local(to_spark(spark, g))) == _layout(g)


@pytest.mark.parametrize("pairs", [
    [(2**63, 1)],
    [(1, -(2**63) - 1)],
    [(0, 1), (1, 2**64)],
])
def test_from_pairs_rejects_ids_outside_long(pairs):
    with pytest.raises(ValueError, match="64-bit"):
        LocalGraph.from_pairs(pairs)


def test_from_pairs_accepts_long_extremes():
    g = LocalGraph.from_pairs([(2**63 - 1, -(2**63))])
    assert g.edge_list() == [(-(2**63), 2**63 - 1)]


@pytest.mark.parametrize("pairs", [
    [(1, 2, 3)],
    [(1, 2), (3,)],
    [(1, 2), (3, 4, 5), (6,)],
    [1, 2],
])
def test_from_pairs_rejects_non_pairs(pairs):
    with pytest.raises(ValueError, match="pair"):
        LocalGraph.from_pairs(pairs)


@pytest.mark.parametrize("pairs, integral", [
    ([(1.7, 2)], False),
    ([(1, 2), (3, 4.5)], False),
    ([(1.0, 2)], True),
    ([(3.0, 1.0), (2, 3)], True),
    ([("5", "3")], False),
    ([(b"5", b"3")], False),
])
def test_float_ids_same_on_both_ingest_paths(spark, pairs, integral):
    """The numpy ingest (`from_pairs`, `from_arrays` over typed and over
    object arrays) and the Spark one (`edges_from_pairs`) reject the
    same non-integral float ids and string ids, and take the same
    integral ones."""
    a, b = (np.array(x) for x in zip(*pairs))
    builds = [
        lambda: LocalGraph.from_pairs(pairs),
        lambda: LocalGraph.from_arrays(a, b),
        lambda: LocalGraph.from_arrays(a.astype(object), b.astype(object)),
        lambda: collect_local(edges_from_pairs(spark, pairs)),
    ]
    if integral:
        exp = sorted({(min(int(u), int(v)), max(int(u), int(v))) for u, v in pairs})
        assert all(build().edge_list() == exp for build in builds)
    else:
        for build in builds:
            with pytest.raises(ValueError):
                build()


def test_from_arrays_rejects_bad_arrays():
    with pytest.raises(ValueError, match="64-bit"):
        LocalGraph.from_arrays(np.array([2**63], dtype=np.uint64), np.array([1], dtype=np.uint64))
    with pytest.raises(ValueError, match="equal length"):
        LocalGraph.from_arrays(np.array([1, 2]), np.array([3]))
    with pytest.raises(ValueError, match="1-d"):
        LocalGraph.from_arrays(np.array([[1, 2]]), np.array([[3, 4]]))


def test_from_arrays_empty():
    g = LocalGraph.from_arrays(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert g.n == g.m == 0 and g.edge_list() == [] and g.adj == {}


def test_adjacency_shares_one_id_object_per_vertex():
    """Each vertex id is one int object, shared by its key and every
    neighbor set that holds it (ids above the small-int cache)."""
    g = LocalGraph.from_pairs([(1000 + a, 1000 + b) for a, b in [(0, 1), (1, 2), (2, 0), (2, 3)]])
    objs = {id(v) for v in g.adj} | {id(w) for nb in g.adj.values() for w in nb}
    assert len(objs) == g.n == 4
