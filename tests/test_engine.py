"""Distributed engine: EP/NP fan-out over the Spark cluster vs brute force."""
import pytest

from repro.core.bruteforce import brute_force_count, brute_force_kcliques, check_cliques
from repro.core.engine import (
    ALGORITHMS,
    count_kcliques,
    list_kcliques,
    run_local,
    structure_bytes,
)
from repro.graph import generators as G
from repro.graph.loader import LocalGraph, to_spark

# Triangle {0, 1, 2} plus the pendant edge 2-3: 4 vertices, 4 edges.
PAW = [(0, 1), (1, 2), (0, 2), (2, 3)]


@pytest.fixture(scope="module")
def graph():
    return G.erdos_renyi(30, 0.35, seed=7)


@pytest.fixture(scope="module")
def edges(spark, graph):
    df = to_spark(spark, graph)
    df.cache().count()
    return df


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_count_matches_brute_force(spark, graph, edges, algo):
    for k in (3, 4, 5):
        assert count_kcliques(spark, edges, k, algo) == brute_force_count(graph, k)


def test_count_with_et(spark, graph, edges):
    assert count_kcliques(spark, edges, 4, "ebbkc-h", et_t=2) == brute_force_count(graph, 4)


def test_count_np_scheme(spark, graph, edges):
    assert count_kcliques(spark, edges, 4, "ddegcol", scheme="np") == brute_force_count(graph, 4)


def test_count_various_task_counts(spark, graph, edges):
    exp = brute_force_count(graph, 4)
    for n_tasks in (1, 2, 8):
        assert count_kcliques(spark, edges, 4, "ebbkc-h", n_tasks=n_tasks) == exp


def test_count_k1_k2(spark, graph, edges):
    assert count_kcliques(spark, edges, 1) == graph.n
    assert count_kcliques(spark, edges, 2) == graph.m


def test_count_distributed_preprocess(spark, graph, edges):
    got = count_kcliques(spark, edges, 4, "ebbkc-t", distributed_preprocess=True)
    assert got == brute_force_count(graph, 4)


def test_list_kcliques_exact(spark, graph, edges):
    rows = list_kcliques(spark, edges, 4, "ebbkc-h").collect()
    got = [tuple(r["clique"]) for r in rows]
    check_cliques(graph, 4, got)


def test_list_kcliques_sorted_members(spark, graph, edges):
    for r in list_kcliques(spark, edges, 3, "bitcol").collect():
        c = list(r["clique"])
        assert c == sorted(c)


def test_list_empty_result(spark):
    g = G.cycle_graph(12)
    df = to_spark(spark, g)
    assert list_kcliques(spark, df, 3, "ebbkc-h").count() == 0


def test_unknown_algorithm_raises(spark, edges):
    with pytest.raises(ValueError):
        count_kcliques(spark, edges, 3, "nope")


def test_bad_scheme_raises(spark, edges):
    with pytest.raises(ValueError):
        count_kcliques(spark, edges, 3, "ddegcol", scheme="xx")


@pytest.mark.parametrize("algo", ["ebbkc-h", "ddegcol", "bitcol"])
def test_run_local_matches_distributed(spark, graph, edges, algo):
    assert run_local(graph, 4, algo) == count_kcliques(spark, edges, 4, algo)


def test_run_local_collect_mode(graph):
    got = run_local(graph, 4, "ebbkc-h", collect=True)
    check_cliques(graph, 4, got)


def test_run_local_all_algorithms_agree(graph):
    counts = {run_local(graph, 5, a, et_t=2) for a in ALGORITHMS}
    assert counts == {brute_force_count(graph, 5)}


def test_structure_bytes_positive(graph):
    for algo in ("ebbkc-h", "ebbkc-c", "ddegcol"):
        b = structure_bytes(graph, algo)
        assert b > 0
    # EBBkC carries the edge-ordering structures -> at least as large as
    # the degeneracy-only payload (paper experiment 8's observation).
    assert structure_bytes(graph, "ebbkc-h") >= structure_bytes(graph, "degen") * 0.5


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_small_k_same_on_every_path(spark, algo):
    """k ≤ 2 lists the vertices / edges on every path: 0, 4, 4 on PAW."""
    g = LocalGraph.from_pairs(PAW)
    df = to_spark(spark, g)
    for k in (0, 1, 2):
        exp = brute_force_kcliques(g, k)
        assert run_local(g, k, algo) == len(exp)
        assert run_local(g, k, algo, collect=True) == exp
        assert count_kcliques(spark, df, k, algo) == len(exp)
        rows = list_kcliques(spark, df, k, algo).collect()
        assert sorted(tuple(r["clique"]) for r in rows) == exp


def test_bad_arguments_raise_before_work(spark, graph, edges):
    for kw in ({"k": -1}, {"k": 3, "et_t": -1}, {"k": 1, "algo": "bogus"}):
        args = {"algo": "ebbkc-h", **kw}
        with pytest.raises(ValueError):
            run_local(graph, **args)
        with pytest.raises(ValueError):
            count_kcliques(spark, edges, **args)
        with pytest.raises(ValueError):
            list_kcliques(spark, edges, **args)
    with pytest.raises(ValueError):
        count_kcliques(spark, edges, 1, "ddegcol", scheme="xx")


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_local_collect_sorted_tuples(graph, algo):
    """Output contract: every collected clique is a tuple sorted ascending
    (ET and the recursions emit members in any order)."""
    got = run_local(graph, 4, algo, et_t=2, collect=True)
    assert all(isinstance(c, tuple) and list(c) == sorted(c) for c in got)
    check_cliques(graph, 4, got)


TRUSS_GRAPHS = [G.erdos_renyi(18, 0.5, seed=s) for s in range(3)] + [
    G.planted_cliques(40, 0.1, [8], seed=4),
    LocalGraph.from_pairs([]),
]


@pytest.mark.parametrize("et_t", [0, 2, 3])
@pytest.mark.parametrize("algo", ["ebbkc-t", "ebbkc-h"])
def test_truss_kernels_match_brute_force(algo, et_t):
    """k = 3, 4 end at the top branch (l = 1, 2); k = 5 recurses."""
    for g in TRUSS_GRAPHS:
        for k in (3, 4, 5):
            exp = brute_force_kcliques(g, k)
            assert run_local(g, k, algo, et_t=et_t) == len(exp)
            assert sorted(run_local(g, k, algo, et_t=et_t, collect=True)) == exp


def test_truss_broadcast_ships_only_the_rank_map(spark, graph, edges, monkeypatch):
    sc = spark.sparkContext
    sent = []
    broadcast = sc.broadcast
    monkeypatch.setattr(sc, "broadcast", lambda v: sent.append(v) or broadcast(v))
    assert count_kcliques(spark, edges, 4, "ebbkc-t") == brute_force_count(graph, 4)
    (payload,) = sent
    assert "adj" not in payload and "order" not in payload
    assert payload["prep"].keys() == {"kind", "nbr_rank"}
    assert payload["prep"]["nbr_rank"].keys() == graph.adj.keys()
