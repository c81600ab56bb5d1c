"""Distributed engine: EP/NP fan-out over the Spark cluster vs brute force."""
import pickle
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bruteforce import brute_force_count, brute_force_kcliques, check_cliques
from repro.core.engine import (
    ALGORITHMS,
    VBBKC_ALGOS,
    _run_units,
    _units,
    count_kcliques,
    list_kcliques,
    prepare,
    run_local,
    structure_bytes,
)
from repro.core.etplex import CliqueCount
from repro.graph import generators as G
from repro.graph.loader import LocalGraph, collect_local, list_small_k, to_spark
from repro.graph.truss import truss_decomposition

from .test_properties import graphs, near_complete_graphs, relabelled

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
    for algo in ("ebbkc-t", "ebbkc-h", "ebbkc-c", "ddegcol"):
        b = structure_bytes(graph, algo)
        assert b > 0
    # EBBkC-T holds what EBBkC-H holds (π_τ and the sweep's adjacency)
    # plus the rank map its recursion reads, here from position 0.
    nr: dict[int, dict[int, int]] = {}
    for i, (u, v) in enumerate(truss_decomposition(graph).order):
        nr.setdefault(u, {})[v] = i
        nr.setdefault(v, {})[u] = i
    assert structure_bytes(graph, "ebbkc-t") == (
        structure_bytes(graph, "ebbkc-h") + len(pickle.dumps(nr)))
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
    # No silent fallback: n_tasks < 1 is not defaultParallelism, and
    # EBBkC has no vertex (NP) units.
    for kw in ({"n_tasks": 0}, {"n_tasks": -2}, {"scheme": "np"}):
        with pytest.raises(ValueError):
            count_kcliques(spark, edges, 3, "ebbkc-h", **kw)
        with pytest.raises(ValueError):
            list_kcliques(spark, edges, 3, "ebbkc-t", **kw)


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


@pytest.mark.parametrize("algo", ["ebbkc-t", "ebbkc-h"])
def test_sweep_broadcast_ships_only_the_order_suffix(spark, graph, edges, monkeypatch, algo):
    """A truss-ordered call ships π_τ of the k-truss, which `prepare`
    peels (and, by `test_broadcast_ships_the_task_payload`, nothing
    else). The units are the positions with |g_i| ≥ k − 2, and the
    shipped order holds every edge of every k-clique."""
    sc = spark.sparkContext
    sent = []
    broadcast = sc.broadcast
    monkeypatch.setattr(sc, "broadcast", lambda v: sent.append(v) or broadcast(v))
    g = collect_local(edges)
    for k in (3, 4, 5):
        td = truss_decomposition(g, k=k)
        exp = brute_force_kcliques(graph, k)
        assert count_kcliques(spark, edges, k, algo) == len(exp)
        payload = sent.pop()
        units = [i for i, s in enumerate(td.sizes) if s >= k - 2]
        assert payload["units"] == units
        assert units[0] == 0  # the cut peel starts at a unit
        assert payload["prep"]["order"] == td.order
        shipped = set(payload["prep"]["order"])
        for c in exp:
            assert set(combinations(c, 2)) <= shipped
    # at k = 5 the k-truss is a proper part of the graph
    assert len(payload["prep"]["order"]) < g.m


# The `prepare` keys a task reads, per algorithm: no `sizes`, no tag.
PAYLOAD_KEYS = {"ebbkc-t": {"order"}, "ebbkc-h": {"order"}, "ebbkc-c": {"adj", "out", "col"}}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_broadcast_ships_the_task_payload(spark, graph, edges, monkeypatch, algo):
    """The broadcast carries exactly the payload a task reads: π_τ
    alone for EBBkC-T/H (no adjacency, rank map or sizes), the
    adjacency + color DAG + colors for EBBkC-C, the adjacency +
    degeneracy DAG for VBBkC, next to the units and the scheme they
    are in."""
    sc = spark.sparkContext
    sent = []
    broadcast = sc.broadcast
    monkeypatch.setattr(sc, "broadcast", lambda v: sent.append(v) or broadcast(v))
    for scheme in ("ep",) if algo in PAYLOAD_KEYS else ("ep", "np"):
        assert count_kcliques(spark, edges, 4, algo, scheme=scheme) == brute_force_count(graph, 4)
        (payload,) = sent
        sent.clear()
        assert payload["prep"].keys() == PAYLOAD_KEYS.get(algo, {"adj", "dag_out"})
        assert payload["scheme"] == scheme
        assert payload.keys() == {
            "prep", "units", "n_tasks", "algo", "scheme", "k", "et_t", "rule2", "closed_form"}


def test_ebbkc_h_early_terminates_at_l_2(graph, monkeypatch):
    """At k = 4 EBBkC-H's initial branches have l = 2, and those that
    are 2-plexes still end in kC2Plex."""
    from repro.core import etplex

    ls = []
    orig = etplex.list_cliques_2plex

    def spy(s, verts, adj, l, out):
        ls.append(l)
        orig(s, verts, adj, l, out)

    monkeypatch.setattr(etplex, "list_cliques_2plex", spy)
    check_cliques(graph, 4, run_local(graph, 4, "ebbkc-h", et_t=2, collect=True))
    assert ls and set(ls) == {2}


def test_ebbkc_h_lists_l_2_branches_without_recolouring(graph, monkeypatch):
    """At k = 4 (l = 2) EBBkC-H re-colours no branch, with or without ET,
    and still lists exactly the k-cliques; at k = 5 it does re-colour,
    which shows the spy sees the calls."""
    from repro.core import ebbkc

    calls = []
    orig = ebbkc.subgraph_color_ordering

    def spy(adj):
        calls.append(len(adj))
        return orig(adj)

    monkeypatch.setattr(ebbkc, "subgraph_color_ordering", spy)
    for et_t in (0, 2):
        check_cliques(graph, 4, run_local(graph, 4, "ebbkc-h", et_t=et_t, collect=True))
        assert calls == []
    assert run_local(graph, 5, "ebbkc-h") == brute_force_count(graph, 5)
    assert calls


@given(
    g=st.one_of(graphs(), near_complete_graphs()),
    et_t=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_ebbkc_h_k4_matches_brute_force(g, et_t):
    """EBBkC-H at k = 4, where every initial branch has l = 2 and either
    ET or the pair listing ends it: count and listing are brute force's."""
    check_cliques(g, 4, run_local(g, 4, "ebbkc-h", et_t=et_t, collect=True))
    assert run_local(g, 4, "ebbkc-h", et_t=et_t) == brute_force_count(g, 4)


# Graphs with small ids from 0, and the same with ids drawn from all of
# Spark's long, negative and large ones included.
ANY_IDS = st.one_of(graphs(), relabelled(graphs()))

# (algo, scheme): EP for every algorithm here, NP for the VBBkC ones.
FANOUTS = [(a, "ep") for a in ("ebbkc-t", "ebbkc-c", "ebbkc-h", "ddegcol", "bitcol")] + [
    (a, "np") for a in ("ddegcol", "bitcol")
]


@pytest.mark.parametrize("algo,scheme", FANOUTS, ids=[f"{a}-{s}" for a, s in FANOUTS])
@given(
    g=ANY_IDS,
    k=st.integers(min_value=0, max_value=6),
    n_tasks=st.sampled_from([1, 3, 9]),
    et_t=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=3, deadline=None)
def test_fanout_matches_brute_force(spark, algo, scheme, g, k, n_tasks, et_t):
    """Every stripe of the unit list is run exactly once: count and list
    agree with brute force at 1 task, 3 tasks and more tasks than cores
    (and, on small graphs, than units), with early termination on or
    off, for k ≤ 2 too and for any ids."""
    exp = brute_force_kcliques(g, k)
    df = to_spark(spark, g)
    kw = {"scheme": scheme, "n_tasks": n_tasks, "et_t": et_t}
    assert count_kcliques(spark, df, k, algo, **kw) == len(exp)
    rows = list_kcliques(spark, df, k, algo, **kw).collect()
    assert sorted(tuple(r["clique"]) for r in rows) == sorted(exp)


@pytest.mark.parametrize("algo", ["ebbkc-h", "ddegcol"])
def test_empty_stripes(spark, algo):
    """More tasks than units: the empty stripes add 0 to the count and no
    rows to the typed listing."""
    # 9 tasks; K4 at k = 3 has 3 EBBkC-H units (|g_i| ≥ 1) and 6 DDegCol ones.
    k4 = to_spark(spark, G.complete_graph(4))
    assert count_kcliques(spark, k4, 3, algo, n_tasks=9) == 4
    assert len(list_kcliques(spark, k4, 3, algo, n_tasks=9).collect()) == 4
    c6 = to_spark(spark, G.cycle_graph(6))
    assert count_kcliques(spark, c6, 3, algo, n_tasks=9) == 0
    df = list_kcliques(spark, c6, 3, algo, n_tasks=9)
    assert df.schema.simpleString() == "struct<clique:array<bigint>>"
    assert df.collect() == []


@pytest.mark.parametrize("algo", ["ebbkc-t", "ebbkc-h"])
def test_truss_units_at_k_max(spark, algo):
    """At k = k_max (= τ + 2) the planted clique's units find it; at
    k_max + 1 no initial branch can hold a k-clique, so no unit survives:
    the count is 0 and the listing a typed empty frame."""
    g = G.planted_cliques(24, 0.1, [6], seed=3)
    k_max = truss_decomposition(g).k_max
    assert len(brute_force_kcliques(g, k_max)) == 1
    assert _units(algo, "ep", prepare(g, algo, k_max + 1), k_max + 1) == []
    df = to_spark(spark, g)
    for k in (k_max, k_max + 1):
        exp = brute_force_kcliques(g, k)
        for n_tasks in (1, 3):
            assert count_kcliques(spark, df, k, algo, n_tasks=n_tasks) == len(exp)
            rows = list_kcliques(spark, df, k, algo, n_tasks=n_tasks)
            assert rows.schema.simpleString() == "struct<clique:array<bigint>>"
            assert sorted(tuple(r["clique"]) for r in rows.collect()) == exp


def _group_job_count(sc, group: str, timeout_s: float = 10.0) -> int:
    """Jobs of a finished job group; the status store is fed by an
    asynchronous listener, so poll until the count is done and steady."""
    st_ = sc.statusTracker()
    deadline = time.monotonic() + timeout_s
    prev = -1
    while True:
        infos = [st_.getJobInfo(j) for j in st_.getJobIdsForGroup(group)]
        done = all(i is not None and i.status == "SUCCEEDED" for i in infos)
        if (done and len(infos) == prev) or time.monotonic() > deadline:
            return len(infos)
        prev = len(infos) if done else -1
        time.sleep(0.05)


def test_one_single_stage_job_per_call(spark, graph, edges):
    """The fan-out has no exchange, and a count is the edge collect plus
    one job."""
    df = list_kcliques(spark, edges, 4, "ebbkc-h", n_tasks=3)
    check_cliques(graph, 4, [tuple(r["clique"]) for r in df.collect()])
    assert "Exchange" not in df._jdf.queryExecution().executedPlan().toString()
    sc = spark.sparkContext
    group = f"test-count-jobs-{time.monotonic_ns()}"
    sc.setJobGroup(group, group)
    try:
        got = count_kcliques(spark, edges, 4, "ebbkc-h", n_tasks=4)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert got == brute_force_count(graph, 4)
    assert _group_job_count(sc, group) <= 2


def test_count_frees_its_broadcast(spark, graph, edges, monkeypatch):
    sc = spark.sparkContext
    sent = []
    broadcast = sc.broadcast
    monkeypatch.setattr(sc, "broadcast", lambda v: sent.append(broadcast(v)) or sent[-1])
    assert count_kcliques(spark, edges, 4, "ddegcol", n_tasks=2) == brute_force_count(graph, 4)
    (bc,) = sent
    assert not bc._jbroadcast.isValid()


# Every unit-based algorithm: EP units for all, NP units for VBBkC too.
UNIT_RUNS = [(a, "ep") for a in ("ebbkc-t", "ebbkc-c", "ebbkc-h")] + [
    (a, s) for a in ("degen", "ddegree", "ddegcol", "sdegree", "bitcol") for s in ("ep", "np")
]


@pytest.mark.parametrize("algo,scheme", UNIT_RUNS, ids=[f"{a}-{s}" for a, s in UNIT_RUNS])
@given(
    g=st.one_of(graphs(max_n=16), near_complete_graphs(), relabelled(graphs(max_n=16))),
    k=st.integers(min_value=3, max_value=8),
    et_t=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=20, deadline=None)
def test_count_mode_matches_listing(algo, scheme, g, k, et_t):
    """The kernels the Spark worker runs: a CliqueCount sink (closed-form
    early termination) counts exactly what a listing sink lists, and
    both match brute force."""
    exp = brute_force_kcliques(g, k)
    prep = prepare(g, algo, k)
    units = _units(algo, scheme, prep, k)
    opts = {"et_t": et_t, "rule2": algo in ("ebbkc-c", "ebbkc-h")}
    listed: list[tuple[int, ...]] = []
    _run_units(prep, algo, scheme, k, units, listed.append, **opts)
    assert sorted(tuple(sorted(c)) for c in listed) == exp
    sink = CliqueCount()
    _run_units(prep, algo, scheme, k, units, sink, **opts)
    assert sink.n == len(exp)


VBBKC_UNIT_RUNS = [(a, s) for a in VBBKC_ALGOS for s in ("ep", "np")] + [("ebbkc-c", "ep")]


@pytest.mark.parametrize("algo,scheme", VBBKC_UNIT_RUNS, ids=[f"{a}-{s}" for a, s in VBBKC_UNIT_RUNS])
@given(
    g=st.one_of(graphs(max_n=16), near_complete_graphs(), relabelled(graphs(max_n=16))),
    k=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_vbbkc_units_drop_only_clique_free_branches(algo, scheme, g, k):
    """The VBBkC and EBBkC-C units the driver keeps list every k-clique
    (k ≤ 2 goes to `list_small_k`, as in every entry point), and every
    unit it drops lists none: a VBBkC vertex with too few out-neighbors,
    a VBBkC arc or an EBBkC-C color-DAG edge whose ends share too few
    out-neighbors, or an EBBkC-C edge that fails Rule (1)."""
    got: list[tuple[int, ...]] = []
    if not list_small_k(g, k, got.append):
        prep = prepare(g, algo, k)
        units = _units(algo, scheme, prep, k)
        _run_units(prep, algo, scheme, k, units, got.append, et_t=0, rule2=False)
        dag = prep["out"] if algo == "ebbkc-c" else prep["dag_out"]
        every = list(dag) if scheme == "np" else [(u, v) for u in dag for v in dag[u]]
        kept = set(units)
        dropped = [x for x in every if x not in kept]
        none: list[tuple[int, ...]] = []
        _run_units(prep, algo, scheme, k, dropped, none.append, et_t=0, rule2=False)
        assert none == []
    assert sorted(tuple(sorted(c)) for c in got) == brute_force_kcliques(g, k)


@pytest.fixture(scope="module")
def negative_ids():
    """ER(30, 0.4, seed 3) with every id shifted by −100."""
    g = G.erdos_renyi(30, 0.4, seed=3)
    return LocalGraph.from_arrays(g.us - 100, g.vs - 100)


@pytest.fixture(scope="module")
def negative_id_edges(spark, negative_ids):
    df = to_spark(spark, negative_ids)
    df.cache().count()
    return df


@pytest.mark.parametrize("algo,scheme", UNIT_RUNS, ids=[f"{a}-{s}" for a, s in UNIT_RUNS])
def test_negative_ids(spark, negative_ids, negative_id_edges, algo, scheme):
    """Negative ids are vertices like any other: an EP unit whose second
    vertex is negative is still an edge, on count and list alike."""
    exp = brute_force_kcliques(negative_ids, 4)
    assert min(min(c) for c in exp) < 0
    assert count_kcliques(spark, negative_id_edges, 4, algo, scheme=scheme) == len(exp)
    rows = list_kcliques(spark, negative_id_edges, 4, algo, scheme=scheme).collect()
    assert sorted(tuple(r["clique"]) for r in rows) == exp


def test_count_closed_form_on_spark(spark):
    """On a dense graph, where early termination meets cliques, 2-plexes
    with pairs and (at et_t = 3) 3-plexes with a non-empty all-adjacent
    set, the closed-form count, the listed count and brute force agree."""
    g = G.random_t_plex(16, 4, seed=3)  # 317 5-cliques
    df = to_spark(spark, g)
    exp = brute_force_count(g, 5)
    for n_tasks in (1, 3):
        for et_t in (2, 3):
            kw = {"n_tasks": n_tasks, "et_t": et_t}
            assert count_kcliques(spark, df, 5, closed_form=True, **kw) == exp
            assert count_kcliques(spark, df, 5, closed_form=False, **kw) == exp
