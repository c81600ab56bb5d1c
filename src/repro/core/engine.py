"""Distributed k-clique listing engine.

Follows the paper's parallelization (Section 6.2, experiment 7): the
initial branch at (∅, G, k) yields independent sub-branches — one per
*edge* (EP: EBBkC's natural unit, or VBBkC with the first two branching
steps fused) or per *vertex* (NP). The engine:

1. collects the normalized edge table and computes the algorithm's
   preprocessing on the driver (truss peel / coloring / degeneracy DAG).
   For the truss-ordered EBBkC-T/H that is π_τ of the k-truss only: the
   triangles (numpy, or the distributed triangle dataflow) cut the graph
   to its k-truss, and the sequential peel runs on what is left
   (`repro.graph.truss`),
2. broadcasts the payload `prepare` returns, which is exactly what a
   task reads: for EBBkC-T/H π_τ of the k-truss itself, from which a
   task sweeps its branches (`ebbkc.ebbkc_t_sweep`,
   `ebbkc.ebbkc_h_sweep`; EBBkC-T's task also builds the rank map its
   recursion reads); for EBBkC-C the adjacency, color DAG and colors;
   for VBBkC the adjacency and degeneracy DAG,
3. puts the top-branch unit list and the scheme in the same broadcast.
   A unit's shape is its scheme: an EP unit is an edge (u, v), an NP
   unit a bare vertex v, and an EBBkC-T/H unit a position in π_τ. Only
   units that can hold a k-clique are listed: for EBBkC-T/H the
   positions of the initial branches with |g_i| ≥ k − 2 vertices (the
   truss peel records |g_i|), ascending; for EBBkC-C the color-DAG
   edges that pass Rule (1) at l = k and whose ends share ≥ k − 2
   out-neighbors; for VBBkC the degeneracy-DAG vertices with ≥ k − 1
   out-neighbors (NP) or the arcs whose ends share ≥ k − 2
   out-neighbors (EP). Task ``i`` of ``n_tasks`` takes the stripe
   ``units[i::n_tasks]`` in `_units` order (no cost model; an
   EBBkC-T/H stripe stays ascending, so each task sweeps its own), and
   ``spark.range(n_tasks)`` with one row per partition drives the
   ``mapInPandas`` job, so there is no exchange,
4. runs the pure-Python kernels in that single-stage job; a count call
   collects one partial count per task and the driver sums them, a
   listing call returns the job's DataFrame of cliques. A count call
   counts the branches early termination consumes in closed form
   (`etplex.CliqueCount`) instead of listing their cliques;
   ``closed_form=False`` lists every clique into the counter, which is
   the listing cost the paper's times include.

``run_local`` is the sequential entry point used by the single-thread
experiments (the paper's experiments 1–6 are sequential too); like
``list_kcliques`` it always lists. It runs the same sequence as a Spark
task, `_run_units` over every unit instead of one stripe, with EP units
for EBBkC and NP units for VBBkC (for Degen these are exactly kClist's
whole-graph recursion). This module is the only place that dispatches
on the algorithm. Every entry point lists k ≤ 2 through
`loader.list_small_k`, and every listed clique is a tuple (Spark: an
array) sorted ascending.
"""
from __future__ import annotations

import pickle

import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession

from repro.graph.coloring import color_ordering
from repro.graph.core import degeneracy_dag
from repro.graph.loader import LocalGraph, collect_local, list_small_k
from repro.graph.truss import truss_decomposition, truss_decomposition_from_spark

from . import ebbkc as _e
from . import vbbkc as _v
from .etplex import CliqueCount, Out

EBBKC_ALGOS = ("ebbkc-t", "ebbkc-c", "ebbkc-h")
VBBKC_ALGOS = _v.VARIANTS
ALGORITHMS = EBBKC_ALGOS + VBBKC_ALGOS


def prepare(g: LocalGraph, algo: str, k: int, *, edges_df: DataFrame | None = None):
    """Algorithm preprocessing for k-cliques (the part the paper's
    reported times include), returned as the payload a task reads:
    π_τ (``order``) for EBBkC-T/H, plus the |g_i| of each position
    (``sizes``), which only `_units` reads; the adjacency, color DAG and
    colors (``adj``, ``out``, ``col``) for EBBkC-C; the adjacency and
    degeneracy DAG (``adj``, ``dag_out``, keyed in degeneracy order)
    for VBBkC. The truss-ordered algorithms peel only the k-truss (all
    of ``g`` for k ≤ 2), with the triangles from the distributed
    triangle dataflow over ``edges_df`` (``g`` collected) when it is
    given."""
    if algo in ("ebbkc-t", "ebbkc-h"):
        td = (
            truss_decomposition_from_spark(edges_df, g, k=k)
            if edges_df is not None
            else truss_decomposition(g, k=k)
        )
        return {"order": td.order, "sizes": td.sizes}
    if algo == "ebbkc-c":
        co = color_ordering(g)
        return {"adj": g.adj, "out": co.out, "col": co.col}
    if algo in VBBKC_ALGOS:
        return {"adj": g.adj, "dag_out": degeneracy_dag(g)[1]}
    raise ValueError(f"unknown algorithm {algo!r}")


def _units(algo: str, scheme: str, prep, k: int) -> list:
    """The top-branch units that can hold a k-clique. EBBkC-T/H's are
    positions in π_τ (|g_i| ≥ k − 2), ascending. EBBkC-C's are the
    color-DAG edges u→v that pass Rule (1) at l = k (col u ≥ k,
    col v ≥ k − 1) and have |out(u) ∩ out(v)| ≥ k − 2, in no particular
    order: the DAG already encodes edge exclusion, so its units are
    independent. VBBkC's, in degeneracy order, are the vertices v with
    |N⁺(v)| ≥ k − 1 (NP) or the arcs u→v with |N⁺(u) ∩ N⁺(v)| ≥ k − 2
    (EP) of the degeneracy DAG."""
    if algo in ("ebbkc-t", "ebbkc-h"):
        return _e.initial_branches(prep["sizes"], k)
    if algo == "ebbkc-c":
        co_out, col = prep["out"], prep["col"]
        return [(u, v) for u, nbrs in co_out.items() if col[u] >= k for v in nbrs
                if col[v] >= k - 1 and len(nbrs & co_out[v]) >= k - 2]
    dag_out = prep["dag_out"]
    if scheme == "np":
        return [v for v, nbrs in dag_out.items() if len(nbrs) >= k - 1]
    return [
        (u, v)
        for u, nbrs in dag_out.items()
        for v in nbrs
        if len(nbrs & dag_out[v]) >= k - 2
    ]


def _run_units(
    prep,
    algo: str,
    scheme: str,
    k: int,
    units: list,
    out: Out,
    *,
    et_t: int,
    rule2: bool,
) -> None:
    """Run the kernel for each top-branch unit against sink ``out``: the
    EBBkC-T/H positions, ascending, in one sweep; a vertex v (VBBkC NP)
    or an edge (u, v) (VBBkC EP, EBBkC-C) per call."""
    if algo == "ebbkc-t":
        _e.ebbkc_t_sweep(prep["order"], units, k, out, et_t)
    elif algo == "ebbkc-h":
        _e.ebbkc_h_sweep(prep["order"], units, k, out, et_t, rule2)
    elif algo == "ebbkc-c":
        adj, co_out, col = prep["adj"], prep["out"], prep["col"]
        for u, v in units:
            _e.ebbkc_c_top_branch(co_out, col, adj, u, v, k, out, et_t, rule2)
    else:
        adj, dag_out = prep["adj"], prep["dag_out"]
        if scheme == "np":
            for v in units:
                _v.vbbkc_top_branch_vertex(
                    adj, dag_out, v, k, out, variant=algo, rule2=rule2, et_t=et_t)
        else:
            for u, v in units:
                _v.vbbkc_top_branch_edge(
                    adj, dag_out, u, v, k, out, variant=algo, rule2=rule2, et_t=et_t)


def _check_args(
    k: int, algo: str, et_t: int, scheme: str = "ep", n_tasks: int | None = None
) -> None:
    """Reject bad arguments before any work starts."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if scheme not in ("ep", "np"):
        raise ValueError("scheme must be 'ep' or 'np'")
    if scheme == "np" and algo in EBBKC_ALGOS:
        raise ValueError(f"{algo} branches on edges; scheme 'np' is for VBBkC")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if et_t < 0:
        raise ValueError(f"et_t must be >= 0, got {et_t}")
    if n_tasks is not None and n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")


def _with_sink(run, collect: bool, closed_form: bool = False):
    """Call ``run(out)`` with the engine's sink: the cliques, each a
    tuple sorted ascending, when ``collect``; else their count. A counting
    sink is a `CliqueCount` when ``closed_form``, else its bound
    ``__call__``: that is not a `CliqueCount`, so early termination lists
    every clique into it."""
    if collect:
        cliques: list[tuple[int, ...]] = []
        run(lambda c: cliques.append(tuple(sorted(c))))
        return cliques
    sink = CliqueCount()
    run(sink if closed_form else sink.__call__)
    return sink.n


def _rule2(algo: str, rule2: bool | None) -> bool:
    """Rule (2) defaults to on for color-pruned EBBkC and off for VBBkC
    (where on gives the paper's "+" ablation variants)."""
    return rule2 if rule2 is not None else algo in ("ebbkc-c", "ebbkc-h")


def run_local(
    g: LocalGraph,
    k: int,
    algo: str = "ebbkc-h",
    *,
    et_t: int = 0,
    rule2: bool | None = None,
    collect: bool = False,
):
    """Sequential end-to-end run on the driver: every unit (EP for EBBkC,
    NP for VBBkC) in one sequence.

    Returns the clique count, or, when ``collect``, the list of cliques,
    each a tuple sorted ascending. ``rule2`` defaults as in `_rule2`.
    """
    _check_args(k, algo, et_t)

    def run(out: Out) -> None:
        if list_small_k(g, k, out):
            return
        prep = prepare(g, algo, k)
        scheme = "ep" if algo in EBBKC_ALGOS else "np"
        units = _units(algo, scheme, prep, k)
        _run_units(prep, algo, scheme, k, units, out,
                   et_t=et_t, rule2=_rule2(algo, rule2))

    return _with_sink(run, collect)


def _task_iterator_factory(bc, collect: bool):
    """Build the mapInPandas worker: for each task id ``i`` it reads, it
    runs the kernels over the stripe ``units[i::n_tasks]`` of the
    broadcast unit list against the broadcast `prepare` payload, into
    the `_with_sink` sink (closed-form counting when the broadcast says
    ``closed_form``)."""

    def fn(batches):
        p = bc.value
        prep, algo, scheme, k, units, n_tasks = (
            p["prep"], p["algo"], p["scheme"], p["k"], p["units"], p["n_tasks"])
        opts = {"et_t": p["et_t"], "rule2": p["rule2"]}
        for pdf in batches:
            for i in pdf["id"].tolist():
                res = _with_sink(
                    lambda out: _run_units(prep, algo, scheme, k, units[i::n_tasks], out, **opts),
                    collect, p["closed_form"],
                )
                if collect:
                    yield pd.DataFrame({"clique": pd.Series(res, dtype="object")})
                else:
                    yield pd.DataFrame({"n": [res]})

    return fn


def _distribute(
    spark: SparkSession,
    edges: DataFrame,
    k: int,
    algo: str,
    *,
    scheme: str,
    n_tasks: int | None,
    et_t: int,
    rule2: bool | None,
    collect: bool,
    distributed_preprocess: bool,
    closed_form: bool = False,
) -> tuple[DataFrame, Broadcast | None]:
    """Build the k-clique job: DataFrame[clique] when ``collect``, else
    DataFrame[n] with one partial count per task, plus the broadcast it
    reads (None for k ≤ 2, which is answered on the driver)."""
    _check_args(k, algo, et_t, scheme, n_tasks)
    g = collect_local(edges)
    schema = "clique array<long>" if collect else "n long"
    if k <= 2:
        res = run_local(g, k, algo, collect=collect)
        rows = [(list(c),) for c in res] if collect else [(res,)]
        return spark.createDataFrame(rows, schema=schema), None
    prep = prepare(g, algo, k, edges_df=edges if distributed_preprocess else None)
    units = _units(algo, scheme, prep, k)
    prep.pop("sizes", None)
    sc = spark.sparkContext
    n_tasks = n_tasks if n_tasks is not None else sc.defaultParallelism
    bc = sc.broadcast(
        {
            "prep": prep,
            "units": units,
            "n_tasks": n_tasks,
            "algo": algo,
            "scheme": scheme,
            "k": k,
            "et_t": et_t,
            "rule2": _rule2(algo, rule2),
            "closed_form": closed_form,
        }
    )
    job = spark.range(0, n_tasks, 1, n_tasks).mapInPandas(
        _task_iterator_factory(bc, collect), schema=schema
    )
    return job, bc


def count_kcliques(
    spark: SparkSession,
    edges: DataFrame,
    k: int,
    algo: str = "ebbkc-h",
    *,
    scheme: str = "ep",
    n_tasks: int | None = None,
    et_t: int = 0,
    rule2: bool | None = None,
    distributed_preprocess: bool = False,
    closed_form: bool = True,
) -> int:
    """Distributed k-clique count. ``scheme`` picks EP or NP top-branch
    units for VBBkC algorithms (EBBkC is edge-parallel by nature and
    rejects ``"np"``). The driver sums the per-task counts and then
    frees the broadcast.

    With ``closed_form`` (the default) a branch that early termination
    consumes adds its clique count in O(l) arithmetic (kC2Plex) or by
    kCtPlex's branching with C(|I|, l₂) for the all-adjacent set, and
    lists nothing. ``closed_form=False`` lists every clique into the
    counter, the listing cost `run_local` and `list_kcliques` pay
    (experiments 7 and 9 time that)."""
    job, bc = _distribute(
        spark, edges, k, algo, scheme=scheme, n_tasks=n_tasks, et_t=et_t,
        rule2=rule2, collect=False,
        distributed_preprocess=distributed_preprocess, closed_form=closed_form,
    )
    try:
        return sum(r["n"] for r in job.collect())
    finally:
        if bc is not None:
            bc.destroy()


def list_kcliques(
    spark: SparkSession,
    edges: DataFrame,
    k: int,
    algo: str = "ebbkc-h",
    *,
    scheme: str = "ep",
    n_tasks: int | None = None,
    et_t: int = 0,
    rule2: bool | None = None,
    distributed_preprocess: bool = False,
) -> DataFrame:
    """Distributed k-clique listing → DataFrame[clique: array<long>],
    each clique sorted ascending. The DataFrame is lazy and reads its
    broadcast every time it runs, so the broadcast stays alive."""
    return _distribute(
        spark, edges, k, algo, scheme=scheme, n_tasks=n_tasks, et_t=et_t,
        rule2=rule2, collect=True,
        distributed_preprocess=distributed_preprocess,
    )[0]


def structure_bytes(g: LocalGraph, algo: str) -> int:
    """Pickled size of the k-independent structures a task holds for
    ``algo`` (experiment 8's space proxy): the `prepare` payload the
    engine broadcasts, with the whole graph's π_τ (k = 0, no cut) rather
    than the k-truss part one call ships, plus, for EBBkC-T/H, the
    adjacency their sweep builds from π_τ (``rem`` before the first
    deletion) and, for EBBkC-T, the rank map its recursion reads."""
    prep = prepare(g, algo, 0)
    prep.pop("sizes", None)
    n = len(pickle.dumps({"prep": prep}))
    if "adj" not in prep:
        n += len(pickle.dumps(g.adj))
    if algo == "ebbkc-t":
        n += len(pickle.dumps(_e.rank_map(prep["order"], 0)))
    return n
