"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of the ``repro`` modules with
timing wrappers for the length of a ``with tracer:`` block and puts the
originals back afterwards. A function is patched in its defining module
*and* in every loaded ``repro`` module that imported it by name (for
example ``repro.core.ebbkc.try_early_terminate``), so calls through either
namespace are seen. Nothing under ``src/`` changes.

Spans nest: a wrapped call running inside another adds its duration to the
parent's child time, so a layer's *self* time is its duration minus the
part covered by wrapped calls below it. A call that runs inside no other
span also adds its duration to the layer's *outer* time. ET emissions are counted by
wrapping the ``out`` argument of ``list_cliques_2plex``/``list_cliques_tplex``.

Spark work runs in Python workers, out of reach of these wrappers; for the
Spark side the tracer counts jobs and stages through a job group and the
status tracker, and the computed pickled size of every broadcast.
"""
from __future__ import annotations

import importlib
import inspect
import math
import pickle
import sys
import time
from collections import defaultdict
from functools import wraps

# (defining module, function, span key). Keys name the layer first.
SPANS = (
    ("repro.graph.loader", "collect_local", "loader.collect_local"),
    ("repro.graph.triangles", "local_edge_support", "triangles.local_support"),
    ("repro.graph.truss", "truss_decomposition_from_spark", "triangles.support_df"),
    ("repro.graph.truss", "truss_decomposition", "truss.peel"),
    ("repro.graph.core", "core_decomposition", "core.degen_peel"),
    ("repro.graph.coloring", "subgraph_color_ordering", "coloring.recolor"),
    ("repro.core.ebbkc", "ebbkc_h_top_branch", "ebbkc.top_branch"),
    ("repro.core.vbbkc", "vbbkc_top_branch_vertex", "vbbkc.top_branch"),
    ("repro.core.vbbkc", "vbbkc_top_branch_edge", "vbbkc.top_branch"),
    ("repro.core.etplex", "try_early_terminate", "etplex.check"),
    ("repro.core.etplex", "list_cliques_2plex", "etplex.2plex"),
    ("repro.core.etplex", "list_cliques_tplex", "etplex.tplex"),
    ("repro.core.engine", "prepare", "engine.prepare"),
    ("repro.core.engine", "_units", "engine.units"),
)

# Spans whose ``out`` argument is wrapped to count emitted cliques.
_COUNT_OUT = {"etplex.2plex", "etplex.tplex"}


class Tracer:
    """Spans and counters for one traced repetition.

    Use as a context manager: entering patches the functions in
    :data:`SPANS`, leaving restores them. Totals accumulate across every
    traced call until :meth:`reset`.
    """

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.outer: dict[str, float] = defaultdict(float)  # calls not inside another span
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.unit_s: list[float] = []
        self.own_s = 0.0  # time the tracer itself spent inside spans

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod_name, attr, key in SPANS:
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(orig, key)
            for mod in [m for n, m in list(sys.modules.items()) if n.startswith("repro")]:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    def _wrap(self, fn, key: str):
        out_pos = list(inspect.signature(fn).parameters).index("out") if key in _COUNT_OUT else -1
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kw):
            if out_pos >= 0:
                args = list(args)
                if len(args) > out_pos:
                    args[out_pos] = self._counting(args[out_pos])
                else:
                    kw["out"] = self._counting(kw["out"])
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kw)
            finally:
                d = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += d
                else:
                    self.outer[key] += d
                self.total[key] += d
                self.self_time[key] += d - child
                self.calls[key] += 1
            self._on_result(key, res, d)
            return res

        return wrapper

    def _counting(self, out):
        counts = self.counts

        def counted(c):
            counts["etplex.cliques_emitted"] += 1
            out(c)

        return counted

    def _on_result(self, key: str, res, d: float) -> None:
        if key == "etplex.check" and res:
            self.counts["etplex.hits"] += 1
        elif key == "truss.peel":
            self.counts["truss.edges_peeled"] += len(res.order)
        elif key == "engine.units":
            self.counts["engine.units"] += len(res)
        elif key == "ebbkc.top_branch":
            self.unit_s.append(d)

    # -- Spark ------------------------------------------------------------

    def spark_call(self, sc, label: str, fn):
        """Run ``fn()`` (one Spark-backed API call) under its own job group
        with broadcasts measured. Returns ``(result, seconds)``, where the
        seconds exclude the tracer's own pickling of broadcast values."""
        group = f"kcbench-{label}-{time.monotonic_ns()}"
        orig_broadcast = sc.broadcast

        def broadcast(value):
            t0 = time.perf_counter()
            self.counts["engine.broadcast_bytes"] += len(
                pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            )
            self.own_s += time.perf_counter() - t0
            return orig_broadcast(value)

        before = self.own_s
        sc.setJobGroup(group, label)
        sc.broadcast = broadcast
        try:
            t0 = time.perf_counter()
            res = fn()
            dt = time.perf_counter() - t0 - (self.own_s - before)
        finally:
            del sc.broadcast  # the class method shows through again
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        jobs, stages = _group_jobs(sc, group)
        self.counts["engine.spark_jobs"] += jobs
        self.counts["engine.spark_stages"] += stages
        return res, dt

    # -- report -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced since :meth:`reset`.
        Layers that did not run report 0."""
        t, s, n, c = self.total, self.self_time, self.calls, self.counts
        units = sorted(self.unit_s, reverse=True)
        top = units[: math.ceil(len(units) / 100)]
        et_calls = n["etplex.check"]
        return {
            "loader.collect_local_s": t["loader.collect_local"],
            "loader.collect_local_calls": n["loader.collect_local"],
            "triangles.local_support_s": t["triangles.local_support"],
            "triangles.support_df_s": s["triangles.support_df"],
            "truss.peel_s": s["truss.peel"],
            "truss.edges_peeled": c["truss.edges_peeled"],
            "core.degen_peel_s": t["core.degen_peel"],
            "coloring.recolor_s": t["coloring.recolor"],
            "coloring.recolor_calls": n["coloring.recolor"],
            "ebbkc.top_branch_calls": n["ebbkc.top_branch"],
            "ebbkc.top_branch_self_s": s["ebbkc.top_branch"],
            "ebbkc.unit_max_s": units[0] if units else 0.0,
            "ebbkc.unit_top1pct_share": sum(top) / sum(units) if units else 0.0,
            "vbbkc.top_branch_calls": n["vbbkc.top_branch"],
            "vbbkc.top_branch_self_s": s["vbbkc.top_branch"],
            "etplex.calls": et_calls,
            "etplex.hits": c["etplex.hits"],
            "etplex.hit_ratio": c["etplex.hits"] / et_calls if et_calls else 0.0,
            "etplex.check_s": s["etplex.check"],
            "etplex.2plex_calls": n["etplex.2plex"],
            "etplex.2plex_s": t["etplex.2plex"],
            "etplex.tplex_calls": n["etplex.tplex"],
            "etplex.tplex_s": t["etplex.tplex"],
            "etplex.cliques_emitted": c["etplex.cliques_emitted"],
            "engine.prepare_s": t["engine.prepare"],
            "engine.units": c["engine.units"],
            "engine.broadcast_bytes": c["engine.broadcast_bytes"],
            "engine.spark_jobs": c["engine.spark_jobs"],
            "engine.spark_stages": c["engine.spark_stages"],
        }


def _group_jobs(sc, group: str, timeout_s: float = 10.0) -> tuple[int, int]:
    """(jobs, stages) of a finished job group. The status store is fed by
    an asynchronous listener, so poll until every job reads SUCCEEDED and
    the job count has stopped changing."""
    st = sc.statusTracker()
    deadline = time.monotonic() + timeout_s
    prev = -1
    while True:
        infos = [st.getJobInfo(j) for j in st.getJobIdsForGroup(group)]
        done = all(i is not None and i.status == "SUCCEEDED" for i in infos)
        if (done and len(infos) == prev) or time.monotonic() > deadline:
            return len(infos), sum(len(i.stageIds) for i in infos if i is not None)
        prev = len(infos) if done else -1
        time.sleep(0.05)
