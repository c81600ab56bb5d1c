"""k-clique benchmark: seeded workloads against the public engine API.

Run from the repository root::

    python3 kcbench/run.py --workload sparse-k4 --seed 1 --seconds 30 --trace 0

Each workload generates its graph with ``repro.graph.generators`` under a
fixed generator seed (``GraphSpec.graph_seed``), then draws ``REPLICAS``
random vertex relabellings from ``--seed``; the program only sees the
relabelled graphs. Relabelling keeps the clique count, so every seed has
the same known answer (``GraphSpec.expected``) and a comparable amount of
work, while ids, set iteration orders and the tie-breaks of the peels
change.

Two cells are timed per workload. Repetitions alternate the cell order and
cycle through the replicas until ``--seconds`` have passed; a fixed probe
(``Probe``) is timed before every cell. On a shared host, CPU-bound code
runs up to 1.6x slower in phases that last from seconds to minutes, so
each time is reported at a reference speed: the mean of the cell's
fastest half of repetitions and the Spark parts of the set-up are scaled
by the workload's ``probe_ref_s`` over the mean of the fastest half of
the run's probes, and the graph-build part of the set-up is the median of
the builds, each scaled by the probe just before it (README.md,
"Statistic"). Every result is checked against the known count.
``--trace 1`` instead alternates untraced and traced repetitions and
reports the per-layer split (see ``tracing.py``) with the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
N_TASKS = min(4, len(os.sched_getaffinity(0)))
REPLICAS = 5  # relabelled copies of the graph per run
SETUP_BUILDS = 20  # graph builds timed for ``setup_s``; the first REPLICAS are kept
SAMPLE_ROWS = 200  # listed rows re-verified as cliques against the adjacency
PROBE_SEED = 1  # seed of the probe's own graph (``Probe``)


@dataclass(frozen=True)
class GraphSpec:
    generator: str  # function name in repro.graph.generators
    params: dict
    graph_seed: int
    k: int
    et_t: int
    expected: int  # k-clique count, found with run_local DDegCol and EBBkC-H
    smoke_params: dict
    smoke_k: int
    smoke_expected: int
    # Fastest ``Probe`` time for this graph's size on the 4-vCPU VM the
    # benchmark was written on: reported times are scaled to that speed.
    # 0 for a graph that only the traced run uses, which reports raw times.
    probe_ref_s: float = 0.0


# cn stand-in (dataset registry: chung_lu(2500, ...), seed 107), scaled to 1800 vertices.
CN = GraphSpec("chung_lu", dict(n=1800, gamma=2.2, avg_deg=10), 107, 12, 3, 651709,
               dict(n=300, gamma=2.2, avg_deg=10), 6, 26908, 0.0377)
SPARSE = GraphSpec("chung_lu", dict(n=3000, gamma=2.2, avg_deg=8), 7, 4, 2, 273285,
                   dict(n=400, gamma=2.2, avg_deg=8), 4, 16877, 0.0530)
# wp stand-in (registry seed 119, planted 44-clique) on a 2000-vertex background.
WP = GraphSpec("planted_cliques", dict(n=2000, p_background=0.002, clique_sizes=[44, 32]),
               119, 40, 3, 135751, dict(n=150, p_background=0.02, clique_sizes=[12, 8]), 10, 66)

WORKLOADS = {"sparse-k4": ("local", SPARSE), "spark-count": ("spark", CN)}


@dataclass
class Inputs:
    graphs: list  # relabelled replicas of the generated graph
    k: int
    et_t: int
    ref: int  # the known k-clique count
    edges: list | None = None  # cached Spark edge tables, one per replica


@dataclass
class Cell:
    metric: str  # the metric the cell's time is reported as
    label: str  # what is timed, by its name in README.md
    call: Callable[[int], Any]  # replica index -> result
    check: Callable[[Any, int], str | None]  # None when the result is right
    spark: bool = False


class Tally:
    """Checked cells and failures; a crash or a wrong result is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            print(f"FAILED {label}: {error}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def build_graphs(spec: GraphSpec, seed: int, smoke: bool,
                 probe: Probe | None = None) -> tuple[list, list[float]]:
    """Generate the graph and relabel the copy with a permutation drawn from
    ``seed``, once per replica; returns the copies and the build times.
    With ``probe``, the build is timed ``SETUP_BUILDS`` times (later copies
    are dropped), the host is probed before every build and each build
    time is scaled by the probe taken just before it."""
    import numpy as np
    from repro.graph import generators
    from repro.graph.loader import LocalGraph

    rng = np.random.default_rng(seed)
    graphs, secs = [], []
    for _ in range(REPLICAS if probe is None else SETUP_BUILDS):
        if probe is not None:
            probe()
        gc.collect()
        t0 = time.perf_counter()
        g = getattr(generators, spec.generator)(
            **(spec.smoke_params if smoke else spec.params), seed=spec.graph_seed)
        ids = g.vertices
        label = dict(zip(ids, rng.permutation(4 * len(ids))[: len(ids)].tolist()))
        copy = LocalGraph.from_pairs((label[u], label[v]) for u, v in g.edge_list())
        dt = time.perf_counter() - t0
        if len(graphs) < REPLICAS:
            graphs.append(copy)
        secs.append(dt if probe is None else dt * probe.ref_s / probe.times[-1])
    return graphs, secs


def prepare_inputs(spec: GraphSpec, seed: int, smoke: bool, setup: dict[str, float],
                   spark=None, probe: Probe | None = None) -> Inputs:
    """Graphs and (with ``spark``) cached edge tables; the set-up times go
    into ``setup``. Graph builds are scaled by ``probe`` when one is given;
    the Spark parts are raw."""
    graphs, gen_s = build_graphs(spec, seed, smoke, probe)
    setup["graph"] = setup.get("graph", 0.0) + statistics.median(gen_s)
    k, ref = (spec.smoke_k, spec.smoke_expected) if smoke else (spec.k, spec.expected)
    print(f"# {spec.generator}(seed={spec.graph_seed}) relabel seed={seed}: n={graphs[0].n} "
          f"m={graphs[0].m} k={k} cliques={ref}; graph builds: "
          + " ".join(f"{x:.4f}" for x in gen_s), flush=True)
    inputs = Inputs(graphs, k, spec.et_t, ref)
    if spark is not None:
        from repro.graph.loader import to_spark

        inputs.edges, edge_s = [], []
        for g in graphs:
            t0 = time.perf_counter()
            inputs.edges.append(to_spark(spark, g).cache())
            inputs.edges[-1].count()
            edge_s.append(time.perf_counter() - t0)
        setup["edge_table"] = setup.get("edge_table", 0.0) + statistics.median(edge_s)
    return inputs


def start_spark(tmp: Path):
    """Local Spark with the test-suite settings; workers import ``repro``
    from this checkout's ``src`` and scratch files stay under ``tmp``."""
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{N_TASKS}]",
        "--driver-memory 2g",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("kcbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM, and with it the Python
    workers it started, to exit."""
    from pyspark import SparkContext

    spark.stop()
    proc = getattr(SparkContext._gateway, "proc", None)
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# --------------------------------------------------------------------------
# Checks and cells
# --------------------------------------------------------------------------


def check_count(ref: int):
    return lambda n, i: None if n == ref else f"count {n} != reference {ref}"


def check_rows(inp: Inputs, seed: int):
    """Exact row count, distinct rows after sorting, k distinct ids per row,
    and a seeded sample of rows verified as cliques of the replica."""

    def check(rows, i: int) -> str | None:
        rows = [tuple(sorted(r)) for r in rows]
        if len(rows) != inp.ref:
            return f"{len(rows)} rows != reference {inp.ref}"
        if len(set(rows)) != len(rows):
            return "duplicate cliques"
        if any(len(set(r)) != inp.k for r in rows):
            return f"a row without {inp.k} distinct vertices"
        g = inp.graphs[i]
        for r in random.Random(seed).sample(rows, min(SAMPLE_ROWS, len(rows))):
            if any(not g.has_edge(a, b) for j, a in enumerate(r) for b in r[j + 1:]):
                return f"row {r} is not a clique"
        return None

    return check


def make_cells(kind: str, inp: Inputs, spark=None) -> list[Cell]:
    from repro.core.engine import count_kcliques, run_local

    k, t, ok = inp.k, inp.et_t, check_count(inp.ref)
    if kind == "local":
        return [
            Cell("ebbkc_h_s", "ebbkc_h_s", lambda i: run_local(inp.graphs[i], k, "ebbkc-h", et_t=t), ok),
            Cell("baseline_s", "ddegcol_s", lambda i: run_local(inp.graphs[i], k, "ddegcol"), ok),
        ]
    return [
        Cell("ebbkc_h_s", "spark_ntask_s", lambda i: count_kcliques(
            spark, inp.edges[i], k, "ebbkc-h", n_tasks=N_TASKS, et_t=t), ok, spark=True),
        Cell("baseline_s", "spark_1task_s", lambda i: count_kcliques(
            spark, inp.edges[i], k, "ebbkc-h", n_tasks=1, et_t=t), ok, spark=True),
    ]


def trace_only_cells(inp: Inputs, wp: Inputs, seed: int, spark) -> list[Cell]:
    """Extra cells of the traced Spark run: the count cell in-process, for
    the kernel split the Spark workers hide, and the listing path with the
    Spark triangle/support dataflow on the wp stand-in."""
    from repro.core.engine import list_kcliques, run_local

    return [
        Cell("kernel_s", "kernel_s",
             lambda i: run_local(inp.graphs[i], inp.k, "ebbkc-h", et_t=inp.et_t),
             check_count(inp.ref)),
        Cell("spark_list_s", "spark_list_s", lambda i: list_kcliques(
            spark, wp.edges[i], wp.k, "ebbkc-h", et_t=wp.et_t, distributed_preprocess=True,
        ).toPandas()["clique"].tolist(), check_rows(wp, seed), spark=True),
    ]


def timed(cell: Cell, i: int, tally: Tally, tracer=None, sc=None) -> tuple[float | None, Any]:
    """Run one cell on replica ``i``; returns (seconds, or None when the
    cell failed, and the result)."""
    gc.collect()
    try:
        if tracer is not None and cell.spark:
            res, dt = tracer.spark_call(sc, cell.label, lambda: cell.call(i))
        else:
            t0 = time.perf_counter()
            res = cell.call(i)
            dt = time.perf_counter() - t0
        err = cell.check(res, i)
    except Exception as e:  # a crashing cell is a failed cell, never dropped
        traceback.print_exc()
        res, err = None, f"{type(e).__name__}: {e}"
    tally.record(cell.label, err)
    return (None if err else dt), res


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def fast_half(xs: list[float]) -> float:
    """Mean of the fastest half of ``xs`` (at least one value): steadier
    than the fastest alone, and still clear of the slow phases."""
    xs = sorted(xs)
    return statistics.fmean(xs[: max(1, len(xs) // 2)])


class Probe:
    """Fixed work that measures how fast the host runs: the per-edge
    support loop of the kernels (one set intersection per edge) over a
    Chung-Lu graph with the workload's parameters. The benchmark draws
    that graph itself, with Python's ``random`` under ``PROBE_SEED``, and
    keeps it in its own ``dict[int, set[int]]``; neither the data nor the
    loop comes from the program, so no change to the program moves it.
    Its fastest times in a phase measure how fast the host ran then."""

    def __init__(self, params: dict, ref_s: float) -> None:
        n, gamma, avg_deg = params["n"], params["gamma"], params["avg_deg"]
        rnd = random.Random(PROBE_SEED)
        w = [(i + 1) ** (-1.0 / (gamma - 1.0)) for i in range(n)]
        tries = 3 * int(avg_deg * n / 2)
        self.adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for u, v in zip(rnd.choices(range(n), w, k=tries), rnd.choices(range(n), w, k=tries)):
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.edges = [(u, v) for u, nb in self.adj.items() for v in nb if u < v]
        self.ref_s = ref_s
        self.times: list[float] = []

    def __call__(self) -> None:
        gc.collect()
        adj, n = self.adj, 0
        t0 = time.perf_counter()
        for u, v in self.edges:
            n += len(adj[u] & adj[v])
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor from raw times to the reference speed, from the fastest
        half of the probes so far."""
        return self.ref_s / fast_half(self.times)


def measure(cells: list[Cell], seconds: float, tally: Tally,
            probe: Probe) -> dict[str, list[tuple[float, float]]]:
    """Repeat the cells until ``seconds`` pass, alternating their order,
    cycling through the replicas and probing the host before every cell.
    Returns, per metric, (cell time, probe time just before it) pairs."""
    samples: dict[str, list[tuple[float, float]]] = {c.metric: [] for c in cells}
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep == 0 or time.perf_counter() < deadline:
        for c in cells if rep % 2 == 0 else cells[::-1]:
            probe()
            dt, _ = timed(c, rep % REPLICAS, tally)
            if dt is not None:
                samples[c.metric].append((dt, probe.times[-1]))
        rep += 1
    return samples


def trace_layers(cells: list[Cell], seconds: float, tally: Tally, spark=None) -> dict[str, float]:
    """Alternate untraced and traced repetitions (on replica 0) until
    ``seconds`` pass. Counts come from the first traced repetition, since
    they repeat exactly; times and the overhead are medians. The overhead
    covers the in-process cells, the only ones the wrappers reach."""
    from tracing import Tracer

    tracer = Tracer()
    sc = spark.sparkContext if spark is not None else None
    plain: list[float] = []
    traced: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(sum(timed(c, 0, tally)[0] or 0.0 for c in cells if not c.spark))
        tracer.reset()
        wall, cliques, rows, job_s = 0.0, 0, 0, 0.0
        with tracer:
            for c in cells:
                driver = tracer.outer["loader.collect_local"] + tracer.outer["engine.prepare"]
                dt, res = timed(c, 0, tally, tracer, sc)
                wall += 0.0 if c.spark else dt or 0.0
                n = res if isinstance(res, int) else len(res or ())
                cliques += n
                if c.spark:
                    # top-level spans only: the listing path's prepare calls
                    # collect_local itself, and that time is in prepare's
                    driver = (tracer.outer["loader.collect_local"]
                              + tracer.outer["engine.prepare"] - driver)
                    job_s += (dt or 0.0) - driver
                    rows += 0 if isinstance(res, int) else n
        m = tracer.layer_metrics()
        m.update({"engine.cliques": cliques, "engine.list_rows": rows,
                  "engine.spark_job_s": job_s, "trace.traced_s": wall})
        traced.append(m)
    out = dict(traced[0])
    for name in out:
        if name.endswith(("_s", "_share", "_ratio")):
            out[name] = statistics.median(t[name] for t in traced)
    out["trace.overhead_s"] = out.pop("trace.traced_s") - statistics.median(plain)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object ``main`` prints."""
    kind, spec = WORKLOADS[workload]
    tally = Tally()
    tmp = ROOT / ".kcbench_tmp" / str(os.getpid())
    spark = None
    setup: dict[str, float] = {}
    probe = Probe(spec.params, spec.probe_ref_s)
    try:
        if kind == "spark":
            tmp.mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            spark = start_spark(tmp)
            setup["session"] = time.perf_counter() - t0
        inp = prepare_inputs(spec, seed, smoke, setup, spark, probe)
        cells = make_cells(kind, inp, spark)
        if spark is not None:
            t0 = time.perf_counter()
            timed(cells[0], 0, tally)  # first Spark call: worker start-up, JIT
            setup["warmup"] = time.perf_counter() - t0

        if trace:
            if spark is not None:
                wp = prepare_inputs(WP, seed, smoke, {}, spark)
                cells += trace_only_cells(inp, wp, seed, spark)
                for c in cells[2:]:
                    timed(c, 0, tally)  # warm the trace-only cells too
            metrics = trace_layers(cells, seconds, tally, spark)
            metrics["engine.parallel_eff"] = _parallel_eff(cells, tally) if spark else 0.0
        else:
            samples = measure(cells, seconds, tally, probe)
            scale = probe.scale()
            print(f"# probe: fastest half {fast_half(probe.times):.4f} s of {len(probe.times)}; scale to "
                  f"reference speed {scale:.3f}; probes: "
                  + " ".join(f"{x:.4f}" for x in probe.times), flush=True)
            graph = setup.pop("graph")
            metrics = {"setup_s": graph + sum(setup.values()) * scale}
            print(f"# setup_s = graph {graph:.3f} (scaled build by build)"
                  + "".join(f" + {n} {v:.3f}" for n, v in setup.items())
                  + (" (raw, times the scale)" if setup else ""), flush=True)
            for c in cells:
                xs = [dt for dt, _ in samples[c.metric]]
                metrics[c.metric] = fast_half(xs) * scale if xs else None
                print(f"# {c.metric} = {c.label}, raw: fastest half {fast_half(xs) if xs else 0:.4f} s, "
                      f"median {statistics.median(xs) if xs else 0:.4f} s, n={len(xs)}; "
                      "time/probe: " + " ".join(f"{x:.4f}/{q:.4f}" for x, q in samples[c.metric]),
                      flush=True)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(f"# failed_frac = {tally.failed}/{tally.attempted}", flush=True)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def _parallel_eff(cells: list[Cell], tally: Tally) -> float:
    """t(1 task) / (n_tasks · t(n_tasks)) from one untraced pair of calls."""
    by = {c.label: c for c in cells}
    tn, _ = timed(by["spark_ntask_s"], 0, tally)
    t1, _ = timed(by["spark_1task_s"], 0, tally)
    return t1 / (N_TASKS * tn) if t1 and tn else 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="relabelling and row-sample seed (default: the generator seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny graphs, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"kcbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = WORKLOADS[args.workload][1]
    seed = spec.graph_seed if args.seed is None else args.seed
    res = run(args.workload, seed, args.seconds, bool(args.trace), smoke=args.smoke)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    res["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in res["metrics"].items()}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
