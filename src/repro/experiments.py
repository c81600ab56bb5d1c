"""Experiment harnesses — one per table/figure of the evaluation section.

Each ``expN_rows(...)`` returns a list of row dicts (dataset, k,
algorithm label, wall-clock seconds, clique count) reproducing the
comparison structure of the paper's experiment N; ``format_rows``
renders them as the printed table, with the columns registered next to
each function. ``python -m repro.experiments <name>... | all`` prints
the named tables (``all`` regenerates every table of EXPERIMENTS.md);
``benchmarks/bench_experiments.py`` times representative cells.

Protocol notes carried over from the paper (Section 6.1):
* reported times include preprocessing and ordering generation
  (``run_local``/``count_kcliques`` recompute them per run);
* the ET threshold policy is t = 2 for k ≤ τ/2 and t = 3 otherwise;
* times include listing every clique, so the Spark experiments (7, 9)
  call ``count_kcliques(..., closed_form=False)``;
* k starts at 4 (k = 3 reduces to triangle listing).
"""
from __future__ import annotations

import os
import sys
import time
from functools import lru_cache
from typing import Callable

from pyspark.sql import SparkSession

from repro.core.engine import count_kcliques, run_local, structure_bytes
from repro.core.etplex import default_t_threshold
from repro.graph.core import core_decomposition
from repro.graph.datasets import DATASETS, load
from repro.graph.loader import to_spark
from repro.graph.maxclique import max_clique_size
from repro.graph.stats import format_table1, table1_rows
from repro.graph.truss import truss_decomposition

# name → (title, rows function, rendering, needs Spark), filled by `_table`
# in the order ``all`` prints: the Spark experiments 7 and 9 come last.
TABLES: dict[str, tuple[str, Callable[..., list[dict]], Callable[[list[dict]], str], bool]] = {}
LOCAL_COLUMNS = ["dataset", "k", "algo", "seconds", "count"]
SPARK_COLUMNS = ["dataset", "k", "algo", "n_tasks", "seconds", "count"]


def _table(name: str, title: str, columns: list[str] | None = None, *,
           render=None, spark: bool = False):
    """Register a rows function as table ``name``, printed under
    ``title`` by ``render``, or as the ``columns`` of `format_rows` (all
    of them when None); a Spark table's function takes the session first."""

    def register(fn):
        TABLES[name] = (title, fn, render or (lambda rows: format_rows(rows, columns)), spark)
        return fn

    return register


_table("table1", "Table 1 — dataset statistics (substitutes vs paper)",
       render=format_table1)(table1_rows)


@lru_cache(maxsize=32)
def graph_info(name: str) -> dict:
    """Dataset graph + the structural numbers the sweeps depend on."""
    g = load(name)
    return {
        "g": g,
        "tau": truss_decomposition(g).tau,
        "omega": max_clique_size(g),
    }


def policy_t(name: str, k: int) -> int:
    """The paper's default ET threshold for dataset/k."""
    return default_t_threshold(k, graph_info(name)["tau"])


def sweep_ks(name: str) -> list[int]:
    """The k values benchmarked for a dataset: the full 4..ω sweep
    (every other value) for small-ω graphs; small k plus near-ω k for
    large-ω graphs — the paper's protocol."""
    omega = graph_info(name)["omega"]
    if DATASETS[name].group == "small":
        ks = list(range(4, omega + 1, 2))
        if ks[-1] != omega:
            ks.append(omega)
        return ks
    return [4, 5, 6] + [k for k in range(omega - 4, omega + 1) if k > 6]


def timed_local(name: str, k: int, algo: str, **opts) -> dict:
    """One sequential measurement (prep included, as in the paper)."""
    g = graph_info(name)["g"]
    t0 = time.perf_counter()
    count = run_local(g, k, algo, **opts)
    return {
        "dataset": name,
        "k": k,
        "seconds": time.perf_counter() - t0,
        "count": count,
    }


# --------------------------------------------------------------------------
# Algorithm line-ups
# --------------------------------------------------------------------------

# Options of an entry that takes the paper's ET threshold for its dataset
# and k (`policy_t`); `lineup_opts` resolves it.
ET = {"et_t": "policy"}
MAIN = [
    ("EBBkC+ET", "ebbkc-h", ET),
    ("DDegCol", "ddegcol", {}),
    ("DDegree", "ddegree", {}),
    ("SDegree", "sdegree", {}),
    ("BitCol", "bitcol", {}),
]
T_SWEEP = (1, 2, 3, 4, 5)


def _t_lineup(ts) -> list:
    """EBBkC-H under each ET threshold t of ``ts``."""
    return [(f"t={t}", "ebbkc-h", {"et_t": t}) for t in ts]


# experiment → [(label, algorithm, options)]: each line-up, once; the
# sweeps below and ``benchmarks/bench_experiments.py`` read them.
LINEUPS = {
    # Exps 1/2 (Figs. 4/5): EBBkC+ET vs the four VBBkC baselines.
    "exp1": MAIN,
    "exp2": MAIN,
    # Exp 3 (Fig. 6/14): EBBkC±ET vs the Rule-2-augmented VBBkC SOTA.
    "exp3": [
        ("EBBkC+ET", "ebbkc-h", ET),
        ("EBBkC", "ebbkc-h", {}),
        ("DDegCol+", "ddegcol", {"rule2": True}),
        ("BitCol+", "bitcol", {"rule2": True}),
    ],
    # Exp 4 (Fig. 7): the three edge orderings, all pruned, all +ET.
    "exp4": [
        ("EBBkC-T+ET", "ebbkc-t", ET),
        ("EBBkC-C+ET", "ebbkc-c", ET),
        ("EBBkC-H+ET", "ebbkc-h", ET),
    ],
    # Exp 5 (Fig. 8/15): with vs without the paper's new Rule (2).
    "exp5": [
        ("EBBkC+ET", "ebbkc-h", {**ET, "rule2": True}),
        ("EBBkC(stc)+ET", "ebbkc-h", {**ET, "rule2": False}),
    ],
    # Exp 6 (Fig. 9): the ET threshold t.
    "exp6": _t_lineup(T_SWEEP),
    # Exp 7 (Fig. 10): EBBkC+ET (edge units) vs VBBkC+ET with EP and NP units.
    "exp7": [
        ("EBBkC+ET", "ebbkc-h", {**ET, "scheme": "ep"}),
        ("VBBkC+ET (EP)", "ddegcol", {**ET, "scheme": "ep"}),
        ("VBBkC+ET (NP)", "ddegcol", {**ET, "scheme": "np"}),
    ],
    # Exp 8 (Fig. 11): the structures each algorithm's tasks hold.
    "exp8": [
        ("EBBkC+ET", "ebbkc-h", ET),
        ("DDegCol", "ddegcol", {}),
        ("BitCol", "bitcol", {}),
        ("Degen", "degen", {}),
    ],
    # Exp 9 (Fig. 12): EP units at maximum parallelism.
    "exp9": [
        ("EBBkC+ET", "ebbkc-h", {**ET, "scheme": "ep"}),
        ("BitCol", "bitcol", {"scheme": "ep"}),
    ],
}


def lineup_opts(name: str, k: int, opts: dict) -> dict:
    """A line-up entry's options for dataset/k, with ``et_t="policy"``
    replaced by the paper's threshold."""
    return {**opts, "et_t": policy_t(name, k)} if opts.get("et_t") == "policy" else opts


def _ks_for(name: str, ks) -> list[int]:
    """Resolve a sweep's k values: ``ks`` is None (default sweep) or a
    dict {dataset: [k, ...]}."""
    return sweep_ks(name) if ks is None else ks[name]


def _sweep(datasets, ks, lineup) -> list[dict]:
    rows = []
    for name in datasets:
        for k in _ks_for(name, ks):
            for label, algo, opts in lineup:
                rows.append(
                    {**timed_local(name, k, algo, **lineup_opts(name, k, opts)), "algo": label}
                )
    return rows


# --------------------------------------------------------------------------
# The experiments
# --------------------------------------------------------------------------


@_table("table2", "Table 2 — ordering generation time (sec)")
def table2_rows(datasets=("wk", "po", "st", "or")) -> list[dict]:
    """Table 2: truss-ordering vs degeneracy-ordering generation time."""
    paper = {"wk": (0.2, 0.1), "po": (10.7, 7.3), "st": (1.1, 0.6), "or": (60.4, 53.3)}
    rows = []
    for name in datasets:
        g = load(name)
        t0 = time.perf_counter()
        truss_decomposition(g)
        truss_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        core_decomposition(g)
        degen_s = time.perf_counter() - t0
        p = paper.get(name, (None, None))
        rows.append(
            {
                "dataset": name,
                "truss_s": truss_s,
                "degen_s": degen_s,
                "paper_truss_s": p[0],
                "paper_degen_s": p[1],
            }
        )
    return rows


@_table("exp1", "Experiment 1 — small-ω comparison (k = 4..ω)", LOCAL_COLUMNS)
def exp1_rows(datasets=("wk", "po", "cn", "ba"), ks=None) -> list[dict]:
    """Experiment 1 (Fig. 4): small-ω comparison, k = 4..ω."""
    return _sweep(datasets, ks, LINEUPS["exp1"])


@_table("exp2", "Experiment 2 — large-ω comparison (small k + near-ω k)", LOCAL_COLUMNS)
def exp2_rows(datasets=("st", "or", "db"), ks=None) -> list[dict]:
    """Experiment 2 (Fig. 5): large-ω comparison, small k + near-ω k."""
    return _sweep(datasets, ks, LINEUPS["exp2"])


@_table("exp3", "Experiment 3 — ablation", LOCAL_COLUMNS)
def exp3_rows(datasets=("wk", "st"), ks=None) -> list[dict]:
    """Experiment 3 (Fig. 6/14): ablation of framework vs ET."""
    return _sweep(datasets, ks, LINEUPS["exp3"])


@_table("exp4", "Experiment 4 — edge orderings", LOCAL_COLUMNS)
def exp4_rows(datasets=("wk", "or"), ks=None) -> list[dict]:
    """Experiment 4 (Fig. 7): truss vs color vs hybrid edge ordering."""
    return _sweep(datasets, ks, LINEUPS["exp4"])


@_table("exp5", "Experiment 5 — pruning Rule (2)", LOCAL_COLUMNS)
def exp5_rows(datasets=("wk", "or"), ks=None) -> list[dict]:
    """Experiment 5 (Fig. 8/15): effect of pruning Rule (2)."""
    return _sweep(datasets, ks, LINEUPS["exp5"])


@_table("exp6", "Experiment 6 — ET threshold t", LOCAL_COLUMNS)
def exp6_rows(datasets=("wk", "cn"), ks=None, ts=T_SWEEP) -> list[dict]:
    """Experiment 6 (Fig. 9): ET threshold sweep t ∈ {1..5}."""
    return _sweep(datasets, ks, _t_lineup(ts))


@_table("exp8", "Experiment 8 — space costs", ["dataset", "algo", "bytes", "graph_bytes"])
def exp8_rows(datasets=("wk", "po", "st", "or")) -> list[dict]:
    """Experiment 8 (Fig. 11): space proxy — broadcast-structure bytes
    per algorithm next to the raw graph size."""
    rows = []
    for name in datasets:
        g = load(name)
        graph_bytes = int(g.us.nbytes + g.vs.nbytes)
        for label, algo, _ in LINEUPS["exp8"]:
            rows.append(
                {
                    "dataset": name,
                    "algo": label,
                    "bytes": structure_bytes(g, algo),
                    "graph_bytes": graph_bytes,
                }
            )
    return rows


@_table("exp7", "Experiment 7 — parallel schemes", SPARK_COLUMNS, spark=True)
def exp7_rows(
    spark: SparkSession,
    dataset: str = "cn",
    k: int = 12,
    task_counts=(1, 2, 4, 8, 16),
) -> list[dict]:
    """Experiment 7 (Fig. 10): parallel schemes — EBBkC+ET (edge units)
    vs VBBkC+ET with EP and NP units — across task counts."""
    edges = to_spark(spark, graph_info(dataset)["g"]).cache()
    edges.count()
    rows = []
    for n_tasks in task_counts:
        for label, algo, opts in LINEUPS["exp7"]:
            t0 = time.perf_counter()
            count = count_kcliques(
                spark, edges, k, algo, n_tasks=n_tasks, closed_form=False,
                **lineup_opts(dataset, k, opts),
            )
            rows.append(
                {
                    "dataset": dataset,
                    "k": k,
                    "algo": label,
                    "n_tasks": n_tasks,
                    "seconds": time.perf_counter() - t0,
                    "count": count,
                }
            )
    edges.unpersist()
    return rows


@_table("exp9", "Experiment 9 — scalability", SPARK_COLUMNS, spark=True)
def exp9_rows(
    spark: SparkSession,
    datasets=("uk", "cw", "wp"),
    n_tasks: int = 16,
) -> list[dict]:
    """Experiment 9 (Fig. 12): scalability on the three largest graphs,
    EP scheme, max parallelism, small-k and near-ω workloads."""
    rows = []
    for name in datasets:
        info = graph_info(name)
        edges = to_spark(spark, info["g"]).cache()
        edges.count()
        omega = info["omega"]
        for k in (4, omega - 4):
            for label, algo, opts in LINEUPS["exp9"]:
                t0 = time.perf_counter()
                count = count_kcliques(
                    spark, edges, k, algo, n_tasks=n_tasks, closed_form=False,
                    **lineup_opts(name, k, opts),
                )
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "algo": label,
                        "n_tasks": n_tasks,
                        "seconds": time.perf_counter() - t0,
                        "count": count,
                    }
                )
        edges.unpersist()
    return rows


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def format_rows(rows: list[dict], columns=None) -> str:
    """Fixed-width table of experiment rows."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0])
    widths = {
        c: max(len(str(c)), max(len(_fmt(r.get(c))) for r in rows)) for c in columns
    }
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------


def get_spark() -> SparkSession:
    """Local SparkSession with the test fixture's settings. ``SPARK_MASTER``
    (default ``local[*]``) and ``SPARK_DRIVER_MEM`` (default 8g) apply
    when no ``PYSPARK_SUBMIT_ARGS`` is set."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def main(argv: list[str]) -> int:
    """Print the tables named in ``argv`` (``all``: every table, in
    `TABLES` order). The SparkSession starts only if a table needs it."""
    names = list(TABLES) if argv == ["all"] else argv
    if not names or any(n not in TABLES for n in names):
        print(f"usage: python -m repro.experiments all | {' | '.join(TABLES)} ...",
              file=sys.stderr)
        return 2
    spark = None
    try:
        for name in names:
            title, fn, render, needs_spark = TABLES[name]
            if needs_spark and spark is None:
                spark = get_spark()
            rows = fn(spark) if needs_spark else fn()
            print(f"\n== {title} ==")
            print(render(rows))
    finally:
        if spark is not None:
            spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
