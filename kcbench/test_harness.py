"""Self-tests of the benchmark harness (not part of the repository suites).

Run from the repository root::

    python3 -m pytest kcbench -q -p no:cacheprovider

The two Spark smoke cases start local Spark; the whole file takes about
a minute and a half.
"""
from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
import time
import tomllib
from fnmatch import fnmatch
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _load_run():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = importlib.util.spec_from_file_location("kcbench_run", HERE / "run.py")
    mod = sys.modules["kcbench_run"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


run = _load_run()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "kcbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_not_collected_by_repository_suites():
    """The repo's pytest config collects bench_*.py under its testpaths;
    this harness must neither sit there nor match that pattern."""
    ini = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]["ini_options"]
    assert "kcbench" not in ini["testpaths"]
    for f in HERE.glob("*.py"):
        assert not fnmatch(f.name, "bench_*.py"), f


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_dropped_clique_is_caught(monkeypatch):
    import repro.core.ebbkc as ebbkc

    orig = ebbkc.ebbkc_h_top_branch
    dropped = []

    def lossy(g, er, edge, k, out, *a, **kw):
        def sink(c):
            if dropped:
                out(c)
            else:
                dropped.append(c)

        return orig(g, er, edge, k, sink, *a, **kw)

    monkeypatch.setattr(ebbkc, "ebbkc_h_top_branch", lossy)
    res = run.run("sparse-k4", seed=1, seconds=0.1, trace=False, smoke=True)
    assert dropped and res["failed"] > 0 and not res["correct"]


def test_exact_counters_repeat():
    a, b = (run.run("sparse-k4", seed=2, seconds=0.1, trace=True, smoke=True)["metrics"]
            for _ in range(2))
    for name in ("etplex.hits", "etplex.calls", "etplex.cliques_emitted", "engine.cliques",
                 "engine.units", "truss.edges_peeled", "coloring.recolor_calls",
                 "ebbkc.top_branch_calls", "vbbkc.top_branch_calls"):
        assert a[name] == b[name] > 0, name


def test_outer_time_counts_top_level_calls_only():
    """engine.spark_job_s subtracts outer collect and prepare time; a
    collect nested in prepare must not be taken out twice."""
    from tracing import Tracer

    tr = Tracer()
    collect = tr._wrap(lambda: time.sleep(0.02), "loader.collect_local")
    prepare = tr._wrap(lambda: collect(), "engine.prepare")
    prepare()
    assert tr.outer["loader.collect_local"] == 0 < tr.total["loader.collect_local"]
    assert tr.outer["engine.prepare"] == tr.total["engine.prepare"] >= 0.02
    collect()
    assert tr.outer["loader.collect_local"] >= 0.02
    assert tr.calls["loader.collect_local"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "kcbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "sparse-k4", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
