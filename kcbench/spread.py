"""Run-to-run spread of the benchmark, for the steadiness table in README.md.

Runs ``run.py`` once per seed for each workload, then prints, per metric,
the median, the quartiles and the spread (q3 − q1) / median next to the
metric's bound from ``BENCHMARK.json``. With ``--trace 1`` it instead runs
each seed twice and reports which per-layer counters differ between the
two runs of a seed (exact counters must not)::

    python3 kcbench/spread.py --seeds 1 2 3 4 5 --workload sparse-k4
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_SUFFIXES = ("_calls", ".hits", ".units", ".cliques", ".edges_peeled",
                  ".cliques_emitted", ".spark_jobs", ".spark_stages", ".list_rows",
                  ".broadcast_bytes")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "kcbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{cmd} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        if args.trace:
            for s in args.seeds:
                a, b = (run_once(w, s, spec["run_seconds"], 1)["metrics"] for _ in range(2))
                diff = [n for n in a if n.endswith(EXACT_SUFFIXES)
                        and a[n]["value"] != b[n]["value"]]
                ok &= not diff
                print(f"{w} seed {s}: exact counters {'differ: ' + ', '.join(diff) if diff else 'identical'}")
            continue
        runs = [run_once(w, s, spec["run_seconds"], 0) for s in args.seeds]
        ok &= all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            xs = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            print(f"{w:12s} {name:12s} median {med:9.4f} q1 {q1:9.4f} q3 {q3:9.4f} "
                  f"spread {spread:6.3f} bound {bound:.2f} "
                  f"{'ok' if spread < bound / 3 else 'WIDE'}  runs: "
                  + " ".join(f"{x:.4g}" for x in xs), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
