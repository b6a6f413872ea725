"""Measure the baseline that perfbench/BASELINE.json records.

    python3 perfbench/baseline.py [--runs 10] [--workloads classify,...]

For each workload of BENCHMARK.json: `--runs` end-to-end runs of run.py
with seeds 1..runs, then one traced run with seed 0, all with the
`run_seconds` of BENCHMARK.json.  Prints, per end-to-end metric, the
median, the quartiles and their distance as a share of the median, and
flags a spread that reaches a third of the metric's bound.  Writes
BASELINE.json next to this file unless `--no-write` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} is not correct:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}

    end_to_end, per_layer = {}, {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            for name, value in run(workload, seed, seconds, 0).items():
                values.setdefault(name, []).append(value)
        metrics = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            unit, bound = bounds[name]
            spread = (q3 - q1) / med
            flag = "  over a third of the bound" if spread >= bound / 3 else ""
            print(f"{workload:13s} {name:12s} median {med:.6g} {unit}, "
                  f"spread {spread:.3f} (bound {bound}){flag}", flush=True)
            metrics[name] = {"unit": unit, "median": round(med, 6),
                             "q1": round(q1, 6), "q3": round(q3, 6)}
        end_to_end[workload] = {"seconds": seconds, "runs": args.runs,
                                "seeds": f"1-{args.runs}", "metrics": metrics}
        per_layer[workload] = {k: round(v, 6) for k, v in run(workload, 0, seconds, 1).items()}

    if not args.no_write:
        baseline = {
            "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version()},
            "setting": "closed loop, one client, --jobs 1, one fresh interpreter per "
                       "repetition; times in reference seconds (hostspeed.py)",
            "end_to_end": {"trace": 0, "workloads": end_to_end},
            "per_layer": {"trace": 1, "seconds": seconds, "seed": 0, "workloads": per_layer},
        }
        (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
