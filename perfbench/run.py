"""Benchmark of the four user paths of `metacyclic`, one cold process per
repetition.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 45 --trace 0

Runs perfbench/worker.py in a fresh interpreter, one repetition after
another.  Once the minimum number has run, it starts none that would
likely end after `--seconds`.  Then it prints a human-readable block
and, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The metric names and units are those of
BENCHMARK.json at the root of the checkout.

Times are in reference seconds (see hostspeed.py): raw times scaled by
the host speed that probes between items measured.

With `--trace 0` the metrics are the end-to-end ones: medians over at
least three repetitions, with item latencies pooled over them.  With
`--trace 1` untraced and traced repetitions alternate, at least two of
each.  The metrics are the per-layer ones from the traced repetitions,
plus the tracing overhead: the median of traced minus untraced wall time
over adjacent pairs.

Exits non-zero without a result line when a repetition cannot run, for
instance when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_S
from worker import HERE, ROOT, WORKLOADS

MIN_REPS = {0: 3, 1: 2}
# Extra cold processes that only set up, so that setup_s is a median
# over more samples than there are repetitions.
SETUP_REPS = 6
REP_TIMEOUT_S = 150
# No repetition starts when it would likely end after this.
RUN_LIMIT_S = 150


class RepError(RuntimeError):
    pass


def run_rep(workload: str, seed: int, trace: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def host_note(reps: list[dict]) -> str:
    probes = [x for r in reps for x in r["probe_ms"]]
    speed = REFERENCE_S * 1e3 / statistics.mean(probes)
    raw = statistics.median(r["wall_raw_s"] for r in reps)
    return (f"host speed {speed:.3f} of reference over {len(probes)} probes; "
            f"raw wall_s {raw:.4f} s")


def end_to_end(reps: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the repetitions; item latencies pooled over all of them;
    setup_s also over the set-up-only processes."""
    latencies = [x for r in reps for x in r["latency_ms"]]
    q = statistics.quantiles(latencies, n=100)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps + setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "item_ms_p50": q[49],
        "item_ms_p90": q[89],
    }
    notes = [f"{len(reps)} cold repetitions of {reps[0]['items']} items "
             f"and {len(setups)} that only set up; "
             f"{len(latencies)} item latencies, {sum(x > q[89] for x in latencies)} beyond p90",
             host_note(reps)]
    return metrics, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    names = traced[0]["layers"]
    metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    wall = statistics.median(r["wall_s"] for r in traced)
    modules = {k.split(".")[0] for k in names}
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    # Each traced repetition runs right after an untraced one; the paired
    # difference cancels part of the host's drift.
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
    # Self times are raw, so they are compared with the raw traced wall.
    raw_wall = statistics.median(r["wall_raw_s"] for r in traced)
    metrics["trace.unattributed_s"] = statistics.median(
        r["wall_raw_s"] - sum(r["layers"][f"{m}.self_s"] for m in modules) for r in traced)
    notes = [f"{len(untraced)} untraced and {len(traced)} traced repetitions; "
             f"layer self times sum to {raw_wall - metrics['trace.unattributed_s']:.4f} s "
             f"of {raw_wall:.4f} raw s traced wall, tracing overhead "
             f"{metrics['trace.overhead_s']:.4f} s", host_note(traced)]
    return metrics, notes


def call_counts(rep: dict) -> dict:
    return {k: v for k, v in rep["layers"].items() if k.endswith(".calls")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    # SystemExit makes subprocess.run kill and reap a running repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    modes = (0, 1) if args.trace else (0,)
    reps: dict[int, list[dict]] = {0: [], 1: []}
    setups: list[dict] = []
    start = time.perf_counter()
    try:
        if not args.trace:
            setups = [run_rep(args.workload, args.seed, 0, setup_only=True)
                      for _ in range(SETUP_REPS)]
        rounds_start = time.perf_counter()
        while True:
            for mode in modes:
                reps[mode].append(run_rep(args.workload, args.seed, mode))
            done = len(reps[modes[-1]])
            now = time.perf_counter()
            # Start no round that would likely end after the deadline.
            deadline = args.seconds if done >= MIN_REPS[args.trace] else RUN_LIMIT_S
            if now - start + (now - rounds_start) / done > deadline:
                break
    except RepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, notes = per_layer(reps[0], reps[1])
    else:
        metrics, notes = end_to_end(reps[0], setups)
    if set(metrics) != set(units):
        print("error: measured metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    all_reps = reps[0] + reps[1]
    attempted = sum(r["items"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    errors = [e for r in all_reps for e in r["errors"]]
    # Every repetition starts cold, so traced call counts must repeat exactly.
    if any(call_counts(r) != call_counts(reps[1][0]) for r in reps[1]):
        errors.append("per-layer call counts differ between traced repetitions")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} items)")
    for name in units:
        print(f"  {name} {metrics[name]:.6g} {units[name]}")
    for e in errors[:20]:
        print(f"  error: {e}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
