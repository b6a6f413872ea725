"""One cold repetition of a benchmark workload.

run.py starts this script once per repetition, so every repetition pays
for a fresh interpreter, imports the program from `src/` of the checkout
and starts with empty process-wide caches, as a command-line user does.

    python3 perfbench/worker.py --workload classify --seed 0 --trace 0

The program runs in this one process as a closed loop with one client:
an item starts only when the previous one has returned.  The batch
commands are driven through `metacyclic.cli.main` with `--jobs 1`.  The
last line of stdout is a JSON record of the repetition.

Times are taken with hostspeed.SpeedClock, which probes the host's
speed between items; the record holds raw seconds and reference seconds
(`*_raw_s` and `*_s`).  Probe time is in neither.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import SpeedClock, probe_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"

# iso-oracle is left out: its fixed cost at its order cap would swamp
# every other layer.
VERIFY_CHECKS = "roundtrip,dimension,perlis-walker,recoverR,degpag,countB,countC,section7"
CLI_ARGV = {
    "verify-sweep": ["verify", "--max-order", "128", "--checks", VERIFY_CHECKS,
                     "--format", "json", "--jobs", "1"],
    "enumerate": ["enumerate", "--max-order", "320", "--format", "json", "--jobs", "1"],
}
# The per-item boundary inside the CLI, as (module, function): one
# group's checks, one candidate tuple checked.  Most of `enumerate` is
# its tuple enumeration, which checks each candidate with validate_tuple;
# construct_group also calls it once per output row.
CLI_ITEM = {"verify-sweep": ("cli", "_group_work"),
            "enumerate": ("invariants", "validate_tuple")}
# Order band and item count of the seeded presentation workloads.
PRESENTATIONS = {"classify": (1, 128, 1000), "decompose": (384, 512, 60)}
WORKLOADS = tuple(CLI_ARGV) + tuple(PRESENTATIONS)


def _timed_items(module, attr: str, speed: SpeedClock) -> None:
    """Record the duration of every call to module.attr; a probe may run
    after it returns."""
    fn = getattr(module, attr)
    clock = time.perf_counter

    def timed(*args):
        speed.in_item = True
        t = clock()
        try:
            return fn(*args)
        finally:
            speed.item(clock() - t)
            speed.in_item = False
            speed.mark()

    setattr(module, attr, timed)


def _run_cli(cli, workload: str, ref: dict, speed: SpeedClock) -> dict:
    """Drive cli.main; the reference pins the stdout digest, the exit code
    and the number of items."""
    module, attr = CLI_ITEM[workload]
    _timed_items(sys.modules[f"metacyclic.{module}"], attr, speed)
    out, err = io.StringIO(), io.StringIO()
    errors = []
    speed.lap()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(CLI_ARGV[workload])
    except Exception as exc:  # a raising command fails every item
        code = None
        errors.append(repr(exc))
    wall_raw, wall = speed.lap()
    items = len(speed.latencies)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    ok = code == 0 and digest == ref["stdout_sha256"] and items == ref["items"]
    if code != 0:
        errors.append(f"exit code {code}: {err.getvalue()[-500:]}")
    elif not ok:
        errors.append(f"stdout digest {digest} or item count {items} "
                      "differs from the reference")
    return {"wall_s": wall, "wall_raw_s": wall_raw, "items": ref["items"],
            "failed": 0 if ok else ref["items"], "digest": digest, "errors": errors}


def _run_presentations(workload: str, keys, ref: dict, seed: int,
                       speed: SpeedClock) -> dict:
    """Closed loop over the keys; each result is checked after the clock stops."""
    from metacyclic import group, invariants, wedderburn

    results = []
    clock = time.perf_counter
    speed.lap()
    for key in keys:
        start = clock()
        try:
            G = group.MetacyclicGroup(*key)
            if workload == "classify":
                results.append(invariants.mcinv(G)[0])
            else:
                results.append(wedderburn.decomposition(G))
        except Exception as exc:
            results.append(exc)
        speed.item(clock() - start)
        speed.mark()
    wall_raw, wall = speed.lap()

    errors = []
    digest = hashlib.sha256()
    for key, res in zip(keys, results):
        m, n = key[0], key[1]
        if isinstance(res, Exception):
            errors.append(f"{key}: {res!r}")
            continue
        if workload == "classify":
            good, data = res.order == m * n, res.to_json()
        else:
            good, data = sum(c.q_dimension for c in res) == m * n, [c.to_json() for c in res]
        if not good:
            errors.append(f"{key}: order or dimension identity violated")
        digest.update(json.dumps([key, data]).encode() + b"\n")
    failed = len(errors)
    if seed == ref["seed"] and digest.hexdigest() != ref["sha256"]:
        errors.append(f"digest {digest.hexdigest()} differs from the reference")
        failed = len(keys)
    return {"wall_s": wall, "wall_raw_s": wall_raw, "items": len(keys), "failed": failed,
            "digest": digest.hexdigest(), "errors": errors}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "metacyclic").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from spans import PROBE, Tracer

        tracer = Tracer()
        speed = SpeedClock(tracer.wrap(PROBE, probe_kernel))
    else:
        speed = SpeedClock()
    sys.path.insert(0, str(ROOT / "src"))
    from metacyclic import cli

    keys = None
    if args.workload in PRESENTATIONS:
        from inputs import population, stratified_draw

        lo, hi, count = PRESENTATIONS[args.workload]
        keys = stratified_draw(population(lo, hi), count, args.seed)
    if tracer is not None:
        tracer.install()
    setup_raw_s, setup_s = speed.lap()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    ref = json.loads((HERE / "references.json").read_text())[args.workload]
    if keys is None:
        record = _run_cli(cli, args.workload, ref, speed)
    else:
        record = _run_presentations(args.workload, keys, ref, args.seed, speed)
    record.update(setup_s=setup_s, setup_raw_s=setup_raw_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  latency_ms=[x * 1e3 for x in speed.latencies],
                  probe_ms=[x * 1e3 for x in speed.probes])
    if tracer is not None:
        record["layers"] = tracer.summary()
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"spans-{args.workload}.txt.gz")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
