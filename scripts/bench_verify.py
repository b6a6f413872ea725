"""Time one cold `metacyclic verify --max-order N` and print one JSON line.

Run from the root of a checkout, one fresh process per order bound:

    PYTHONPATH=src python3 scripts/bench_verify.py 256

The sweep runs every check but iso-oracle (whose fixed cost at its order
cap would swamp the rest) with `--format json --jobs 1`, in this process.
The line holds the wall time of the sweep, the peak RSS of the process,
the exit code, the number of groups swept and the sha256 of the stdout
bytes; the sweep's stderr is discarded.  It also holds the seconds spent
inside `valid_tuples` and inside each check, taken by wrapping
`cli.valid_tuples` and the entries of `cli._GROUP_CHECKS` from here.
The checks share the cached `mcinv` and `decomposition` answers, so each
group's first check to ask for one pays for it.

`BENCH_verify.json`, next to this script's `scripts/` directory, pins the
stdout digest for some N under `pinned_stdout_sha256`.  When the sweep's
digest differs from the pinned one, the script still prints its line but
exits 1, so no row is recorded from a tree whose output moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from metacyclic import cli
from metacyclic.cli import CHECK_NAMES, main
from metacyclic.invariants import valid_tuples

CHECKS = ",".join(name for name in CHECK_NAMES if name != "iso-oracle")
RECORD = Path(__file__).resolve().parents[1] / "BENCH_verify.json"


def _timed(fn, seconds: dict, key: str):
    """fn, adding the time of every call to seconds[key]."""
    seconds[key] = 0.0

    def timed(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[key] += time.perf_counter() - start

    return timed


def run(max_order: int) -> dict:
    seconds: dict[str, float] = {}
    cli.valid_tuples = _timed(cli.valid_tuples, seconds, "valid_tuples")
    for name, check in cli._GROUP_CHECKS.items():
        cli._GROUP_CHECKS[name] = _timed(check, seconds, name)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--max-order", str(max_order), "--checks", CHECKS,
                     "--format", "json", "--jobs", "1"])
    wall = time.perf_counter() - start
    return {
        "max_order": max_order,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "exit_code": code,
        "groups": len(valid_tuples(max_order)),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "valid_tuples_s": round(seconds.pop("valid_tuples"), 2),
        "check_s": {name: round(s, 2) for name, s in seconds.items()},
    }


def pinned_digest(max_order: int) -> str | None:
    """The stdout digest `BENCH_verify.json` pins for this N, if any."""
    return json.loads(RECORD.read_text())["pinned_stdout_sha256"].get(str(max_order))


if __name__ == "__main__":
    row = run(int(sys.argv[1]))
    print(json.dumps(row))
    want = pinned_digest(row["max_order"])
    if want is not None and row["stdout_sha256"] != want:
        sys.exit(f"stdout_sha256 {row['stdout_sha256']} differs from the "
                 f"pinned {want} for N = {row['max_order']}")
