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
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from metacyclic import cli
from metacyclic.cli import CHECK_NAMES, main
from metacyclic.invariants import valid_tuples

CHECKS = ",".join(name for name in CHECK_NAMES if name != "iso-oracle")


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


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]))))
