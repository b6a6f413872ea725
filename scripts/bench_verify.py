"""Time one cold `metacyclic verify --max-order N` and print one JSON line.

Run from the root of a checkout, one fresh process per order bound:

    PYTHONPATH=src python3 scripts/bench_verify.py 256

The sweep runs every check but iso-oracle (whose fixed cost at its order
cap would swamp the rest) with `--format json --jobs 1`, in this process.
The line holds the wall time of the sweep, the peak RSS of the process,
the exit code, the number of groups swept and the sha256 of the stdout
bytes; the sweep's stderr is discarded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from metacyclic.cli import CHECK_NAMES, main
from metacyclic.invariants import valid_tuples

CHECKS = ",".join(name for name in CHECK_NAMES if name != "iso-oracle")


def run(max_order: int) -> dict:
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
    }


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]))))
