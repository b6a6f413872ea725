"""Time one cold `valid_tuples(N)` and print one JSON line.

Run from the root of a checkout, one fresh process per order bound:

    PYTHONPATH=src python3 scripts/bench_valid_tuples.py 1024

The line holds the wall time of the call, the peak RSS of the process,
the number of tuples and the sha256 of their `to_json()` rows, one JSON
object per line in the order `valid_tuples` returns them.

`BENCH_valid_tuples.json`, next to this script's `scripts/` directory,
pins the rows digest for some N under `pinned_rows_sha256`.  When a
run's digest differs from the pinned one, the script still prints its
line but exits 1, so no row is recorded from a tree whose tuples moved.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from metacyclic.invariants import valid_tuples

RECORD = Path(__file__).resolve().parents[1] / "BENCH_valid_tuples.json"


def run(max_order: int) -> dict:
    start = time.perf_counter()
    tuples = valid_tuples(max_order)
    wall = time.perf_counter() - start
    rows = "".join(json.dumps(inv.to_json()) + "\n" for inv in tuples)
    return {
        "max_order": max_order,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "tuples": len(tuples),
        "rows_sha256": hashlib.sha256(rows.encode()).hexdigest(),
    }


def pinned_digest(max_order: int) -> str | None:
    """The rows digest `BENCH_valid_tuples.json` pins for this N, if any."""
    return json.loads(RECORD.read_text())["pinned_rows_sha256"].get(str(max_order))


if __name__ == "__main__":
    row = run(int(sys.argv[1]))
    print(json.dumps(row))
    want = pinned_digest(row["max_order"])
    if want is not None and row["rows_sha256"] != want:
        sys.exit(f"rows_sha256 {row['rows_sha256']} differs from the "
                 f"pinned {want} for N = {row['max_order']}")
