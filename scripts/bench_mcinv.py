"""Time one cold pass of `mcinv` over every consistent presentation of
order at most N and print one JSON line.

Run from the root of a checkout, one fresh process per order bound:

    PYTHONPATH=src python3 scripts/bench_mcinv.py 256

The presentations are `cli.consistent_presentations(N)`, listed before
the clock starts.  The line holds the wall time of the pass, the peak
RSS of the process, the number of presentations and the sha256 of the
`to_json()` rows of their classifying tuples, one JSON object per line
in the order of the presentations.

`BENCH_mcinv.json`, next to this script's `scripts/` directory, pins the
rows digest for some N under `pinned_rows_sha256`.  When a run's digest
differs from the pinned one, the script still prints its line but exits
1, so no row is recorded from a tree whose tuples moved.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from metacyclic.cli import consistent_presentations
from metacyclic.invariants import mcinv

RECORD = Path(__file__).resolve().parents[1] / "BENCH_mcinv.json"


def run(max_order: int) -> dict:
    groups = consistent_presentations(max_order)
    start = time.perf_counter()
    tuples = [mcinv(G)[0] for G in groups]
    wall = time.perf_counter() - start
    rows = "".join(json.dumps(inv.to_json()) + "\n" for inv in tuples)
    return {
        "max_order": max_order,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "presentations": len(groups),
        "rows_sha256": hashlib.sha256(rows.encode()).hexdigest(),
    }


def pinned_digest(max_order: int) -> str | None:
    """The rows digest `BENCH_mcinv.json` pins for this N, if any."""
    return json.loads(RECORD.read_text())["pinned_rows_sha256"].get(str(max_order))


if __name__ == "__main__":
    row = run(int(sys.argv[1]))
    print(json.dumps(row))
    want = pinned_digest(row["max_order"])
    if want is not None and row["rows_sha256"] != want:
        sys.exit(f"rows_sha256 {row['rows_sha256']} differs from the "
                 f"pinned {want} for N = {row['max_order']}")
