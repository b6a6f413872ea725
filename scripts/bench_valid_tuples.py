"""Time one cold `valid_tuples(N)` and print one JSON line.

Run from the root of a checkout, one fresh process per order bound:

    PYTHONPATH=src python3 scripts/bench_valid_tuples.py 1024

The line holds the wall time of the call, the peak RSS of the process,
the number of tuples and the sha256 of their `to_json()` rows, one JSON
object per line in the order `valid_tuples` returns them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from metacyclic.invariants import valid_tuples


def main() -> None:
    max_order = int(sys.argv[1])
    start = time.perf_counter()
    tuples = valid_tuples(max_order)
    wall = time.perf_counter() - start
    rows = "".join(json.dumps(inv.to_json()) + "\n" for inv in tuples)
    print(json.dumps({
        "max_order": max_order,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "tuples": len(tuples),
        "rows_sha256": hashlib.sha256(rows.encode()).hexdigest(),
    }))


if __name__ == "__main__":
    main()
