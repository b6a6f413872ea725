"""Time one cold sweep stage up to order N and print one JSON line.

    PYTHONPATH=src python3 scripts/bench_sweep.py {verify,mcinv,valid_tuples} N

One fresh process per stage and N, from the root of a checkout.  A line
whose digest differs from the pin in BENCH_<stage>.json is still printed,
but the script exits 1.
"""

# A line starts with N, the stage's wall time and the peak RSS of the process.
# The pins are `pinned_<digest key>`, so no row is recorded from a tree whose
# output moved.  A stage imports only what it runs, so its RSS is not that of
# the whole CLI.  Notes are comments, not docstrings: a string constant over
# 512 bytes is allocated in the malloc heap while this file compiles and stays
# there; a long module docstring raised the peak RSS of `verify 256` by 0.2 MB.

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _rows(tuples):
    return "".join(json.dumps(inv.to_json()) + "\n" for inv in tuples)


def _timed(fn, seconds, key):
    """fn, adding the time of every call to seconds[key]."""
    seconds[key] = 0.0

    def timed(*args):
        start = time.perf_counter()
        result = fn(*args)
        seconds[key] += time.perf_counter() - start
        return result

    return timed


# A stage maps N to (run, report): the clock times run(); report(result) gives
# the fields after the peak RSS, the digest as its text, hashed after the RSS.

# `metacyclic verify --max-order N` in this process, with every check but
# iso-oracle (whose fixed cost at its cap would swamp the rest), `--format
# json --jobs 1`, stderr discarded.  Adds the exit code, the groups swept,
# the stdout digest, and the seconds inside `valid_tuples` and inside each
# check, by wrapping `cli.valid_tuples` and the entries of
# `cli._GROUP_CHECKS`.  A group's first check to ask for the cached `mcinv`
# and `decomposition` answers pays for them.
def verify(max_order):
    import contextlib
    import io

    from metacyclic import cli

    seconds, groups, valid = {}, [], cli.valid_tuples

    def listed(n):
        groups.append(len(tuples := valid(n)))
        return tuples

    cli.valid_tuples = _timed(listed, seconds, "valid_tuples")
    for name, check in cli._GROUP_CHECKS.items():
        cli._GROUP_CHECKS[name] = _timed(check, seconds, name)
    checks = ",".join(name for name in cli.CHECK_NAMES if name != "iso-oracle")
    out = io.StringIO()

    def run():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["verify", "--max-order", str(max_order), "--checks", checks,
                             "--format", "json", "--jobs", "1"])

    return run, lambda code: {
        "exit_code": code, "groups": groups[0], "stdout_sha256": out.getvalue(),
        "valid_tuples_s": round(seconds.pop("valid_tuples"), 2),
        "check_s": {name: round(s, 2) for name, s in seconds.items()}}


# `mcinv` over `cli.consistent_presentations(N)`, listed before the clock
# starts.  Adds their count and the digest of the `to_json()` rows of their
# tuples, one JSON object per line.
def mcinv(max_order):
    from metacyclic.cli import consistent_presentations
    from metacyclic.invariants import mcinv
    groups = consistent_presentations(max_order)
    return (lambda: [mcinv(G)[0] for G in groups],
            lambda tuples: {"presentations": len(groups), "rows_sha256": _rows(tuples)})


# One `valid_tuples(N)`.  Adds the tuple count and the digest of their rows.
def valid_tuples(max_order):
    from metacyclic.invariants import valid_tuples
    return (lambda: valid_tuples(max_order),
            lambda tuples: {"tuples": len(tuples), "rows_sha256": _rows(tuples)})


def main():
    stage, max_order = sys.argv[1], int(sys.argv[2])
    stages = {"verify": verify, "mcinv": mcinv, "valid_tuples": valid_tuples}
    run, report = stages[stage](max_order)
    start = time.perf_counter()
    result = run()
    wall = time.perf_counter() - start
    fields = report(result)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    row = {"max_order": max_order, "wall_s": round(wall, 2), "peak_rss_mb": round(rss, 1),
           **fields}
    key = "stdout_sha256" if stage == "verify" else "rows_sha256"
    row[key] = hashlib.sha256(row[key].encode()).hexdigest()
    print(json.dumps(row))
    record = Path(__file__).resolve().parents[1] / f"BENCH_{stage}.json"
    want = json.loads(record.read_text())["pinned_" + key].get(str(max_order))
    if want is not None and row[key] != want:
        sys.exit(f"{key} {row[key]} differs from the pinned {want} for N = {max_order}")


if __name__ == "__main__":
    main()
