"""Time cold starts of the CLI, one fresh interpreter per run, and print
one JSON line.

Run from anywhere; the measured tree is the `src/` of this script's
checkout, and `--against` names the `src/` of the tree to compare with:

    python3 scripts/bench_startup.py --pairs 10 --against ../parent/src

Each pair times two commands, each in a new process with PYTHONPATH set
to one tree's `src/` and the rest of the environment as it is:

    python -c "import metacyclic.cli"
    python -m metacyclic.cli mcinv 12 4 6 5

plus a bare `python -c pass`, once per pair, for the cost of the
interpreter alone.  Within a pair each command runs on both trees back
to back, the tree that goes first alternating from pair to pair.  One
untimed round of every command goes first, so the source files are in
the page cache.  When no bytecode is cached (PYTHONDONTWRITEBYTECODE
set, as the line records), every run compiles the package's sources.

The line holds, for each command and tree, the median and quartiles of
the wall times in seconds, and, for each command, the number of pairs in
which the measured tree was faster.  `BENCH_startup.json`, next to this
script's `scripts/` directory, pins the sha256 of the stdout of the
`mcinv` command.  When any run prints other bytes, the script still prints its
line but exits 1, so no row is recorded from a tree whose output moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_startup.json"
BARE = ("-c", "pass")
COMMANDS = (
    ("import", ("-c", "import metacyclic.cli")),
    ("mcinv", ("-m", "metacyclic.cli", "mcinv", "12", "4", "6", "5")),
)


def _timed(args: tuple[str, ...], src: Path) -> tuple[float, bytes]:
    """(wall seconds, stdout) of one `python args` with src/ on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
    return time.perf_counter() - start, proc.stdout


def _spread(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def run(pairs: int, trees: dict[str, Path]) -> dict:
    """The JSON line of `pairs` pairs over the two trees."""
    names = list(trees)
    for args in (BARE, *(args for _, args in COMMANDS)):
        for src in trees.values():
            _timed(args, src)
    times = {name: {tree: [] for tree in names} for name, _ in COMMANDS}
    bare: list[float] = []
    digests: set[str] = set()
    for i in range(pairs):
        bare.append(_timed(BARE, trees[names[0]])[0])
        order = names if i % 2 == 0 else names[::-1]
        for name, args in COMMANDS:
            for tree in order:
                wall, out = _timed(args, trees[tree])
                times[name][tree].append(wall)
                if name == "mcinv":
                    digests.add(hashlib.sha256(out).hexdigest())
    line = {
        "pairs": pairs,
        "python": sys.version.split()[0],
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "bare_s": _spread(bare),
    }
    for name, _ in COMMANDS:
        line[f"{name}_s"] = {tree: _spread(times[name][tree]) for tree in names}
        ours, theirs = (times[name][tree] for tree in names)
        line[f"{name}_wins"] = sum(a < b for a, b in zip(ours, theirs))
    line["mcinv_stdout_sha256"] = sorted(digests)
    return line


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--against", type=Path, required=True,
                        help="src/ of the tree timed in turn with this one")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    line = run(args.pairs, {"this": ROOT / "src", "against": args.against.resolve()})
    print(json.dumps(line))
    want = json.loads(RECORD.read_text())["pinned_stdout_sha256"]
    if line["mcinv_stdout_sha256"] != [want]:
        sys.exit(f"mcinv stdout sha256 {line['mcinv_stdout_sha256']} differs from the pinned {want}")
