"""`scripts/bench_sweep.py`, run the way the `BENCH_*.json` rows are taken:
one fresh process per stage and N."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from metacyclic.cli import CHECK_NAMES

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_sweep.py"
HEAD = ["max_order", "wall_s", "peak_rss_mb"]


def test_bench_sweep_lines_and_pins(child_env, tmp_path) -> None:
    """`valid_tuples 512` and `verify 256` print their documented keys in
    order and exit 0 against the pins of their records; `mcinv 32` prints
    its keys in order; and a record whose pin is wrong makes the stage
    print its line and exit 1.  The four processes run side by side."""
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPT, tmp_path / "scripts")
    (tmp_path / "BENCH_valid_tuples.json").write_text(
        json.dumps({"pinned_rows_sha256": {"16": "0" * 64}}))
    runs = [(SCRIPT, "valid_tuples", 512), (SCRIPT, "verify", 256), (SCRIPT, "mcinv", 32),
            (tmp_path / "scripts" / SCRIPT.name, "valid_tuples", 16)]
    procs = [subprocess.Popen([sys.executable, str(script), stage, str(n)], env=child_env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for script, stage, n in runs]
    done = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        done.append((proc.returncode, out, err))
    (vt_code, vt_out, vt_err), (verify_code, verify_out, verify_err) = done[:2]
    (mcinv_code, mcinv_out, mcinv_err), (wrong_code, wrong_out, wrong_err) = done[2:]

    assert vt_code == 0, vt_err
    row = json.loads(vt_out)
    assert list(row) == HEAD + ["tuples", "rows_sha256"]
    assert (row["max_order"], row["tuples"]) == (512, 3326)
    pins = json.loads((ROOT / "BENCH_valid_tuples.json").read_text())["pinned_rows_sha256"]
    assert row["rows_sha256"] == pins["512"]

    assert verify_code == 0, verify_err
    row = json.loads(verify_out)
    assert list(row) == HEAD + ["exit_code", "groups", "stdout_sha256", "valid_tuples_s",
                                "check_s"]
    assert (row["max_order"], row["exit_code"], row["groups"]) == (256, 0, 1365)
    assert list(row["check_s"]) == [name for name in CHECK_NAMES if name != "iso-oracle"]
    pins = json.loads((ROOT / "BENCH_verify.json").read_text())["pinned_stdout_sha256"]
    assert row["stdout_sha256"] == pins["256"]

    assert mcinv_code == 0, mcinv_err
    row = json.loads(mcinv_out)
    assert list(row) == HEAD + ["presentations", "rows_sha256"]
    assert (row["max_order"], row["presentations"]) == (32, 945)

    assert wrong_code == 1
    assert list(json.loads(wrong_out)) == HEAD + ["tuples", "rows_sha256"]
    assert "differs from the pinned " + "0" * 64 + " for N = 16" in wrong_err
