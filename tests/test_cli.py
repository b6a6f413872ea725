from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys

import pytest

from metacyclic import cli, invariants
from metacyclic.cli import CHECK_NAMES, RunConfig, main
from metacyclic.group import MetacyclicGroup


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln.strip()]


def test_run_config_validation() -> None:
    with pytest.raises(ValueError):
        RunConfig(max_order=0)
    with pytest.raises(ValueError):
        RunConfig(max_order=5000)
    with pytest.raises(ValueError):
        RunConfig(format="yaml")
    with pytest.raises(ValueError):
        RunConfig(jobs=0)
    assert RunConfig().max_order == 64


def test_enumerate_order_one(capsys) -> None:
    code, out, _ = run_cli(capsys, "enumerate", "--max-order", "1", "--format", "json")
    assert code == 0
    rows = [json.loads(ln) for ln in data_lines(out)]
    assert len(rows) == 1
    assert rows[0]["m"] == 1 and rows[0]["n"] == 1


def test_enumerate_counts_isomorphism_classes(capsys) -> None:
    # orders 1..6: C1..C6 plus C2xC2 plus S3
    code, out, _ = run_cli(capsys, "enumerate", "--max-order", "6", "--format", "json")
    assert code == 0
    rows = [json.loads(ln) for ln in data_lines(out)]
    assert len(rows) == 8
    orders = sorted(r["order"] for r in rows)
    assert orders == [1, 2, 3, 4, 4, 5, 6, 6]


def test_enumerate_table_format_is_aligned(capsys) -> None:
    code, out, _ = run_cli(capsys, "enumerate", "--max-order", "4")
    assert code == 0
    lines = data_lines(out)
    assert lines[0].split()[:3] == ["order", "m", "n"]
    # header plus C1, C2, C3, C4, C2xC2
    assert len(lines) == 6


def test_enumerate_csv_round_trips(capsys) -> None:
    code, out, _ = run_cli(capsys, "enumerate", "--max-order", "8", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["order"] for r in rows} <= {"1", "2", "3", "4", "5", "6", "7", "8"}
    assert all(int(r["m"]) * int(r["n"]) == int(r["order"]) for r in rows)


def test_enumerate_output_independent_of_jobs(capsys) -> None:
    _, solo, _ = run_cli(capsys, "enumerate", "--max-order", "24", "--format", "csv")
    _, multi, _ = run_cli(capsys, "enumerate", "--max-order", "24", "--format",
                          "csv", "--jobs", "3")
    assert solo == multi


def test_mcinv_command_golden(capsys) -> None:
    code, out, _ = run_cli(capsys, "mcinv", "8", "2", "0", "5", "--format", "json")
    assert code == 0
    row = json.loads(data_lines(out)[0])
    assert row == {"m": 4, "n": 4, "s": 2, "m_prime": 4, "delta_gen": 3}


def test_mcinv_rejects_inconsistent_presentation(capsys) -> None:
    code, _, err = run_cli(capsys, "mcinv", "16", "2", "0", "3")
    assert code == 1
    assert "error:" in err and "t^n" in err


def test_construct_round_trips_through_mcinv(capsys) -> None:
    code, out, _ = run_cli(capsys, "construct", "4", "2", "2", "4", "3",
                           "--format", "json")
    assert code == 0
    row = json.loads(data_lines(out)[0])
    code, out, _ = run_cli(capsys, "mcinv", str(row["m"]), str(row["n"]),
                           str(row["s_res"]), str(row["t"]), "--format", "json")
    assert code == 0
    assert json.loads(data_lines(out)[0]) == {"m": 4, "n": 2, "s": 2,
                                              "m_prime": 4, "delta_gen": 3}


def test_construct_accepts_zero_s_alias(capsys) -> None:
    code_a, out_a, _ = run_cli(capsys, "construct", "4", "2", "0", "4", "3",
                               "--format", "json")
    code_b, out_b, _ = run_cli(capsys, "construct", "4", "2", "4", "4", "3",
                               "--format", "json")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_construct_reports_unrealizable_tuple(capsys) -> None:
    code, _, err = run_cli(capsys, "construct", "8", "2", "8", "4", "3")
    assert code == 1
    assert "error:" in err and "not realizable" in err


def test_wedderburn_command_s3(capsys) -> None:
    code, out, _ = run_cli(capsys, "wedderburn", "3", "2", "0", "2",
                           "--format", "json")
    assert code == 0
    rows = [json.loads(ln) for ln in data_lines(out)]
    assert sorted(r["dim"] for r in rows) == [1, 1, 4]
    big = max(rows, key=lambda r: r["dim"])
    assert big["conductor"] == 3 and big["y"] == 0


def test_wedderburn_table_shows_center(capsys) -> None:
    code, out, _ = run_cli(capsys, "wedderburn", "9", "3", "0", "4")
    assert code == 0
    assert "Q(zeta_3)" in out


def test_isoq_distinguishes_quaternion_from_dihedral(capsys) -> None:
    code, out, _ = run_cli(capsys, "isoq", "4", "2", "2", "3", "4", "2", "0", "3",
                           "--format", "json")
    assert code == 0
    rows = {r["comparison"]: r["verdict"] for r in map(json.loads, data_lines(out))}
    assert rows["groups"] == "non-isomorphic"
    assert rows["algebras"] == "UNKNOWN"


def test_isoq_equal_presentations(capsys) -> None:
    code, out, _ = run_cli(capsys, "isoq", "3", "2", "0", "2", "3", "2", "3", "2",
                           "--format", "json")
    assert code == 0
    rows = {r["comparison"]: r["verdict"] for r in map(json.loads, data_lines(out))}
    assert rows["groups"] == "isomorphic"
    assert rows["algebras"] == "EQUAL"


def test_verify_small_bound_passes(capsys) -> None:
    code, out, err = run_cli(capsys, "verify", "--max-order", "16",
                             "--checks", "roundtrip,dimension,perlis-walker",
                             "--format", "json")
    assert code == 0
    summaries = [json.loads(ln) for ln in data_lines(out)]
    assert {s["check"] for s in summaries} == {"roundtrip", "dimension",
                                               "perlis-walker"}
    assert all(s["status"] == "pass" for s in summaries)
    assert "[verify] roundtrip:" in err


def test_verify_surfaces_displayed_table_findings_without_failing(capsys) -> None:
    # order 24 reaches the first counting-regime group; the displayed-table
    # mismatch appears as an n/a finding and must not flip the exit code
    code, out, _ = run_cli(capsys, "verify", "--max-order", "24",
                           "--checks", "countC", "--format", "json")
    assert code == 0
    rows = [json.loads(ln) for ln in data_lines(out)]
    notes = [r for r in rows if r["status"] == "n/a"]
    assert notes and all("displayed-table" in r["check"] for r in notes)
    summary = [r for r in rows if r["group"] == "summary"]
    assert summary[0]["status"] == "pass"


def test_verify_iso_oracle_small(capsys) -> None:
    code, _, err = run_cli(capsys, "verify", "--max-order", "12",
                           "--checks", "iso-oracle")
    assert code == 0
    assert "iso-oracle" in err


def test_verify_output_independent_of_jobs(capsys) -> None:
    args = ("verify", "--max-order", "32", "--checks",
            "roundtrip,dimension,recoverR,degpag", "--format", "csv")
    _, solo, _ = run_cli(capsys, *args)
    code, multi, _ = run_cli(capsys, *args, "--jobs", "4")
    assert code == 0
    assert solo == multi


def test_jobs_are_capped_at_the_available_cpus(monkeypatch) -> None:
    """A huge --jobs starts no more workers than the process can run on;
    the recorder stands in for the pool, so no process is started."""
    recorded = []

    class Recorder:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    findings, summaries = cli.run_checks(("roundtrip",), 16, jobs=10**6)
    assert all(w <= os.cpu_count() for w in recorded)
    assert findings == [] and summaries[0]["lhs"] == len(invariants.valid_tuples(16))


def test_importing_the_cli_leaves_multiprocessing_unloaded(child_env) -> None:
    """`run_checks` imports the process pool only when it starts workers,
    so a one-process run does not load `multiprocessing`."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, metacyclic.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_the_sweep_builds_no_order_table(monkeypatch) -> None:
    """Every check but iso-oracle reads element orders in closed form:
    the sweep up to 128 passes with `order_table` patched to raise."""
    def refuse(self):
        raise AssertionError(f"order_table of {self!r}")

    monkeypatch.setattr(MetacyclicGroup, "order_table", refuse)
    names = tuple(name for name in CHECK_NAMES if name != "iso-oracle")
    findings, summaries = cli.run_checks(names, 128)
    assert all(f["status"] != "fail" for f in findings)
    assert [s["status"] for s in summaries] == ["pass"] * len(names)


def test_the_sweep_validates_each_tuple_once(monkeypatch) -> None:
    """`valid_tuples` validates every tuple it returns, so once it is
    cached the sweep only realizes them: `roundtrip` and `dimension` up to
    128 make no `validate_tuple` call."""
    invariants.valid_tuples(128)
    validate = invariants.validate_tuple
    calls = []

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(invariants, "validate_tuple", counted)
    findings, summaries = cli.run_checks(("roundtrip", "dimension"), 128)
    assert findings == []
    assert [s["lhs"] for s in summaries] == [554, 554]
    assert calls == []


def test_verify_rejects_unknown_check(capsys) -> None:
    code, _, err = run_cli(capsys, "verify", "--checks", "roundtrip,bogus")
    assert code == 1
    assert "unknown checks: bogus" in err


def test_verify_rejects_empty_and_repeated_checks(capsys) -> None:
    for checks, message in ((",", "no checks given"), (" , ", "no checks given"),
                            ("roundtrip,roundtrip", "repeated checks: roundtrip"),
                            ("degpag,roundtrip,degpag", "repeated checks: degpag")):
        code, out, err = run_cli(capsys, "verify", "--max-order", "8",
                                 "--checks", checks)
        assert code == 1, checks
        assert out == "" and err == f"error: {message}\n", checks


def test_failures_are_counted_per_check(monkeypatch) -> None:
    """Findings labelled degpag[p=...] count as failures of degpag alone."""
    real = cli.sylow_mcinv_consistency

    def first_clause_fails(G, p):
        report = real(G, p)
        return [report[0] | {"status": "fail"}] + report[1:]

    monkeypatch.setattr(cli, "sylow_mcinv_consistency", first_clause_fails)
    findings, summaries = cli.run_checks(("roundtrip", "degpag"), 16)
    want = sum(len(invariants.mcinv(invariants.construct_group(inv))[1].pi)
               for inv in invariants.valid_tuples(16))
    assert want > 0
    assert len(findings) == want
    assert all(f["check"].startswith("degpag[p=") for f in findings)
    assert [(s["check"], s["status"], s["rhs"]) for s in summaries] == [
        ("roundtrip", "pass", 0), ("degpag", "fail", want)]


def test_jobs_only_on_sweeping_commands(capsys) -> None:
    for argv in (["mcinv", "3", "2", "0", "2"], ["construct", "4", "2", "2", "4", "3"],
                 ["wedderburn", "3", "2", "0", "2"],
                 ["isoq", "3", "2", "0", "2", "3", "2", "3", "2"]):
        with pytest.raises(SystemExit):
            main(argv + ["--jobs", "2"])
    capsys.readouterr()


def test_jobs_help_says_what_each_sweep_does(capsys) -> None:
    """enumerate accepts --jobs and runs in one process; verify uses it."""
    helps = {}
    for command in ("enumerate", "verify"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        helps[command] = " ".join(capsys.readouterr().out.split())
    assert "one process" in helps["enumerate"]
    assert "parallel workers" not in helps["enumerate"]
    assert "parallel workers" in helps["verify"]


def test_max_order_cap_is_enforced(capsys) -> None:
    code, _, err = run_cli(capsys, "enumerate", "--max-order", "9999")
    assert code == 1
    assert "max_order" in err


def test_presentation_bounds_are_checked_before_allocation(capsys,
                                                          monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("a group was built from an out-of-range input")

    monkeypatch.setattr(cli, "MetacyclicGroup", refuse)
    monkeypatch.setattr(invariants, "MetacyclicGroup", refuse)
    monkeypatch.setattr(cli, "tuple_from_parts", refuse)
    huge = str(10**12)
    for argv in (["mcinv", "4097", "1", "0", "1"], ["mcinv", "1", huge, "0", "0"],
                 ["mcinv", "0", "2", "0", "1"], ["wedderburn", "1", huge, "0", "0"],
                 ["wedderburn", "4097", "1", "0", "1"],
                 ["isoq", "3", "2", "0", "2", "1", huge, "0", "0"],
                 ["isoq", "4097", "1", "0", "1", "3", "2", "0", "2"],
                 ["construct", "4097", "1", "1", "1", "1"],
                 ["construct", "1", huge, "1", "1", "1"],
                 ["construct", "4", "2", "0", "0", "1"],
                 ["construct", "4", "2", "0", "3", "1"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: "), argv


def test_all_check_names_are_wired() -> None:
    assert CHECK_NAMES == ("roundtrip", "dimension", "perlis-walker", "recoverR",
                           "degpag", "countB", "countC", "section7", "iso-oracle")


def test_console_entry_point_runs(child_env) -> None:
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from metacyclic.cli import main; "
         "sys.exit(main(['mcinv', '3', '2', '0', '2', '--format', 'csv']))"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "m,n,s,m_prime,delta_gen"


def test_construct_rejects_a_huge_s_without_factoring_it(child_env) -> None:
    """Clause (a) of `validate_tuple` reads s only at the primes of m
    outside r, so a prime s near 10^18 is rejected at once rather than
    trial-factored; a run that does not finish fails on the timeout."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from metacyclic.cli import main; "
         "sys.exit(main(['construct', '4', '2', '1000000000000000003', '4', '3']))"],
        capture_output=True, text=True, timeout=15, env=child_env)
    assert proc.returncode == 1
    assert "(a) s does not divide m; (c) m_2 exceeds 2 s_2" in proc.stderr


def test_construct_rejects_a_non_unit_action_generator(child_env) -> None:
    """The powers of a non-unit never return to 1, so `cyclic_subgroup`
    must reject 2 mod 8 before walking them; a run that does not finish
    fails on the timeout."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from metacyclic.cli import main; "
         "sys.exit(main(['construct', '8', '2', '8', '8', '2']))"],
        capture_output=True, text=True, timeout=15, env=child_env)
    assert proc.returncode == 1
    assert "not a unit" in proc.stderr
