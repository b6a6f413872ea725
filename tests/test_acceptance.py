"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line on the real stdout (bypassing
capture) so the criterion results stay visible in batch logs, then
asserts.  Every criterion is an exhaustive enumeration up to its stated
order bound with exact equalities throughout; nothing is sampled.
"""
from __future__ import annotations

import sys
from collections import Counter

from metacyclic.cli import check_iso_oracle, consistent_presentations, run_checks
from metacyclic.group import MetacyclicGroup
from metacyclic.invariants import mcinv, valid_tuples
from metacyclic.wedderburn import (
    RATIONALS,
    UNKNOWN,
    compare_algebras,
    cyclotomic_field,
    decomposition,
)


def report(capsys, index: int, name: str, failures: list, checked: int,
           notes: str = "") -> None:
    verdict = "PASS" if not failures else "FAIL"
    extra = f", {notes}" if notes else ""
    line = f"[acceptance] {index:02d} {name}: {verdict} ({checked} checked{extra})"
    with capsys.disabled():
        print(line, file=sys.stdout, flush=True)
    assert not failures, failures[:5]


def cli_check(names: tuple[str, ...], bound: int) -> tuple[int, list, int]:
    """(checked, failures, n/a flags) of the CLI's own checks up to `bound`."""
    findings, summaries = run_checks(names, bound)
    checked = sum(s["lhs"] for s in summaries)
    failures = [f for f in findings if f["status"] == "fail"]
    flagged = sum(1 for f in findings if f["status"] == "n/a")
    return checked, failures, flagged


def test_criterion_01_classification_round_trip(capsys) -> None:
    checked, failures, _ = cli_check(("roundtrip",), 200)
    report(capsys, 1, "classification round-trip, m*n <= 200", failures, checked)


def test_criterion_02_isomorphism_completeness(capsys) -> None:
    checked, findings = check_iso_oracle(64)
    report(capsys, 2, "brute-force isomorphism vs tuple equality, m*n <= 64",
           findings, checked)


def test_criterion_03_realizability(capsys) -> None:
    realized = {mcinv(G)[0] for G in consistent_presentations(128)}
    valid = set(valid_tuples(128))
    failures = [("realized but not valid", inv.to_json())
                for inv in realized - valid]
    failures += [("valid but never realized", inv.to_json())
                 for inv in valid - realized]
    report(capsys, 3, "tuple validity iff realizability, m*n <= 128", failures,
           len(valid))


def test_criterion_04_wedderburn_dimension_identity(capsys) -> None:
    checked, failures, _ = cli_check(("dimension",), 256)
    report(capsys, 4, "sum of component dimensions equals group order, <= 256",
           failures, checked)


def test_criterion_05_perlis_walker_slice(capsys) -> None:
    checked, failures, _ = cli_check(("perlis-walker",), 256)
    report(capsys, 5, "commutative part matches the abelianization formula, <= 256",
           failures, checked)


def test_criterion_06_golden_decompositions(capsys) -> None:
    failures = []

    def expect(cond: bool, label: str) -> None:
        if not cond:
            failures.append(label)

    s3 = decomposition(MetacyclicGroup(3, 2, 0, 2))
    expect(sorted(c.q_dimension for c in s3) == [1, 1, 4], "S3 dims")
    big = max(s3, key=lambda c: c.q_dimension)
    expect(big.center == RATIONALS and big.y == 0, "S3 M2(Q) split component")

    q8 = decomposition(MetacyclicGroup(4, 2, 2, 3))
    expect(sorted(c.q_dimension for c in q8) == [1, 1, 1, 1, 4], "Q8 dims")
    big = max(q8, key=lambda c: c.q_dimension)
    expect(big.conductor == 4 and big.y == 2 and big.center == RATIONALS,
           "Q8 quaternion component (conductor 4, twist 2)")

    d8 = decomposition(MetacyclicGroup(4, 2, 0, 3))
    expect(sorted(c.q_dimension for c in d8) == [1, 1, 1, 1, 4], "D8 dims")
    big = max(d8, key=lambda c: c.q_dimension)
    expect(big.conductor == 4 and big.y == 0, "D8 split component")

    m27 = decomposition(MetacyclicGroup(9, 3, 0, 4))
    expect(Counter(c.q_dimension for c in m27) == {1: 1, 2: 4, 18: 1},
           "order 27 dims")
    big = max(m27, key=lambda c: c.q_dimension)
    expect(big.total_degree == 3 and big.center == cyclotomic_field(3),
           "order 27 degree-3 component over Q(zeta_3)")

    verdict = compare_algebras(MetacyclicGroup(4, 2, 2, 3),
                               MetacyclicGroup(4, 2, 0, 3))
    expect(verdict == UNKNOWN, f"Q8 vs D8 comparator returned {verdict}")

    report(capsys, 6, "golden decompositions and comparator caution", failures, 5)


def test_criterion_07_recover_r_and_max_degree(capsys) -> None:
    checked, failures, _ = cli_check(("recoverR",), 256)
    report(capsys, 7, "action subgroup and top degree recovered from the algebra, "
           "<= 256", failures, checked)


def test_criterion_08_sylow_tuple_consistency(capsys) -> None:
    checked, failures, _ = cli_check(("degpag",), 256)
    report(capsys, 8, "local/global tuple comparison clauses, <= 256", failures,
           checked)


def test_criterion_09_component_counting(capsys) -> None:
    checked, failures, flagged = cli_check(("countB", "countC"), 512)
    report(capsys, 9, "component counts match the derived formulas, <= 512", failures,
           checked, notes=f"{flagged} displayed-table flags")


def test_criterion_10_section7_witnesses(capsys) -> None:
    checked, failures, _ = cli_check(("section7",), 512)
    report(capsys, 10, "witness pairs satisfy the degree and center identities, "
           "<= 512", failures, checked)
