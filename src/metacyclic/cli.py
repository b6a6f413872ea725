"""Batch command line interface.

Subcommands: enumerate (classification table), mcinv (classify a
presentation), construct (presentation from a classifying tuple),
wedderburn (rational group algebra decomposition), isoq (isomorphism
query for groups and algebras side by side), verify (the property-check
suite).  Data goes to stdout; stderr carries only errors and the
`[verify]` summary lines.  Output bytes are independent of --jobs.

Every row of `verify` is `{check, status, lhs, rhs, group}`, built by
`invariants.check_entry`, with `status` one of pass, fail and n/a.  Each
check returns such rows, and one rule counts them: a row is checked
unless it is n/a, and a failure when it fails.  Only the rows that do
not pass are printed, followed by one summary row per check (lhs the
checked count, rhs the failures).  The one printed n/a row is the
countC flag where the displayed degree-l table disagrees with the count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from .analysis import (
    a1a2_components,
    count_B,
    count_C,
    formula_NE,
    formula_NG,
    max_degree_branch,
    recover_R,
    regime_U,
    section7_witness,
)
from .group import InvariantError, MetacyclicGroup
from .invariants import (
    MCInv,
    check_entry,
    construct_group,
    isomorphic,
    mcinv,
    realize,
    sylow_mcinv_consistency,
    tuple_from_parts,
    valid_tuples,
)
from .numth import part, units
from .wedderburn import (
    commutative_conductors,
    compare_algebras,
    decomposition,
    perlis_walker_conductors,
)

MAX_ORDER_LIMIT = 4096
ISO_ORACLE_CAP = 64
FORMATS = ("table", "json", "csv")


class _RunFields(NamedTuple):
    max_order: int = 64
    format: str = "table"
    jobs: int = 1


class RunConfig(_RunFields):
    """The settings of one `enumerate` or `verify` run, checked when built."""

    __slots__ = ()

    def __new__(cls, max_order: int = 64, format: str = "table", jobs: int = 1):
        if not 1 <= max_order <= MAX_ORDER_LIMIT:
            raise ValueError(f"max_order must lie in 1..{MAX_ORDER_LIMIT}")
        if format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if jobs < 1:
            raise ValueError("jobs must be positive")
        return super().__new__(cls, max_order, format, jobs)


# ---------------------------------------------------------------------------
# output


def _flat(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    return str(value)


def _emit(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for row in rows:
            out.write(json.dumps(row) + "\n")
        return
    if not rows:
        return
    header = list(rows[0].keys())
    if fmt == "csv":
        import csv as _csv

        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_flat(row[k]) for k in header])
        return
    cells = [[_flat(row[k]) for k in header] for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for c in cells:
        out.write("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip() + "\n")


# ---------------------------------------------------------------------------
# plain commands


def _tuple_row(inv: MCInv, G: MetacyclicGroup) -> dict:
    row = {"order": inv.order}
    row.update(inv.to_json())
    row["s_res"] = G.s
    row["t"] = G.t
    return row


def cmd_enumerate(cfg: RunConfig) -> list[dict]:
    """One row per isomorphism class, sorted by the classifying tuple.
    `valid_tuples` has validated every tuple, so each is only realized."""
    return [_tuple_row(inv, realize(inv))
            for inv in valid_tuples(cfg.max_order)]


def _check_order(m: int, n: int) -> None:
    """Reject a presentation before anything of its size is allocated."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m * n > MAX_ORDER_LIMIT:
        raise ValueError(f"group order m*n = {m * n} exceeds {MAX_ORDER_LIMIT}")


def cmd_mcinv(m: int, n: int, s: int, t: int) -> list[dict]:
    _check_order(m, n)
    G = MetacyclicGroup(m, n, s, t)
    return [mcinv(G)[0].to_json()]


def cmd_construct(m: int, n: int, s: int, m_prime: int, delta_gen: int) -> list[dict]:
    _check_order(m, n)
    if m_prime < 1 or m % m_prime:
        raise ValueError(f"m' = {m_prime} must be a positive divisor of m = {m}")
    inv = tuple_from_parts(m, n, s if s else m, m_prime, delta_gen)
    return [_tuple_row(inv, construct_group(inv))]


def cmd_wedderburn(m: int, n: int, s: int, t: int, fmt: str) -> list[dict]:
    _check_order(m, n)
    G = MetacyclicGroup(m, n, s, t)
    rows = []
    for c in decomposition(G):
        data = c.to_json()
        if fmt != "json":
            data["center"] = repr(c.center)
        rows.append(data)
    return rows


def cmd_isoq(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> list[dict]:
    _check_order(*a[:2])
    _check_order(*b[:2])
    G, H = MetacyclicGroup(*a), MetacyclicGroup(*b)
    groups = "isomorphic" if isomorphic(G, H) else "non-isomorphic"
    return [
        {"comparison": "groups", "verdict": groups},
        {"comparison": "algebras", "verdict": compare_algebras(G, H)},
    ]


# ---------------------------------------------------------------------------
# verification checks

# Every check walks the classifying tuples up to the order bound.  A
# group check returns `check_entry` rows; `_group_work` counts and labels
# them by one rule.  The brute-force isomorphism oracle is quadratic in
# the number of presentations and is capped separately.


def _check_roundtrip(inv: MCInv, G: MetacyclicGroup) -> list[dict]:
    got = mcinv(G)[0]
    return [check_entry("roundtrip", got == inv, inv.to_json(), got.to_json())]


def _check_dimension(inv: MCInv, G: MetacyclicGroup) -> list[dict]:
    total = sum(c.q_dimension for c in decomposition(G))
    return [check_entry("dimension", total == G.order, total, G.order)]


def _check_perlis_walker(inv: MCInv, G: MetacyclicGroup) -> list[dict]:
    got = commutative_conductors(decomposition(G))
    want = perlis_walker_conductors(G.abelianization_invariants())
    return [check_entry("perlis-walker", got == want, list(got), list(want))]


def _check_recover_r(inv: MCInv, G: MetacyclicGroup) -> list[dict]:
    der = mcinv(G)[1]
    m_pp = part(inv.m, der.pi_prime)
    cands = a1a2_components(decomposition(G), m_pp)
    got = recover_R(cands, m_pp)
    deg = max(c.total_degree for c in cands)
    branch = max_degree_branch(G)
    return [check_entry("recoverR", got == der.R, repr(got), repr(der.R)),
            check_entry("recoverR", deg == branch, deg, branch)]


def _per_prime(check: str, report_of, G: MetacyclicGroup) -> list[dict]:
    """The rows of report_of(G, p) over the primes p in pi that are not
    n/a, each renamed check[p=...] <its name>."""
    out = []
    for p in mcinv(G)[1].pi:
        prefix = f"{check}[p={p}] "
        for entry in report_of(G, p):
            if entry["status"] != "n/a":
                entry["check"] = prefix + entry["check"]
                out.append(entry)
    return out


def _check_degpag(inv: MCInv, G: MetacyclicGroup) -> list[dict]:
    return _per_prime("degpag", sylow_mcinv_consistency, G)


def _check_count_b(inv: MCInv, G: MetacyclicGroup) -> list[dict]:
    want = formula_NE(G)
    if want is None:
        return []
    got = count_B(G)
    return [check_entry("countB", got == want, got, want)]


def _check_count_c(inv: MCInv, G: MetacyclicGroup) -> list[dict]:
    """One row per prime of the counting regime, and a printed, uncounted
    n/a row where the displayed degree-l table disagrees with the count."""
    out = []
    for p in mcinv(G)[1].pi:
        if not regime_U(G, p):
            continue
        got = count_C(G, p)
        want, displayed = formula_NG(G, p)
        out.append(check_entry(f"countC[p={p}]", got == want, got, want))
        if displayed != got:
            out.append(check_entry(f"countC[p={p}] displayed-table branch",
                                   False, got, displayed) | {"status": "n/a"})
    return out


def _check_section7(inv: MCInv, G: MetacyclicGroup) -> list[dict]:
    return _per_prime("section7", section7_witness, G)


_GROUP_CHECKS = {
    "roundtrip": _check_roundtrip,
    "dimension": _check_dimension,
    "perlis-walker": _check_perlis_walker,
    "recoverR": _check_recover_r,
    "degpag": _check_degpag,
    "countB": _check_count_b,
    "countC": _check_count_c,
    "section7": _check_section7,
}
CHECK_NAMES = (*_GROUP_CHECKS, "iso-oracle")


def _group_work(item: tuple[MCInv, tuple[str, ...]]):
    """({check: (checked, failures)}, findings) of one group.  A row is
    checked unless it is n/a and a failure when it fails; every row that
    does not pass is a finding, labelled with the group's tuple.  The
    tuple comes from `valid_tuples`, which has validated it, so it is
    only realized."""
    inv, names = item
    G = realize(inv)
    label = f"({inv.m},{inv.n},{inv.s},<{inv.delta_gen}>_{inv.m_prime})"
    counts = {}
    findings = []
    for name in names:
        rows = _GROUP_CHECKS[name](inv, G)
        checked, failed = len(rows), 0
        for row in rows:
            status = row["status"]
            if status != "pass":
                findings.append(row | {"group": label})
                if status == "fail":
                    failed += 1
                else:  # n/a: printed, not counted
                    checked -= 1
        counts[name] = (checked, failed)
    return counts, findings


def consistent_presentations(max_order: int) -> list[MetacyclicGroup]:
    """Every (m, n, s, t) with m n <= max_order accepted by the group
    constructor, in lexicographic order."""
    out = []
    for m in range(1, max_order + 1):
        for n in range(1, max_order // m + 1):
            for t in units(m):
                if pow(t, n, m) != 1 % m:
                    continue
                for s in range(m):
                    if (s * (t - 1)) % m == 0:
                        out.append(MetacyclicGroup(m, n, s, t))
    return out


def check_iso_oracle(max_order: int) -> tuple[int, list[dict]]:
    """Brute-force isomorphism against tuple equality, pairwise over
    presentations of equal order.  The element orders of each presentation
    are tabulated once per order batch and dropped with it."""
    by_order: dict[int, list[MetacyclicGroup]] = {}
    for G in consistent_presentations(min(max_order, ISO_ORACLE_CAP)):
        by_order.setdefault(G.order, []).append(G)
    checked = 0
    out = []
    for order in sorted(by_order):
        batch = by_order[order]
        tables = {G: G.order_table() for G in batch}
        for i, G in enumerate(batch):
            for H in batch[i + 1:]:
                checked += 1
                want = isomorphic(G, H)
                got = G.brute_force_isomorphic(H, tables)
                if got != want:
                    out.append(check_entry("iso-oracle", False, got, want)
                               | {"group": f"{G.key} vs {H.key}"})
    return checked, out


def _cpus_available() -> int:
    """CPUs this process may run on, at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def run_checks(names: tuple[str, ...], max_order: int,
               jobs: int = 1) -> tuple[list[dict], list[dict]]:
    """(abnormal findings, per-check summary rows), deterministic order."""
    group_names = tuple(n for n in names if n != "iso-oracle")
    counts = {name: 0 for name in names}
    fails = {name: 0 for name in names}
    findings: list[dict] = []
    if group_names:
        items = [(inv, group_names) for inv in valid_tuples(max_order)]
        workers = min(jobs, _cpus_available(), len(items))
        if workers > 1:
            # Imported here: the pool loads multiprocessing, which a
            # one-process run never needs.
            from concurrent.futures import ProcessPoolExecutor

            chunk = max(1, len(items) // (workers * 8))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_group_work, items, chunksize=chunk))
        else:
            results = map(_group_work, items)
        for cnts, finds in results:
            for name, (c, f) in cnts.items():
                counts[name] += c
                fails[name] += f
            findings.extend(finds)
    if "iso-oracle" in names:
        checked, finds = check_iso_oracle(max_order)
        counts["iso-oracle"] = checked
        fails["iso-oracle"] = len(finds)
        findings.extend(finds)
    summaries = [
        check_entry(name, not fails[name], counts[name], fails[name])
        | {"group": "summary"}
        for name in names
    ]
    return findings, summaries


def cmd_verify(cfg: RunConfig, names: tuple[str, ...], out, err) -> int:
    findings, summaries = run_checks(names, cfg.max_order, cfg.jobs)
    _emit(findings + summaries, cfg.format, out)
    failed = [s for s in summaries if s["status"] == "fail"]
    for s in summaries:
        print(f"[verify] {s['check']}: {s['lhs']} checked, "
              f"{s['rhs']} failures", file=err)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metacyclic",
        description="Classify finite metacyclic groups and decompose their "
                    "rational group algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs_help=None):
        p.add_argument("--format", choices=FORMATS, default="table")
        if jobs_help:
            p.add_argument("--jobs", type=int, default=1, help=jobs_help)
            p.add_argument("--max-order", type=int, default=64,
                           help=f"largest group order, at most {MAX_ORDER_LIMIT}")

    p = sub.add_parser("enumerate",
                       help="one representative per isomorphism class")
    common(p, jobs_help="accepted for symmetry with verify; enumerate "
                        "always runs in one process")

    p = sub.add_parser("mcinv", help="classifying tuple of a presentation")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    common(p)

    p = sub.add_parser("construct",
                       help="presentation realizing a classifying tuple")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("s", type=int, help="divisor of m; 0 means b^n = 1")
    p.add_argument("m_prime", type=int)
    p.add_argument("delta_gen", type=int)
    common(p)

    p = sub.add_parser("wedderburn",
                       help="simple components of the rational group algebra")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    common(p)

    p = sub.add_parser("isoq",
                       help="group and algebra comparison of two presentations")
    for name in ("m1", "n1", "s1", "t1", "m2", "n2", "s2", "t2"):
        p.add_argument(name, type=int)
    common(p)

    p = sub.add_parser("verify", help="run the property-check suite")
    p.add_argument("--checks", default=",".join(CHECK_NAMES),
                   help="comma list from " + ",".join(CHECK_NAMES))
    common(p, jobs_help="parallel workers, at most the CPUs available; "
                        "output bytes do not depend on it")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out, err = sys.stdout, sys.stderr
    try:
        cfg = RunConfig(max_order=getattr(args, "max_order", 64),
                        format=args.format, jobs=getattr(args, "jobs", 1))
        if args.command == "enumerate":
            _emit(cmd_enumerate(cfg), cfg.format, out)
        elif args.command == "mcinv":
            _emit(cmd_mcinv(args.m, args.n, args.s, args.t), cfg.format, out)
        elif args.command == "construct":
            _emit(cmd_construct(args.m, args.n, args.s, args.m_prime,
                                args.delta_gen), cfg.format, out)
        elif args.command == "wedderburn":
            _emit(cmd_wedderburn(args.m, args.n, args.s, args.t, cfg.format),
                  cfg.format, out)
        elif args.command == "isoq":
            _emit(cmd_isoq((args.m1, args.n1, args.s1, args.t1),
                           (args.m2, args.n2, args.s2, args.t2)),
                  cfg.format, out)
        elif args.command == "verify":
            names = tuple(x.strip() for x in args.checks.split(",") if x.strip())
            unknown = [x for x in names if x not in CHECK_NAMES]
            if unknown:
                raise ValueError(f"unknown checks: {', '.join(unknown)}")
            if not names:
                raise ValueError("no checks given")
            repeated = [x for x in dict.fromkeys(names) if names.count(x) > 1]
            if repeated:
                raise ValueError(f"repeated checks: {', '.join(repeated)}")
            return cmd_verify(cfg, names, out, err)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except InvariantError as exc:
        print(f"error: {exc}", file=err)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
