"""Byte-identical CLI output: sha256 digests of six fixed runs.

A refactor that should change nothing must keep these digests.  A change
that alters output on purpose updates them and says why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io

from metacyclic.cli import _emit, cmd_mcinv, consistent_presentations, main

# Every check but iso-oracle, whose cost at its cap would dominate.
CHECKS = "roundtrip,dimension,perlis-walker,recoverR,degpag,countB,countC,section7"
# S3, Q8, D8, M16, Q16, the order-27 group of exponent 9, and five more
# up to order 189.
PRESENTATIONS = ((3, 2, 0, 2), (4, 2, 2, 3), (4, 2, 0, 3), (8, 2, 0, 5),
                 (8, 2, 4, 7), (9, 3, 0, 4), (12, 4, 6, 5), (24, 2, 6, 5),
                 (32, 2, 0, 31), (12, 12, 6, 11), (21, 9, 0, 16))
# Orders 384 to 512, where normalizers of large index and long
# conjugation orbits do the most work.
LARGE_PRESENTATIONS = ((48, 8, 0, 5), (96, 4, 0, 7), (32, 16, 0, 3),
                       (64, 8, 32, 9))


def _digest(*argvs: list[str]) -> str:
    buf = io.StringIO()
    for argv in argvs:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0, argv
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_verify_output_digest() -> None:
    assert _digest(["verify", "--max-order", "64", "--checks", CHECKS,
                    "--format", "json"]) == \
        "dbc092012b8b560f4898f49b403522f49a927e7b4eb2a6af50db24553ec5b769"


def test_verify_csv_table_and_oracle_digest() -> None:
    # The csv writer over every group check (each has a nonzero checked
    # count at 48), and the table writer over the iso-oracle summary row.
    assert _digest(["verify", "--max-order", "48", "--checks", CHECKS,
                    "--format", "csv"],
                   ["verify", "--max-order", "24", "--checks", "iso-oracle",
                    "--format", "table"]) == \
        "df5709f724cb5d9b2dc14ddfb38075d57e7e5ed8102091e53acda4f3a9e101bd"


def test_enumerate_output_digest() -> None:
    assert _digest(["enumerate", "--max-order", "128", "--format", "json"]) == \
        "39669d8670928a67f547d77d290c9ee800a95de060d36b5fe87b77c2c108924e"


def _wedderburn_digest(presentations) -> str:
    return _digest(*[["wedderburn", *map(str, key), "--format", "json"]
                     for key in presentations])


def test_wedderburn_output_digest() -> None:
    assert _wedderburn_digest(PRESENTATIONS) == \
        "4f2986d93bd900b75cae1c5c8805263a4361856c99067d18613dd22a34097263"
    assert _wedderburn_digest(LARGE_PRESENTATIONS) == \
        "1e7012829b45b65c601996f6ed1e6911921574ef750850f22c5255e250feb8c0"


def test_mcinv_output_digest() -> None:
    # The bytes of `mcinv m n s t --format json` for every presentation
    # with m*n <= 64, written without building 3786 argument parsers.
    buf = io.StringIO()
    for G in consistent_presentations(64):
        _emit(cmd_mcinv(*G.key), "json", buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "b6e475424374486ff0786fd4b1e1e383148ce3001beaad6c7aea8583d045e7e8"
