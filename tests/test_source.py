from __future__ import annotations

import ast
from pathlib import Path

import metacyclic


def test_package_has_no_assert_statements() -> None:
    """`python -O` strips `assert`, so invariants raise InvariantError."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(metacyclic.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
