from __future__ import annotations

import ast
from pathlib import Path

import metacyclic


def _is_assertion(node: ast.AST) -> bool:
    """An `assert` statement or a `raise AssertionError`."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def test_package_has_no_assert_statements() -> None:
    """`python -O` strips `assert`, and the CLI turns InvariantError, not
    AssertionError, into exit status 2, so invariants raise InvariantError."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(metacyclic.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _is_assertion(node)]
    assert found == []
