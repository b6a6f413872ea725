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


def _is_lru_cache(node: ast.expr) -> bool:
    """`lru_cache`, `functools.lru_cache`, either one called or not."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name == "lru_cache"


def test_process_lifetime_caches_are_the_ones_the_readme_lists() -> None:
    """Adding or removing an lru_cache means updating README "Caching" too."""
    found = {f"{path.stem}.{node.name}"
             for path in sorted(Path(metacyclic.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_is_lru_cache(d) for d in node.decorator_list)}
    assert found == {
        "numth._factor", "numth._canonical", "invariants.derive_rek", "invariants.valid_tuples",
        "invariants.mcinv", "wedderburn.fixed_field", "wedderburn.decomposition",
    }


def _traced_names() -> dict[str, tuple[str, ...]]:
    """`TRACED` of perfbench/spans.py, read from its source."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/spans.py assigns no TRACED")


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id in ("property", "cached_property")
               for d in node.decorator_list)


def _plain_functions(body: list[ast.stmt]) -> set[str]:
    """Functions defined in `body` that are not properties."""
    return {node.name for node in body
            if isinstance(node, ast.FunctionDef) and not _is_property(node)}


def test_traced_names_are_plain_functions() -> None:
    """The tracer wraps each `TRACED` name with `setattr`: module-level
    functions in every module that holds them, and the `group` entries on
    `MetacyclicGroup`.  A renamed function, or a method turned into a
    property, would leave a traced run measuring nothing or failing."""
    package = Path(metacyclic.__file__).parent
    missing = []
    for module, names in _traced_names().items():
        body = ast.parse((package / f"{module}.py").read_text()).body
        if module == "group":
            body = next(node.body for node in body
                        if isinstance(node, ast.ClassDef) and node.name == "MetacyclicGroup")
        missing += [f"{module}.{name}" for name in names
                    if name not in _plain_functions(body)]
    assert missing == []


def _references(tree: ast.AST) -> list[tuple[str, bool, frozenset[ast.AST]]]:
    """(name, read as an attribute, enclosing function definitions) for
    each name the tree reads."""
    found: list[tuple[str, bool, frozenset[ast.AST]]] = []

    def visit(node: ast.AST, inside: frozenset[ast.AST]) -> None:
        if isinstance(node, ast.Name):
            found.append((node.id, False, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, True, inside))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_function_in_the_package_is_reached() -> None:
    """A function or method of `src/metacyclic/` that nothing in the
    package reads outside its own body, that `metacyclic.__all__` does not
    export and that perfbench's `TRACED` does not wrap is dead code: it
    belongs in `tests/oracles.py`, if a test needs it, or nowhere.  A
    method is read only as an attribute, so a function of the same name
    does not keep it.  Dunders and properties are reached through the
    data model."""
    package = Path(metacyclic.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    methods = {node for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    kept = set(metacyclic.__all__)
    traced = {(module, name) for module, names in _traced_names().items() for name in names}
    dead = [f"{module}.{node.name}:{node.lineno}"
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not _is_property(node)
            and node.name not in kept
            and (module, node.name) not in traced
            and not any(name == node.name and (attr or node not in methods)
                        and node not in inside for name, attr, inside in refs)]
    assert dead == []
