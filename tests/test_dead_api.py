"""Every function, method and class defined in `src/cri` is used by name
somewhere outside its own definition, in `src/cri` or in `perfbench/`.

A use is a name or attribute in the code, or a string constant in
`perfbench/` (its tracer names the functions it wraps as strings). A use
inside the definition itself, such as a recursive call, does not count,
except `super().name(...)`: a method that calls its base's method of the
same name overrides it, and its framework calls it (`_Main.invoke`).
Imports and `__all__` entries are not uses, so a name only re-exported
still counts as dead. Dunders are exempt, and so are the `@main.command()`
functions, which click calls. Tests do not count: code that only tests
call belongs under `tests/`.

The check matches by name alone, so a name shared with another definition
or attribute can hide a dead one: the use of the one keeps the other
alive: a method named `get`, say, passes on any `dict.get` call, and a
`Policy.root` property, which nothing in `src/cri` read, passed on the
uses of `AttackTree.root` until it was deleted.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "cri"
BENCH = REPO / "perfbench"


def _is_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command"
        and isinstance(d.func.value, ast.Name)
        and d.func.value.id == "main"
        for d in node.decorator_list
    )


def _is_super(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def _uses(tree: ast.AST, strings: bool):
    """(name, line) of each use in `tree`, line None for `super().name`;
    string constants too when `strings`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, None if _is_super(node.value) else node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_definition_is_used():
    definitions = []  # (file, name, first line, last line)
    uses: dict[str, list[tuple[Path, int | None]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_package = PACKAGE in path.parents
        for name, line in _uses(tree, strings=not in_package):
            uses.setdefault(name, []).append((path, line))
        if not in_package:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__") or _is_command(node):
                continue
            definitions.append((path, node.name, node.lineno, node.end_lineno))
    dead = [
        f"{path.relative_to(REPO)}:{first} {name}"
        for path, name, first, last in definitions
        if not any(
            where != path or line is None or not first <= line <= last
            for where, line in uses.get(name, ())
        )
    ]
    assert dead == []
