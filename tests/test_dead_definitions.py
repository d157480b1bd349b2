"""Nothing in ``src/repro`` is defined that nothing uses.

A function or class whose name occurs once as an identifier across
``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` — its own
definition — has no caller, no test and no re-export: delete it. The
count reads the syntax tree, so names in f-string fields count and
names in strings or comments do not. Dunder methods (called by the
interpreter) and ``@register``-decorated workload classes (reached
through the registry by name) are exempt.
"""

from __future__ import annotations

import ast
import collections
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _identifiers(tree):
    """Every identifier in *tree*, dotted import paths split, string and
    number constants skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            continue
        for field, value in ast.iter_fields(node):
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, str) and field != "type_comment":
                    yield from item.split(".")


def _exempt(node):
    name = node.name
    return (name.startswith("__") and name.endswith("__")) or any(
        isinstance(decorator, ast.Name) and decorator.id == "register"
        for decorator in node.decorator_list
    )


def dead_definitions(root=ROOT):
    """``path:line name`` of every unused definition under *root*."""
    trees = {
        path: ast.parse(path.read_text())
        for tree in ("src", "tests", "benchmarks", "examples")
        for path in sorted((root / tree).rglob("*.py"))
    }
    counts = collections.Counter(
        name for tree in trees.values() for name in _identifiers(tree)
    )
    return [
        f"{path.relative_to(root)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.is_relative_to(root / "src" / "repro")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _exempt(node) and counts[node.name] == 1
    ]


def test_every_definition_is_used():
    assert dead_definitions() == []
