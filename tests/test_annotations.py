"""Every name an annotation in the package uses is bound in its module.

With ``from __future__ import annotations`` an annotation is a string that
only ``typing.get_type_hints`` evaluates, in the module's namespace: a name
missing there is no error at import, only a ``NameError`` later.  This reads
each source file with ``ast``, without importing it.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "diatomic_waves").glob("*.py"))


def _module_names(tree: ast.Module) -> set[str]:
    """Names bound at module level: imports, definitions and assignment
    targets, also inside top-level ``if``, ``try``, ``with`` and ``for``
    blocks, but not inside functions or classes."""
    names: set[str] = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        targets = []
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = [node.target]
        elif isinstance(node, ast.With):
            targets = [item.optional_vars for item in node.items if item.optional_vars]
        for target in targets:
            names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        for field in ("body", "orelse", "finalbody", "handlers"):
            stack.extend(getattr(node, field, []))
    return names


def _annotations(tree: ast.Module):
    """Every argument, return and variable annotation, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(annotation: ast.expr):
    """``(line, name)`` of every name an annotation reads, strings parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for line, name in _used_names(ast.parse(node.value, mode="eval").body):
                yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_annotation_names_are_bound_in_their_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _module_names(tree) | set(dir(builtins))
    unbound = [
        f"{path.name}:{line}: {name}"
        for annotation in _annotations(tree)
        for line, name in _used_names(annotation)
        if name not in bound
    ]
    assert not unbound
