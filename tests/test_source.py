"""Checks on the package source itself."""

import ast
from pathlib import Path

import labelcover as lc


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(name, node) for each module-level private function, class and
    constant; a constant's node is its assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if _private(name):
                yield name, node


def _reads(node):
    """Names read under node: plain names, and attributes such as
    ``formats._read_labelcover``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_no_private_module_level_name_is_an_orphan():
    """Every module-level private function, class and constant in the
    package is read somewhere in it outside its own definition: in its
    module, in a module that imports it by name, or as an attribute."""
    package = Path(lc.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    imported = {}  # module stem -> names other modules import from it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                imported.setdefault(node.module, set()).update(
                    alias.name for alias in node.names)
    attributes = {n.attr for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
    orphans = []
    for stem, tree in trees.items():
        for name, node in _definitions(tree):
            own = [r for r in _reads(tree) if r == name]
            inside = [r for r in _reads(node) if r == name]
            elsewhere = name in imported.get(stem, ()) and any(
                name in _reads(other) for s, other in trees.items() if s != stem)
            if len(own) == len(inside) and not elsewhere and name not in attributes:
                orphans.append(f"{stem}.{name}")
    assert len(trees) > 5
    assert orphans == []
