"""The package's export list: every name resolves, once, and nothing bound is left out."""

import ast
from pathlib import Path

import siegelalg


def _public_names_bound_in_init():
    tree = ast.parse(Path(siegelalg.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_export_resolves():
    missing = [name for name in siegelalg.__all__ if not hasattr(siegelalg, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(siegelalg.__all__) == len(set(siegelalg.__all__))


def test_exports_equal_public_bindings():
    assert set(siegelalg.__all__) == _public_names_bound_in_init()
