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


def _names_in_annotation(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _names_in_annotation(ast.parse(sub.value, mode="eval"))


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_names_in_annotation(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used.update(_names_in_annotation(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_names_in_annotation(node.annotation))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    package = Path(siegelalg.__file__).parent
    unused = [
        entry
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert unused == []


# Library entry points with no caller inside the package, each kept on purpose.
UNCALLED_ENTRY_POINTS = {
    "in_g_omega": "membership test for a matrix in g(Omega), the check users run on their own A",
    "graded_dims": "the five dimensions without the bases, the shortest library call",
    "gr": "shorthand constructor for Gaussian rationals in user code and tests",
    "spec_to_json": "inverse of load_domain_spec, for writing domain documents",
}


def _referenced_names(tree, skip=None):
    """Every name and attribute read in ``tree``, outside the subtree ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _package_trees():
    """Each module's tree (``__init__.py`` aside), mapped to every name read in it."""
    package = Path(siegelalg.__file__).parent
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    ]
    return {tree: _referenced_names(tree) for tree in trees}


def _has_caller(node, tree, trees):
    """Whether the name ``node`` defines is read in the package outside ``node`` itself."""
    return any(
        node.name in (_referenced_names(tree, node) if other is tree else names)
        for other, names in trees.items()
    )


def test_every_function_has_a_caller():
    trees = _package_trees()
    uncalled = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not _has_caller(node, tree, trees)
    ]
    assert sorted(uncalled) == sorted(UNCALLED_ENTRY_POINTS)


# Methods with no caller inside the package because the standard library calls them.
LIBRARY_HOOKS: dict[str, str] = {}


def test_every_public_method_has_a_caller():
    """Every method but the dunders, ``_``-prefixed ones too, is read somewhere in the package,
    so a helper left behind by a deletion fails here."""
    trees = _package_trees()
    uncalled = [
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _has_caller(node, tree, trees)
    ]
    assert sorted(uncalled) == sorted(LIBRARY_HOOKS)
