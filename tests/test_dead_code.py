"""Guards against dead code in the package: unused imports and private names."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "difflaw").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _used_names(tree) -> set:
    """Names a module reads: loaded names, attribute names and strings (for __all__)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # a name listed in __all__
    return used


# a package's __init__ imports its modules and names to re-export them
@pytest.mark.parametrize("name", [name for name in TREES if name != "__init__.py"])
def test_every_import_is_used(name):
    tree = TREES[name]
    used = _used_names(tree)
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_private_name_is_referenced():
    # a module-level _name that no module reads or imports is dead
    referenced = set()
    for tree in TREES.values():
        referenced |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            dead += [
                f"{name}:{private}"
                for private in names
                if private.startswith("_") and not private.startswith("__")
                and private not in referenced
            ]
    assert not dead, f"private names nothing in src/ references: {dead}"
