"""Every name a library or test module imports at module level is used
there, and every private helper of the library has a caller in it."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "setlp"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _imported_names(tree) - _used_names(tree)
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def _referenced_names(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_private_helpers_are_used_in_the_library():
    # (module, top-level statement, names it references), library-wide
    nodes = [(path.name, node, _referenced_names(node))
             for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text(), filename=str(path)).body]
    unused = [f"{module}:{node.name}" for module, node, _ in nodes
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and not any(node.name in refs for _, other, refs in nodes if other is not node)]
    assert not unused, f"private helpers without a caller outside their own body: {unused}"
