"""Source checks over the lanespace package and its tests that need only the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lanespace"
CLI_TESTS = ROOT / "tests" / "test_cli.py"
ACCEPTANCE_TESTS = ROOT / "tests" / "test_acceptance.py"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import json\nimport os.path\nfrom x import a, b as c\nos.path.join(c)\n"
    assert unused_imports(source) == ["a", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def literal_keys(source: str, name: str) -> list:
    """Constant keys of the dict literals assigned to name, in source order, repeats kept."""
    keys = []
    for node in ast.walk(ast.parse(source)):
        targets = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) and name in targets:
            keys += [key.value for key in node.value.keys if isinstance(key, ast.Constant)]
    return keys


def test_literal_keys_keep_repeats():
    source = 'ROWS = {"a": 1, "b": 2, "a": 3}\nOTHER = {"c": 4}\n'
    assert literal_keys(source, "ROWS") == ["a", "b", "a"]


def test_bad_input_rows_have_unique_names():
    # a dict literal keeps only the last row of a repeated name, so the earlier case never runs
    names = literal_keys(CLI_TESTS.read_text(), "BAD_INPUTS")
    assert names
    assert sorted({name for name in names if names.count(name) > 1}) == []


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names and attribute names, not the ones it defines or stores."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(source: str) -> set[str]:
    """Names a module imports with from ... import."""
    tree = ast.parse(source)
    nodes = (node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom))
    return {alias.name for node in nodes for alias in node.names}


def exported_names(source: str) -> list[str]:
    """The string entries of a module's __all__ list."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [element.value for element in node.value.elts]
    return []


def test_name_helpers():
    source = '__all__ = ["f", "g"]\nfrom m import h\ndef f(x):\n    y = x.attr\n    return g(y)\n'
    assert exported_names(source) == ["f", "g"]
    assert read_names(source) == {"attr", "g", "x", "y"}
    assert imported_names(source) == {"h"}


def test_every_export_has_a_reader():
    # an export that only its own tests call is dead code
    read = set().union(*(read_names(path.read_text()) for path in MODULES + SCRIPTS))
    read |= imported_names(ACCEPTANCE_TESTS.read_text())
    exported = exported_names((PACKAGE / "__init__.py").read_text())
    assert exported
    assert sorted(set(exported) - read) == []
