"""Every import under src/ is used and every SpectraError subclass is raised
or caught: AST scans standing in for a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nimport numpy as np\nfrom typing import Dict\n"
                   "x: Dict = np.zeros(1)\n")
    assert unused_imports(mod) == [(1, "os")]


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def unused_errors(paths):
    """SpectraError subclasses defined in ``paths`` that no ``raise`` or
    ``except`` there names."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    bases = {node.name: [_name(b) for b in node.bases]
             for node in nodes if isinstance(node, ast.ClassDef)}

    def is_error(name):
        return name == "SpectraError" or any(is_error(b)
                                             for b in bases.get(name, ()))

    named = set()
    for node in nodes:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            named.add(_name(exc.func if isinstance(exc, ast.Call) else exc))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type
            named.update(_name(t) for t in
                         (types.elts if isinstance(types, ast.Tuple)
                          else [types]))
    return sorted(name for name in bases if name != "SpectraError"
                  and is_error(name) and name not in named)


def test_every_error_is_raised_or_caught():
    assert unused_errors(MODULES) == []


def test_scan_finds_an_unused_error(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class SpectraError(Exception):\n    pass\n\n\n"
        "class Raised(SpectraError):\n    pass\n\n\n"
        "class Caught(Raised):\n    pass\n\n\n"
        "class Planted(Raised):\n    pass\n\n\n"
        "class Other(Exception):\n    pass\n")
    (tmp_path / "mod.py").write_text(
        "from . import errors\n\n\n"
        "def f():\n    try:\n        raise errors.Raised('x')\n"
        "    except (errors.Caught, KeyError):\n        pass\n")
    assert unused_errors(sorted(tmp_path.glob("*.py"))) == ["Planted"]
