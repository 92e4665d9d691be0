"""Structure of the package itself: modules share only public names."""
import ast
from pathlib import Path

import phardy

SRC = Path(phardy.__file__).resolve().parent


def _imports(path):
    """(module, name) for every `from module import name` in a source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name


def test_no_private_names_imported_across_modules():
    private = [
        f"{path.name}: from {module} import {name}"
        for path in sorted(SRC.glob("*.py"))
        for module, name in _imports(path)
        if name.startswith("_") and (module.startswith(".") or module.startswith("phardy"))
    ]
    assert private == []


def test_banded_solver_imported_only_by_forms():
    users = sorted(
        path.name
        for path in SRC.glob("*.py")
        if any(name == "solveh_banded" for _, name in _imports(path))
    )
    assert users == ["forms.py"]
