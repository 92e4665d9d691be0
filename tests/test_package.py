"""Structure of the package itself: modules share only public names, and
the package ships only what its own code, scripts or benchmark use."""
import ast
import importlib
from pathlib import Path

import phardy

SRC = Path(phardy.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


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
        if any(name in ("dpttrf", "dpttrs") for _, name in _imports(path))
    )
    assert users == ["forms.py"]


def _references(path):
    """Every name a source file uses: names, attributes, string constants
    (a name handed over as a string) and, in __init__.py, its exports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif isinstance(node, ast.alias) and path.name == "__init__.py":
            yield node.name


def test_every_definition_is_used_outside_the_tests():
    # reference code that only tests call belongs in tests/oracles.py
    users = [*SRC.glob("*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
    used = {name for path in users for name in _references(path)}
    unused = [
        f"{path.name}: {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert unused == []


def test_every_traced_name_exists():
    # the benchmark's tracer looks each layer up by name; a name that went
    # from the package would only show when `perfbench/run.py --trace 1` runs
    tracer = ROOT / "perfbench" / "tracer.py"
    wrapped = [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(ast.parse(tracer.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap" and isinstance(node.args[0], ast.Name)
    ]
    assert len(wrapped) >= 10
    missing = [
        f"{module}.{name}" for module, name in wrapped
        if not hasattr(importlib.import_module(f"phardy.{module}"), name)
    ]
    assert missing == []
