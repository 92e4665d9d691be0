"""Structure of the package itself: modules share only public names, and
the package ships only what its own code, scripts or benchmark use, down
to the methods and fields of its classes."""
import ast
import importlib
from pathlib import Path

import pytest

import phardy
import phardy.cli
from phardy.errors import InvalidArgumentError
from phardy.functionals import KINDS, hardy_case, weighted_hardy_case
from phardy.geometry import CoordinateRange, euclidean_radial
from phardy.weights import rho_catalog_entry

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


def _references(path):
    """Every name a source file uses: names, attributes and string constants
    (a name handed over as a string); an import, __init__.py's exports
    included, is no use of its own."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_banded_solver_imported_only_by_forms():
    # forms loads the LAPACK routines itself; no other module names them,
    # whether as a name, an attribute, a string or an imported name
    users = sorted(
        path.name
        for path in SRC.glob("*.py")
        if {"dpttrf", "dpttrs"} & {*_references(path), *(name for _, name in _imports(path))}
    )
    assert users == ["forms.py"]


def test_no_reduction_that_blas_threads():
    # OpenBLAS splits a long dot product across threads, which reorders its
    # sum, so a report would depend on the thread count; np.sum of the
    # product sums pairwise in one thread.  tensordot, and einsum once it
    # may optimize its contraction, hand their products to BLAS too
    assert _blas_reductions(SRC.glob("*.py")) == []


def _blas_reductions(paths):
    threaded = {"dot", "vdot", "inner", "matmul", "norm", "tensordot"}
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(paths)
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in threaded)
        or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
            and threaded & {alias.name for alias in node.names})
        or (_call_name(node) == "einsum" and any(k.arg == "optimize" for k in node.keywords))
    ]


def test_blas_guard_names_tensordot_and_optimized_einsum(tmp_path):
    source = tmp_path / "mod.py"
    lines = [
        "import numpy as np",
        "a = np.tensordot(x, y, axes=1)",
        "b = np.einsum('ij,j->i', x, y, optimize=True)",
        "c = np.einsum('ij,j->i', x, y)",
        "from numpy import tensordot",
    ]
    source.write_text("\n".join(lines))
    assert sorted(_blas_reductions([source])) == ["mod.py:2", "mod.py:3", "mod.py:5"]


def _definitions(tree):
    """(name, label) for every function and class a module defines at its
    top level and every method of its classes, less the dunder methods
    Python calls itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    yield method.name, f"{node.name}.{method.name}"


def test_every_definition_is_used_outside_the_tests():
    # reference code that only tests call belongs in tests/oracles.py, and an
    # export alone does not keep a definition; the one allowed is
    # ModelManifold.volume_density, read by tests alone as the reference that
    # log_volume_density is checked against
    users = [*SRC.glob("*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
    used = {name for path in users for name in _references(path)}
    unused = [
        f"{path.name}: {label}"
        for path in sorted(SRC.glob("*.py"))
        for name, label in _definitions(ast.parse(path.read_text()))
        if name not in used
    ]
    assert unused == ["geometry.py: ModelManifold.volume_density"]


def _kind_names(path, blocks=()):
    """file:line of every place a source file compares something with the
    name of an inequality kind (a key of KINDS) or matches a case pattern
    against one, and of every dict literal keyed and every subscript taken
    by one, less the names in blocks (report blocks named like a kind)."""
    def named(node, names):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(named(elt, names) for elt in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value in names

    keys = KINDS.keys() - set(blocks)
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            found = any(named(side, KINDS) for side in (node.left, *node.comparators))
        elif isinstance(node, ast.MatchValue):
            found = named(node.value, KINDS)
        elif isinstance(node, ast.Dict):
            found = any(key is not None and named(key, keys) for key in node.keys)
        elif isinstance(node, ast.Subscript):
            found = named(node.slice, keys)
        else:
            continue
        if found:
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_cli_names_no_kind():
    # every per-kind fact is a column of the kind's KINDS row, so the runner
    # treats each kind by its row, never by its name; a classification's
    # record block is called "classification" too, which is no kind test
    assert _kind_names(SRC / "cli.py", phardy.cli._REPORT_BLOCKS) == []


def test_kind_name_guard_finds_each_form(tmp_path):
    source = tmp_path / "mod.py"
    lines = [
        "if name == 'classification': pass",
        "runners = {'eigen-hardy': run}",
        "ok = name in ('gn', 'x')",
        "row = KINDS['hardy']",
        "ok = kind.source == 'model' and name != 'x' and {'p': 1}['p']",
        "blocks = {'classification': set()}; block = record['classification']",
        "match name:\n    case 'ckn': pass",
    ]
    source.write_text("\n".join(lines))
    want = ["mod.py:1", "mod.py:2", "mod.py:3", "mod.py:4", "mod.py:8"]
    assert sorted(_kind_names(source, {"classification"})) == want
    assert sorted(_kind_names(source)) == sorted(want + ["mod.py:6", "mod.py:6"])


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


def _fields(tree):
    """(class, field) for every field a class declares: each annotated name
    in its body, as a dataclass or a NamedTuple has them."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id


def _call_name(node):
    func = node.func if isinstance(node, ast.Call) else None
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _field_reads(trees):
    """Field names read in the trees: attribute loads, getattr with a literal
    name, and every field of a class whose instance goes through
    dataclasses.asdict, each class named by the return annotation of the
    call its argument, or the list it is an element of, was assigned from."""
    returns = {  # every class a return annotation names: SidePair | list[SidePair]
        node.name: [n.id for n in ast.walk(node.returns) if isinstance(n, ast.Name)]
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.returns is not None
    }
    fields = {}
    for tree in trees:
        for cls, name in _fields(tree):
            fields.setdefault(cls, []).append(name)
    for tree in trees:
        assigned = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            pairs = [(node.targets[0], node.value)]
            if isinstance(node.value, ast.Tuple) and isinstance(node.targets[0], ast.Tuple):
                pairs = zip(node.targets[0].elts, node.value.elts)  # a, b = x, y
            for target, value in pairs:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).append(value)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr
            elif _call_name(node) == "getattr" and isinstance(node.args[1], ast.Constant):
                yield node.args[1].value
            elif _call_name(node) == "asdict" and isinstance(node.args[0], ast.Name):
                seen, todo = set(), [node.args[0].id]
                while todo:
                    for value in assigned.get(todo.pop(), []):
                        if isinstance(value, ast.Subscript):  # an element of a list
                            value = value.value
                        if isinstance(value, ast.Name) and value.id not in seen:
                            seen.add(value.id)
                            todo.append(value.id)
                        for cls in returns.get(_call_name(value), []):
                            yield from fields.get(cls, [])


def test_every_field_is_read_outside_the_tests():
    # a field no code reads is dead weight on every instance; the two allowed
    # are read by tests alone: worst_raw (the sign check's unnormalized value)
    # and history (the monotone-history gate of the descent)
    users = [*SRC.glob("*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
    reads = set(_field_reads([ast.parse(path.read_text()) for path in users]))
    unread = [
        f"{cls}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for cls, name in _fields(ast.parse(path.read_text()))
        if name not in reads
    ]
    assert sorted(unread) == ["CheckResult.worst_raw", "MinimizationResult.history"]


def test_field_reads_follow_tuple_assignments():
    # asdict(worst) reads every field of the pair that worst was assigned from,
    # whether the assignment names one target or pairs several
    source = """
from dataclasses import asdict, dataclass

@dataclass
class SidePair:
    lhs: float
    constant: float

def sides_for(u) -> SidePair:
    return SidePair(u, 1.0)

def worst_of(us):
    worst_rel, worst = float("inf"), None
    for u in us:
        pair = sides_for(u)
        if u < worst_rel:
            worst_rel, worst = u, pair
    return asdict(worst)
"""
    tree = ast.parse(source)
    reads = set(_field_reads([tree]))
    assert [f"{cls}.{name}" for cls, name in _fields(tree) if name not in reads] == []


def test_field_reads_follow_list_elements():
    # asdict(worst) of an element of the list a call returns reads every field
    # of the class its return annotation names
    source = """
from dataclasses import asdict, dataclass

@dataclass
class SidePair:
    lhs: float
    constant: float

def sides_for(u) -> SidePair | list[SidePair]:
    return [SidePair(v, 1.0) for v in u]

def worst_of(us):
    pairs = sides_for(us)
    worst = pairs[0]
    return asdict(worst)
"""
    tree = ast.parse(source)
    assert {"lhs", "constant"} <= set(_field_reads([tree]))
    unlisted = source.replace("worst = pairs[0]", "worst = min(pairs)")
    assert not {"lhs", "constant"} & set(_field_reads([ast.parse(unlisted)]))


def test_hardy_case_keeps_the_benchmark_range_slot():
    # perfbench/workloads.py calls hardy_case(model, w, rng); a case holds no
    # range, so that slot is unread and the case keeps its default id
    e3 = euclidean_radial(3)
    w = rho_catalog_entry("power", e3, 2.0, beta=-1.0)
    rng = CoordinateRange(1e-2, 1e2)
    case_id = "hardy[euclidean|power:beta=-1|alpha=0.0,p=2.0]"
    assert hardy_case(e3, w, rng).case_id == hardy_case(e3, w).case_id == case_id
    with pytest.raises(InvalidArgumentError):  # the range would land on case_id
        weighted_hardy_case(e3, w, 0.0, rng)
