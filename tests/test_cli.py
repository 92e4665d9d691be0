import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forking import assert_no_child_left, usable_cpus
from oracles import seeded_functions_one_by_one

import phardy
import phardy.cli
import phardy.workers
from phardy.cli import (
    bundled_config_path,
    emit_tables,
    list_catalog,
    load_config,
    main,
    report_json,
    run_suite,
    seeded_blocks,
)
from phardy.errors import ConfigError
from phardy.functionals import KINDS, InequalityCase, hardy_case, sides_for
from phardy.geometry import CoordinateRange, euclidean_radial
from phardy.grids import FunctionBlock, build_grid
from phardy.testfunctions import random_test_functions
from phardy.weights import rho_catalog_entry


def small_config(**overrides):
    cfg = {
        "seed": 7,
        "tol_disc": 1e-6,
        "n_test_functions": 10,
        "cases": [
            {
                "id": "mini-hardy",
                "kind": "hardy",
                "model": {"kind": "euclidean", "dim": 3},
                "weight": "power:beta=-1",
                "params": {"p": 2},
                "grid": {"lo": 0.01, "hi": 100.0, "n": 800, "spacing": "log"},
            }
        ],
    }
    cfg.update(overrides)
    return cfg


def test_run_suite_minimal_pass():
    report = run_suite(small_config())
    assert report["summary"]["n_fail"] == 0
    assert report["summary"]["n_pass"] == 1
    case = report["cases"][0]
    assert case["status"] == "pass"
    assert case["hypothesis"]["passed"]
    assert case["sides"]["min_margin_rel"] >= -1e-6


def test_report_locates_worst_bump():
    # one hat per interior node: the worst one is named by its node
    hyp = run_suite(small_config())["cases"][0]["hypothesis"]
    g = small_config()["cases"][0]["grid"]
    grid = build_grid(CoordinateRange(g["lo"], g["hi"]), g["n"], g["spacing"])
    assert sorted(hyp) == ["mode", "n_bumps", "passed", "worst_center", "worst_value"]
    assert hyp["n_bumps"] == grid.n - 2
    assert hyp["worst_center"] in grid.nodes[1:-1]


def test_coarse_grid_runs_its_sign_check():
    # a grid of 5 nodes has 3 hats; it is checked like any other
    cfg = ball_config()
    cfg["cases"][0]["grid"] = {"lo": 0.001, "hi": 0.999, "n": 5, "spacing": "log"}
    record = run_suite(cfg)["cases"][0]
    assert record["status"] == "pass"
    assert record["hypothesis"]["passed"] and record["hypothesis"]["n_bumps"] == 3


def test_report_names_the_worst_test_function():
    # the record alone regenerates the function that gave the worst margin:
    # entry worst_index of the case's seeded stream (even: bump, odd: tent)
    record = run_suite(small_config())["cases"][0]
    sides, g = record["sides"], record["grid"]
    grid = build_grid(CoordinateRange(g["lo"], g["hi"]), g["n"], g["spacing"])
    seed = [record["seed"], zlib.crc32(record["case_id"].encode())]
    funcs = random_test_functions(grid, sides["n_test_functions"], seed)
    e3 = euclidean_radial(3)
    case = hardy_case(e3, rho_catalog_entry("power", e3, 2.0, beta=-1.0))
    pair = sides_for(case, funcs[sides["worst_index"]])
    assert pair.margin / max(pair.rhs, 1e-300) == sides["min_margin_rel"]
    assert dataclasses.asdict(pair) == sides["worst"]


@pytest.mark.parametrize("count", [1, 63, 64, 130])
def test_sweep_generates_one_stream_block_by_block(count, monkeypatch):
    # the sweep's blocks draw from one generator: together they are the list
    # one call gives, value for value, bumps and tents alternating across
    # block boundaries; the sweep asks for the next block only when it
    # reaches it, so it holds one block of functions at a time
    grid = build_grid(CoordinateRange(0.01, 100.0), 300, "log")
    seed = [7, zlib.crc32(b"mini-hardy")]
    want = random_test_functions(grid, count, seed)
    blocks = []
    monkeypatch.setattr(
        phardy.cli, "random_test_functions",
        lambda *args: blocks.append(args[1]) or random_test_functions(*args),
    )
    stream = seeded_blocks(grid, count, seed)
    got = [next(stream)]
    assert len(blocks) == 1
    got += stream
    block = phardy.cli._FUNCTION_BLOCK
    assert block % 2 == 0 and blocks == [min(block, count - i) for i in range(0, count, block)]
    assert [start for start, _ in got] == list(range(0, count, block))
    funcs = [u for _, us in got for u in us]
    assert len(funcs) == count
    assert all(np.array_equal(u.values, w.values) for u, w in zip(funcs, want))


def test_bundled_suite_report_matches_the_one_by_one_sweep(tmp_path, monkeypatch):
    # the sweep draws each block as one array and integrates its rows as they
    # stand; `phardy run` on the bundled suite at 200 test functions per case
    # writes the same bytes when every function is drawn and evaluated on the
    # whole grid one at a time, and the block stacked from them
    cfg = json.loads(bundled_config_path().read_text())
    cfg["n_test_functions"] = 200
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "block")]) == 0
    monkeypatch.setattr(
        phardy.cli, "random_test_functions",
        lambda grid, count, rng: FunctionBlock(
            grid, np.stack(seeded_functions_one_by_one(grid, count, rng))
        ),
    )
    assert main(["run", str(path), "--out-dir", str(tmp_path / "one")]) == 0
    block, one = ((tmp_path / out / "report.json").read_bytes() for out in ("block", "one"))
    assert block == one


def test_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product of more than about 10k entries across
    # threads, which reorders its sum; at n = 20,000 every reduction of a
    # report must give the same bytes under one thread and under two
    cfg = small_config(seed=3, n_test_functions=4)
    cfg["cases"][0].update(
        checks={"hypothesis": False, "minimize": True},
        grid={"lo": 1e-4, "hi": 1e4, "n": 20000, "spacing": "log"},
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(phardy.__file__).resolve().parents[1])}
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads-{threads}"
        subprocess.run(
            [sys.executable, "-m", "phardy.cli", "run", str(path), "--out-dir", str(out)],
            capture_output=True, check=True, env=env,
        )
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_cli_import_leaves_scipy_interpolate_out():
    # scipy.interpolate is only for test oracles, the minimizers find their
    # roots without scipy.optimize, and forms loads the LAPACK extension
    # without the scipy.linalg package init; all save import time.
    # A later import of scipy.linalg shares the loaded extension.
    code = (
        "import sys, phardy.cli, phardy.forms\n"
        "out = ['scipy.linalg', 'scipy.interpolate', 'scipy.optimize',\n"
        "       'scipy._lib.array_api_compat']\n"
        "print([name for name in out if name in sys.modules])\n"
        "import scipy.linalg.lapack\n"
        "print(scipy.linalg.lapack.dpttrf is phardy.forms.dpttrf)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(phardy.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split("\n") == ["[]", "True", ""]


def test_record_carries_the_grid_that_was_checked():
    # a grid without 'spacing' runs on the default log grid, and says so
    cfg = small_config()
    del cfg["cases"][0]["grid"]["spacing"]
    cfg["cases"][0]["grid"].update(lo=1, hi=100)
    grid = run_suite(cfg)["cases"][0]["grid"]
    assert grid == {"lo": 1.0, "hi": 100.0, "n": 800, "spacing": "log"}
    assert all(type(grid[k]) is float for k in ("lo", "hi"))


def test_run_suite_deterministic_bytes():
    a = report_json(run_suite(small_config()))
    b = report_json(run_suite(small_config()))
    assert a == b


def test_hypothesis_failure_is_not_inequality_failure(tmp_path, monkeypatch):
    cfg = small_config()
    # r^2 is subharmonic: the superharmonicity hypothesis of Hardy fails
    cfg["cases"][0]["weight"] = "power:beta=2"
    cfg["cases"][0]["id"] = "declared-superharmonic"
    # the runner is the one gate: a failed sign check skips the sweep and
    # the minimization, so the sides are never evaluated
    usable_cpus(monkeypatch, 1)
    calls = []
    monkeypatch.setattr(phardy.functionals, "sides_for", lambda *a: calls.append(a))
    report = run_suite(cfg)
    assert report["summary"] == {
        "n_pass": 0,
        "n_fail": 0,
        "n_trivial": 0,
        "n_hypothesis_failed": 1,
    }
    (record,) = report["cases"]
    assert "sides" not in record and "minimization" not in record
    assert calls == []
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("command, message", [
    ("run", "config error: cannot read config: "),
    ("emit", "error: cannot read report: "),
])
def test_input_that_is_not_utf8_exits_2(command, message, tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(small_config()).encode("utf-16-le"))
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


def test_run_into_an_out_dir_that_is_a_file_exits_2_before_any_case(
    tmp_path, capsys, monkeypatch
):
    # exit 1 would say an inequality failed; the run stops before its cases
    path, out = tmp_path / "cfg.json", tmp_path / "taken"
    path.write_text(json.dumps(small_config()))
    out.write_text("a file")
    ran = []
    monkeypatch.setattr(phardy.cli, "run_suite", lambda cfg: ran.append(cfg))
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert ran == [] and out.read_text() == "a file"
    assert capsys.readouterr().err.startswith(f"error: cannot write to --out-dir {str(out)!r}: ")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_into_an_out_dir_that_is_a_file_exits_2(fmt, tmp_path, capsys):
    report, out = tmp_path / "report.json", tmp_path / "taken"
    report.write_text(report_json(run_suite(small_config(n_test_functions=1))))
    out.write_text("a file")
    assert main(["emit", str(report), "--format", fmt, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write to --out-dir {str(out)!r}: ")


def test_unknown_kind_exit_2(tmp_path):
    cfg = small_config()
    cfg["cases"][0]["kind"] = "wirtinger"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2


def test_runtime_error_exit_3(tmp_path, capsys):
    # rho = |ln r| vanishes at the node r = 1, where the test functions live,
    # so the Hardy density is infinite there
    cfg = small_config()
    cfg["cases"][0].update(
        id="bad-log-weight",
        weight="log:side=inner",
        checks={"hypothesis": False},
        grid={"lo": 0.5, "hi": 2.0, "n": 7, "spacing": "linear"},
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "bad-log-weight" in err


def test_seed_override_changes_stream(tmp_path):
    r1 = run_suite(small_config(seed=1))
    r2 = run_suite(small_config(seed=2))
    assert r1["seed"] != r2["seed"]
    w1 = r1["cases"][0]["sides"]["worst"]["rhs"]
    w2 = r2["cases"][0]["sides"]["worst"]["rhs"]
    assert w1 != w2


CATALOG = """\
inequality | caccioppoli            | ((q+1)/p)^p
inequality | ckn                    | C3 = C2^(p*(r-p)/(r(p*-p))) H^(a/p - p*(r-p)/(p r (p*-p)))
inequality | distance-hardy         | min(((p-1)/p)^p b^p/L^p, lam1 (p-1-s)^(p-1)/p^p l^s eps^p)/2
inequality | divergence-lemma       | p^p
inequality | eigen-hardy            | ((p-1-alpha)/p)^p
inequality | gn                     | (p/(|alpha|(p-1)))^(p-1)
inequality | hardy                  | ((p-1)/p)^p
inequality | hardy-sobolev          | C2 = S(p) H^(1/p)/(|theta| + H^(1/p))
inequality | poincare-eigen         | lam1 (p-1-s)^(p-1)/p^p
inequality | uncertainty            | (p/(|alpha|(p-1)))^(p/a)
inequality | weighted-hardy         | (|p-1-alpha|/p)^p
model      | euclidean              | density sigma_(N-1) r^(N-1)
model      | half_plane             | density y^-2, gradient factor y
model      | hyperbolic             | density sigma_(N-1) sinh^(N-1)(r)
model      | interval               | density 1
weight     | constant:c=C           | rho = C
weight     | dist-boundary          | rho = min(x-a, b-x)
weight     | halfplane-y            | rho = y
weight     | log:inner|outer        | rho = |ln r|
weight     | power:beta=B           | rho = r^B
weight     | rlogr                  | rho = -r ln r
"""


def test_list_catalog_contents_and_determinism(capsys):
    # golden text: every inequality kind with a formula, then models and weights
    assert list_catalog() == CATALOG
    assert main(["list"]) == 0
    assert capsys.readouterr().out == CATALOG


# the model a listed weight family needs; the others take E3
E3_MODEL = {"kind": "euclidean", "dim": 3}
WEIGHT_MODELS = {
    "dist-boundary": {"kind": "interval", "a": 0.0, "b": 1.0},
    "halfplane-y": {"kind": "half_plane"},
}


def test_every_listed_weight_passes_the_config_check(monkeypatch):
    # each weight row of `phardy list`, its placeholder filled in, is a
    # weight a config can name
    fills = {"": [""], "c=C": ["c=2"], "beta=B": ["beta=-1"], "inner|outer": ["inner", "outer"]}
    specs = []
    for line in list_catalog().splitlines():
        group, name, _ = (field.strip() for field in line.split(" | ", 2))
        if group == "weight":
            family, _, rest = name.partition(":")
            specs += [(family, f"{family}:{fill}" if fill else family) for fill in fills[rest]]
    cases = [
        {"id": spec, "kind": "hardy", "model": WEIGHT_MODELS.get(family, E3_MODEL),
         "weight": spec, "params": {"p": 2},
         "grid": {"lo": 0.05, "hi": 0.95, "n": 200, "spacing": "linear"}}
        for family, spec in specs
    ]

    # the cases may run in forked workers, so each one writes its weight
    # into its own record rather than into this process's memory
    def skip(c, conf, record):
        record.update(case_id=c["id"], status="pass", weight=c["case"].weight.name)

    monkeypatch.setattr(phardy.cli, "_run_inequality_case", skip)
    records = {r["case_id"]: r for r in run_suite({"cases": cases})["cases"]}
    ran = [records[case["id"]]["weight"] for case in cases]
    assert ran == [spec for _, spec in specs] and len(ran) == 7


def test_emit_round_trip_and_headers(tmp_path):
    report = run_suite(small_config())
    out1 = tmp_path / "a"
    emit_tables(report, out1, "json")
    text1 = (out1 / "report.json").read_text()
    parsed = json.loads(text1)
    out2 = tmp_path / "b"
    emit_tables(parsed, out2, "json")
    assert text1 == (out2 / "report.json").read_text()
    paths = emit_tables(report, tmp_path / "csv", "csv")
    sides = (tmp_path / "csv" / "sides.csv").read_text().splitlines()
    assert sides[0].startswith("case_id,kind,status,lhs,rhs")
    assert len(sides) == 2
    assert {p.name for p in paths} == {"sides.csv", "classification.csv", "minimization.csv"}


@pytest.mark.parametrize("text", [
    "[]", "{}", '{"cases": [{"x": 1}]}',
    '{"cases": [{"case_id": "a", "kind": "k", "status": "s", "sides": 1}]}',
    '{"cases": [{"case_id": "a", "kind": "k", "status": "s", "minimization": []}]}',
])
def test_emit_rejects_non_report_exit_2(text, tmp_path, capsys):
    path = tmp_path / "not-a-report.json"
    path.write_text(text)
    assert main(["emit", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: not a phardy report\n"


def test_eigen_hardy_record_carries_its_hypothesis():
    cfg = small_config()
    cfg["cases"][0] = {
        "id": "eigen-hardy",
        "kind": "eigen-hardy",
        "model": {"kind": "interval", "a": 0.0, "b": 1.0},
        "params": {"p": 2},
        "grid": {"lo": 0.0, "hi": 1.0, "n": 400, "spacing": "linear"},
    }
    record = run_suite(cfg)["cases"][0]
    assert record["status"] == "pass"
    assert record["hypothesis"]["mode"] == "superharmonic"
    assert record["hypothesis"]["passed"] and record["hypothesis"]["n_bumps"] == 398


def test_emit_empty_report_has_headers(tmp_path):
    report = run_suite({"seed": 0, "cases": []})
    assert report["summary"]["n_pass"] == 0
    emit_tables(report, tmp_path, "csv")
    for name in ("sides.csv", "classification.csv", "minimization.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 1 and "," in lines[0]


def test_bundled_config_loads_and_validates():
    cfg = load_config(None)
    assert cfg["cases"]
    assert Path(str(bundled_config_path())).name == "default_suite.json"
    with pytest.raises(ConfigError):
        load_config("/definitely/not/here.json")


def bundled_config(*ids, n_test_functions=3):
    """The bundled suite cut down to the cases of the given ids, copied."""
    cfg = load_config(None)
    cases = [copy.deepcopy(c) for i in ids for c in cfg["cases"] if c["id"] == i]
    return {"seed": cfg["seed"], "n_test_functions": n_test_functions, "cases": cases}


def ball_config():
    """The bundled suite cut down to its hardy-log-ball-p2 case."""
    return bundled_config("hardy-log-ball-p2")


DROP = object()


def _set(path, value):
    """A mutation that sets the config entry at path to value, or deletes it."""
    def mutate(cfg):
        *keys, last = path
        target = cfg
        for key in keys:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    return mutate


def _divergence(field, p=2, model=None):
    """A mutation that turns the case into a divergence-lemma case."""
    def mutate(cfg):
        case = cfg["cases"][0]
        del case["weight"]
        case.update(kind="divergence-lemma", params={"p": p, "field": field})
        case["model"] = model or case["model"]
    return mutate


def _eigen(kind, model=None, **params):
    """A mutation that turns the case into an eigen kind with a grid on [0, 1]
    (the model: the unit interval unless given)."""
    def mutate(cfg):
        case = cfg["cases"][0]
        del case["weight"]
        case.update(
            kind=kind, params={"p": 2, **params},
            model=model or {"kind": "interval", "a": 0.0, "b": 1.0},
            grid={"lo": 0.0, "hi": 1.0, "n": 200, "spacing": "linear"},
        )
    return mutate


def _classification(model, **keys):
    """A mutation that turns the case into a classification case on model,
    with the given keys."""
    def mutate(cfg):
        case = cfg["cases"][0]
        for key in ("weight", "grid", "checks"):
            case.pop(key, None)
        case.update(kind="classification", model=model, params={"p": 2}, **keys)
    return mutate


def _half_plane(kind, params):
    """A mutation that turns the case into a power-weight case of kind on the
    half-plane, whose distance has |grad d| != 1."""
    def mutate(cfg):
        cfg["cases"][0].update(
            kind=kind, model={"kind": "half_plane"}, weight="power:beta=0.5", params=params
        )
    return mutate


CASE = ("cases", 0)
# name -> (mutation of ball_config(), key the message must name, names the case)
BAD_CONFIGS = {
    "no-grid": (_set(CASE + ("grid",), DROP), "'grid'", True),
    "no-model": (_set(CASE + ("model",), DROP), "'model'", True),
    "no-params": (_set(CASE + ("params",), DROP), "'params'", True),
    "model-without-dim": (_set(CASE + ("model", "dim"), DROP), "'dim'", True),
    "weight-unknown-param": (_set(CASE + ("weight",), "power:gamma=2"), "'weight'", True),
    "weight-overflows": (  # r^-399 overflows at the ball's inner nodes
        _set(CASE + ("weight",), "power:beta=-399"), "'weight'", True
    ),
    "p-string": (_set(CASE + ("params", "p"), "two"), "'p'", True),
    "p-nan-string": (_set(CASE + ("params", "p"), "NaN"), "'p'", True),
    "p-nan-literal": (_set(CASE + ("params", "p"), math.nan), "'p'", True),
    "p-one": (_set(CASE + ("params", "p"), 1), "'p'", True),
    "unknown-param": (_set(CASE + ("params", "q"), 1.0), "'q'", True),
    "unknown-check": (_set(CASE + ("checks",), {"minimise": True}), "'minimise'", True),
    "duplicate-id": (lambda cfg: cfg["cases"].append(dict(cfg["cases"][0])), "'id'", True),
    "case-not-object": (_set(("cases",), [1]), "'cases'", False),
    "seed-string": (_set(("seed",), "x"), "'seed'", False),
    "tol-disc-negative": (_set(("tol_disc",), -1.0), "'tol_disc'", False),
    "field-unknown": (_divergence("x"), "'field'", True),
    "field-killing-p-ge-n": (_divergence("killing", p=3), "'params'", True),
    "field-davies-hinz-half-plane": (
        _divergence("davies-hinz", model={"kind": "half_plane"}), "'params'", True
    ),
    "eigen-s-above-p-1": (_eigen("poincare-eigen", s=3), "'s'", True),
    "eigen-hardy-alpha-above-p-1": (_eigen("eigen-hardy", alpha=1.5), "'alpha'", True),
    "grid-below-interval": (
        _eigen("poincare-eigen", model={"kind": "interval", "a": 0.5, "b": 1.0}, s=0.5),
        "'grid'", True,
    ),
    "grid-lo-zero-euclidean": (
        _set(CASE + ("grid",), {"lo": 0.0, "hi": 0.999, "n": 2000, "spacing": "linear"}),
        "'grid'", True,
    ),
    "grid-open-lo": (_set(CASE + ("grid", "open_lo"), True), "'open_lo'", True),
    "eigen-eps-split-empties-interior": (
        _eigen("distance-hardy", eps_split=0.9), "'eps_split'", True
    ),
    "half-plane-gn": (
        _half_plane("gn", {"p": 2, "delta": 2.0}), "'params'", True
    ),
    "half-plane-uncertainty": (
        _half_plane("uncertainty", {"p": 2, "s": 2.0, "a": 2.0}), "'params'", True
    ),
    "classification-interval": (
        _classification({"kind": "interval", "a": 0.0, "b": 1.0}), "'model'", True
    ),
    "classification-half-plane": (_classification({"kind": "half_plane"}), "'model'", True),
    "classification-expect-misspelt": (
        _classification({"kind": "euclidean", "dim": 2}, expect="parabolic"), "'expect'", True
    ),
    "hardy-constant-underflows": (  # ((1e-10)/100)^100 is 0.0, yet alpha != p - 1
        lambda cfg: cfg["cases"][0].update(
            kind="weighted-hardy", params={"p": 100, "alpha": 99 + 1e-10}
        ),
        "'params'", True,
    ),
    "minimize-non-quotient-kind": (
        lambda cfg: cfg["cases"][0].update(
            kind="gn", weight="power:beta=-1", params={"p": 2, "delta": 2.0},
            checks={"minimize": True},
        ),
        "'minimize'", True,
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exit_2_names_case_and_key(name, tmp_path, capsys):
    mutate, key, names_case = BAD_CONFIGS[name]
    cfg = ball_config()
    mutate(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert ("'hardy-log-ball-p2'" in err) == names_case


def test_bundled_degenerate_case_stays_trivial():
    # alpha = p - 1 makes the Hardy constant 0 and the case trivial
    cfg = load_config(None)
    spec = next(c for c in cfg["cases"] if c["id"] == "weighted-hardy-alpha-1-degenerate")
    report = run_suite({"seed": cfg["seed"], "n_test_functions": 3, "cases": [spec]})
    assert [r["status"] for r in report["cases"]] == ["trivial"]


@pytest.mark.parametrize("ids, drop_ids", [
    (["hardy-euclidean3-p2"] * 2, False),
    (["hardy-euclidean3-p2"] + ["classify-euclidean2-p2"] * 2, False),
    # two classifications of one model at one p share their default id
    (["hardy-euclidean3-p2"] + ["classify-euclidean2-p2"] * 2, True),
])
def test_duplicate_ids_stop_the_run_before_any_case(ids, drop_ids, monkeypatch):
    cfg = bundled_config(*ids)
    if drop_ids:
        for case in cfg["cases"][1:]:
            del case["id"]
    ran = []
    for runner in ("_run_inequality_case", "_run_classification_case"):
        monkeypatch.setattr(phardy.cli, runner, lambda *args: ran.append(args))
    with pytest.raises(ConfigError, match="duplicate 'id'"):
        run_suite(cfg)
    assert ran == []


# the cases whose evidence fails each constant made f times stronger, with
# the blocks that failed them (ROADMAP item 8)
STRONGER_FAILS = {
    1.0: {},
    1.1: {
        "halfplane-hardy-alpha-neg1": ["minimization"],
        "halfplane-hardy-alpha3": ["minimization"],
    },
    2.0: {
        "divergence-davies-hinz": ["sides"],
        "halfplane-hardy-alpha-neg1": ["sides", "minimization"],
        "halfplane-hardy-alpha0": ["minimization"],
        "halfplane-hardy-alpha3": ["sides", "minimization"],
        "hardy-euclidean3-p2": ["minimization"],
        "hardy-hyperbolic3-p2": ["minimization"],
        "weighted-hardy-alpha-neg1": ["sides"],
    },
}


@pytest.mark.parametrize("f", sorted(STRONGER_FAILS))
def test_constants_made_stronger_fail_the_pinned_cases(f, monkeypatch):
    # every constant f times stronger: times f, or over f where it is a
    # factor of rhs; the bundled suite runs as shipped
    post_init = InequalityCase.__post_init__

    def stronger(case):
        post_init(case)
        if KINDS[case.kind].constant_on_rhs:
            case.formula_constant /= f
        else:
            case.formula_constant *= f

    monkeypatch.setattr(InequalityCase, "__post_init__", stronger)
    report = run_suite(load_config(None))
    checks = {"sides": "passed", "minimization": "bound_ok"}
    failed = {
        r["case_id"]: [block for block, ok in checks.items() if block in r and not r[block][ok]]
        for r in report["cases"] if r["status"] == "fail"
    }
    assert failed == STRONGER_FAILS[f]
    assert report["summary"]["n_trivial"] == 1
    assert report["summary"]["n_pass"] == 23 - len(failed)


# the checks that build something of the case: a field, the eigen kinds'
# parameters, the grid the runners will use or a case its model cannot hold
@pytest.mark.parametrize(
    "name",
    [n for n in sorted(BAD_CONFIGS)
     if n.startswith(("field-", "eigen-", "grid-", "half-plane-", "classification-"))],
)
def test_bad_field_stops_the_run_before_any_case(name, monkeypatch):
    cfg = ball_config()
    bad = {"cases": [dict(copy.deepcopy(cfg["cases"][0]), id="later")]}
    BAD_CONFIGS[name][0](bad)
    cfg["cases"] += bad["cases"]
    ran = []
    monkeypatch.setattr(phardy.cli, "_run_inequality_case", lambda *args: ran.append(args))
    with pytest.raises(ConfigError, match="'later'"):
        run_suite(cfg)
    assert ran == []


def run_main(cfg, tmp_path, capsys):
    """main's exit code, stderr and report on the config cfg."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    report = tmp_path / "out" / "report.json"
    return code, capsys.readouterr().err, json.loads(report.read_text()) if code < 2 else None


@pytest.mark.parametrize("case_id, count, nonfinite", [
    ("caccioppoli-q0", 40, 35),
    ("caccioppoli-q2", 40, 37),
    ("divergence-davies-hinz", 40, 36),
    ("divergence-davies-hinz", 8, 8),
])
def test_non_finite_margins_fail_the_case(case_id, count, nonfinite, tmp_path, capsys):
    # on a grid from 1e-300 the first cells are so narrow that the square of
    # a test function's slope there overflows, and inf times the vanishing B
    # is NaN: each such margin is counted, and the case fails however good
    # the finite ones are; with none finite there is no worst function
    cfg = bundled_config(case_id, n_test_functions=count)
    cfg["cases"][0]["grid"]["lo"] = 1e-300
    code, _, report = run_main(cfg, tmp_path, capsys)
    assert code == 1
    record = report["cases"][0]
    sides = record["sides"]
    assert record["status"] == "fail" and not sides["passed"]
    assert sides["n_nonfinite"] == nonfinite
    if nonfinite == count:
        assert sides["worst"] == {} and sides["min_margin_rel"] is None
        row = (tmp_path / "out" / "sides.csv").read_text().splitlines()[1].split(",")
        assert row[3:8] == [""] * 5
    else:
        assert math.isfinite(sides["min_margin_rel"]) and sides["worst"]


@pytest.mark.parametrize("case_id, key, value", [
    ("hardy-sobolev-euclidean3", "p_star", 1e-300),  # a side's power 1/p* overflows
    ("classify-euclidean2-p2", "p", 1e300),  # every capacity underflows to 0
])
def test_an_overflow_exits_3_naming_the_case(case_id, key, value, tmp_path, capsys):
    cfg = bundled_config(case_id)
    cfg["cases"][0]["params"][key] = value
    code, err, _ = run_main(cfg, tmp_path, capsys)
    assert code == 3 and err.startswith(f"numerical error in case {case_id}:")


@pytest.mark.parametrize("key, value", [
    (("model", "a"), -1.0), (("model", "b"), 2.0), (("grid", "lo"), 0.5),
])
def test_distance_hardy_constant_that_vanishes_exits_2(key, value, tmp_path, capsys):
    # the grid ends inside the interval, where the eigenfunction vanishes but
    # the distance does not: the interior bound, and so the constant, is 0
    cfg = bundled_config("distance-hardy-interval")
    cfg["cases"][0][key[0]][key[1]] = value
    code, err, _ = run_main(cfg, tmp_path, capsys)
    assert code == 2 and err.startswith("config error: case 'distance-hardy-interval'")
    assert "'params'" in err


def test_eigen_cases_without_an_id_get_their_builders_ids():
    cfg = bundled_config("eigen-hardy-interval", "eigen-hardy-interval")
    for case, alpha in zip(cfg["cases"], (0, 0.5)):
        del case["id"]
        case["params"]["alpha"] = alpha
    records = run_suite(cfg)["cases"]
    assert sorted(r["case_id"] for r in records) == [
        "eigen-hardy[interval|p=2|alpha=0.5]", "eigen-hardy[interval|p=2|alpha=0]"
    ]
    assert all(r["status"] == "pass" and r["eigen"]["converged"] for r in records)


def test_an_eigen_solve_error_exits_3_naming_the_case(tmp_path, capsys):
    # sinh^2 overflows on the hyperbolic grid out to 800, so the solve, which
    # the config check runs, finds its densities not finite
    cfg = bundled_config("eigen-hardy-interval")
    cfg["cases"][0].update(
        model={"kind": "hyperbolic", "dim": 3},
        grid={"lo": 0.01, "hi": 800.0, "n": 200, "spacing": "linear"},
    )
    code, err, _ = run_main(cfg, tmp_path, capsys)
    assert code == 3 and err.startswith("numerical error in case eigen-hardy-interval:")


@pytest.mark.parametrize("config", ["bundled-200", "general_p.json"])
def test_report_does_not_depend_on_the_number_of_cpus(config, monkeypatch):
    # the cases share out round-robin between this process and a worker per
    # further CPU; on 1, 2 and 3 CPUs the report has the same bytes
    if config == "bundled-200":
        cfg = load_config(None)
        cfg["n_test_functions"] = 200
    else:
        cfg = load_config(str(Path(__file__).parent / "data" / config))
    reports = []
    for cpus in (1, 2, 3):
        forks = usable_cpus(monkeypatch, cpus)
        reports.append(report_json(run_suite(cfg)))
        assert len(forks) == cpus - 1
        assert_no_child_left()
    assert reports[0] == reports[1] == reports[2]


def test_a_warning_at_fork_loses_no_worker(monkeypatch):
    # Python 3.12 warns in the parent when it forks while threads exist;
    # under `filterwarnings = error` that warning must not raise after the
    # worker exists, which would lose its pid and its cases
    usable_cpus(monkeypatch, 2)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("fork with threads", DeprecationWarning)
        return pid

    monkeypatch.setattr(phardy.workers.os, "fork", warning_fork)
    report = run_suite(bundled_config("hardy-euclidean3-p2", "caccioppoli-q0"))
    assert report["summary"]["n_pass"] == 2
    assert_no_child_left()


def test_no_cases_or_no_cpu_affinity_fork_nothing(monkeypatch):
    # zero cases make one job, not zero; a platform without CPU affinity one
    forks = usable_cpus(monkeypatch, 2)
    assert run_suite({"cases": []})["cases"] == []
    monkeypatch.delattr(phardy.workers.os, "sched_getaffinity")
    assert run_suite(small_config())["summary"]["n_pass"] == 1
    assert forks == []


@pytest.mark.parametrize("order", [("first", "second", "good"), ("good", "first", "second")])
def test_the_first_error_in_config_order_names_the_case(order, tmp_path, capsys, monkeypatch):
    # two cases that exit 3 land in different processes on 2 CPUs; either
    # way the message names the first in config order, as on one CPU
    cfg = bundled_config(*["hardy-sobolev-euclidean3"] * 3)
    for case, name in zip(cfg["cases"], order):
        case["id"] = name
        if name != "good":
            case["params"]["p_star"] = 1e-300
    errs = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        code, err, _ = run_main(cfg, tmp_path, capsys)
        assert code == 3
        errs.append(err)
        assert_no_child_left()
    assert errs[0] == errs[1] and errs[0].startswith("numerical error in case first:")


@pytest.mark.parametrize("how", ["exit", "raise"])
def test_a_worker_that_fails_outside_the_checks_is_reported(how, tmp_path, capsys, monkeypatch):
    # a worker that dies without a result fails its first case with exit 3;
    # one that raises something other than a ToolkitError sends back its
    # traceback; the run neither hangs nor leaves the worker behind
    cfg = bundled_config("hardy-euclidean3-p2", "caccioppoli-q0", "caccioppoli-q2")
    parent, run = os.getpid(), phardy.cli._run_inequality_case

    def in_worker(c, conf, record):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(9)
            raise TypeError("a bug in a worker")
        run(c, conf, record)

    monkeypatch.setattr(phardy.cli, "_run_inequality_case", in_worker)
    usable_cpus(monkeypatch, 2)
    if how == "exit":
        code, err, _ = run_main(cfg, tmp_path, capsys)
        assert code == 3 and err == (
            "numerical error in case caccioppoli-q0: "
            "its worker ended without a result (exit code 9)\n"
        )
    else:
        with pytest.raises(RuntimeError, match="'caccioppoli-q0' in a worker") as info:
            run_suite(cfg)
        assert "Traceback" in str(info.value) and "TypeError: a bug in a worker" in str(info.value)
    assert_no_child_left()


def test_an_interrupted_run_kills_its_workers(monkeypatch):
    # the worker would check for a minute; interrupting this process's own
    # share kills and reaps it at once
    cfg = bundled_config("hardy-euclidean3-p2", "caccioppoli-q0")
    parent = os.getpid()

    def interrupted(c, conf, record):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(phardy.cli, "_run_inequality_case", interrupted)
    usable_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suite(cfg)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_general_p_config_passes_and_reports_residuals(tmp_path):
    # five quotient cases off p = 2, each minimized by inverse power
    # iteration until a step no longer lowers the quotient
    config = Path(__file__).parent / "data" / "general_p.json"
    out = tmp_path / "out"
    assert main(["run", str(config), "--out-dir", str(out)]) == 0
    cases = json.loads((out / "report.json").read_text())["cases"]
    assert len(cases) == 5
    for case in cases:
        m = case["minimization"]
        assert case["status"] == "pass" and m["bound_ok"]
        assert "lower" not in m and m["residual"] >= 0.0
        assert m["converged"] and m["residual"] <= 1e-4
        assert m["stop"] == "no-step"
    # seeded with the ground state rho^((p-1)/p), the p = 1.5 iteration
    # converges within its 500 steps at 0.195257, within 1.5% of C = 0.19245
    assert cases[2]["case_id"] == "hardy-euclidean5-p1.5"
    assert cases[2]["minimization"]["quotient"] <= 0.19526


def test_p8_case_converges(tmp_path):
    # a valid p = 8 case is solved, not a numerical error (exit 3): the
    # general-p solve factors no pencil that rounding could make indefinite
    cfg = {"seed": 1, "tol_disc": 1e-6, "n_test_functions": 20, "cases": [{
        "id": "hardy-euclidean3-p8",
        "kind": "hardy",
        "model": {"kind": "euclidean", "dim": 3},
        "weight": "power:beta=0.7142857142857143",
        "params": {"p": 8},
        "grid": {"lo": 1e-2, "hi": 1e2, "n": 600, "spacing": "log"},
        "checks": {"minimize": True},
    }]}
    path = tmp_path / "p8.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    m = json.loads((out / "report.json").read_text())["cases"][0]["minimization"]
    assert m["converged"] and m["residual"] <= 1e-4 and m["bound_ok"]


def test_ball_config_passes(tmp_path):
    # the unmutated base of the bad configs above is valid
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ball_config()))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0


# any JSON config: mostly well-formed cases of every kind, with junk mixed in
def _mostly(good, bad):
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.floats(-3.0, 5.0),
    st.sampled_from(["", "x", "NaN", "inner"]),
)
_NUMBER = _mostly(st.sampled_from([-1, 0, 0.25, 0.5, 1, 1.5, 2, 3, 6]), _JUNK)
_MODELS = _mostly(
    st.sampled_from([
        {"kind": "euclidean", "dim": 3}, {"kind": "hyperbolic", "dim": 2},
        {"kind": "half_plane"}, {"kind": "interval", "a": 0.0, "b": 1.0},
    ]),
    st.dictionaries(st.sampled_from(["kind", "dim", "a", "b"]), _JUNK, max_size=3),
)
_GRIDS = st.fixed_dictionaries(
    {"lo": st.sampled_from([0.0, 0.01, 0.5, 2.0]), "hi": st.sampled_from([1.0, 20.0]),
     "n": _mostly(st.integers(7, 64), st.integers(0, 6))},
    optional={"spacing": _mostly(st.sampled_from(["log", "linear"]), st.just("cubic"))},
)
_WEIGHTS = _mostly(
    st.sampled_from([
        "power:beta=-1", "power:beta=2", "log:side=inner", "halfplane-y", "dist-boundary",
        "constant", "rlogr", "power:gamma=2", "log:x",
    ]),
    _JUNK,
)


def _case(name):
    kind = KINDS[name]
    params = st.fixed_dictionaries(
        {key: st.sampled_from([1.5, 2, 3]) if key == "p" else
         st.sampled_from(["davies-hinz", "killing", "x"]) if key == "field" else _NUMBER
         for key, rule in kind.params.items() if isinstance(rule, type)},
        optional={key: _NUMBER for key, rule in kind.params.items()
                  if not isinstance(rule, type)},
    )
    params = _mostly(params, params.map(lambda d: {**d, "z": 1}))
    required = {"kind": st.just(name), "model": _MODELS, "params": params, "grid": _GRIDS}
    optional = {"id": st.text(max_size=3)}
    if kind.source == "weight":
        required["weight"] = _WEIGHTS
        optional["checks"] = st.dictionaries(
            st.sampled_from(["hypothesis", "minimize", "minimise"]), st.booleans(), max_size=2
        )
        optional["max_iter"] = st.integers(0, 50)
    if kind.source == "model":
        optional["expect"] = st.sampled_from(["p_parabolic", "p_hyperbolic"])
    return st.fixed_dictionaries(required, optional=optional)


_CONFIGS = st.fixed_dictionaries(
    {"cases": st.lists(
        _mostly(st.sampled_from(sorted(KINDS)).flatmap(_case), _JUNK), max_size=2
    ), "n_test_functions": st.integers(1, 3)},
    optional={"seed": _mostly(st.integers(0, 9), _JUNK),
              "tol_disc": _mostly(st.just(1e-6), _JUNK)},
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=_CONFIGS)
def test_any_config_exits_with_a_documented_code(cfg):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(Path(tmp) / "out")]) in (0, 1, 2, 3)
