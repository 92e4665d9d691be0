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
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phardy
import phardy.cli
from phardy.cli import (
    bundled_config_path,
    emit_tables,
    list_catalog,
    load_config,
    main,
    report_json,
    run_suite,
    seeded_functions,
)
from phardy.errors import ConfigError
from phardy.functionals import KINDS, hardy_case, sides_for
from phardy.geometry import CoordinateRange, euclidean_radial
from phardy.grids import build_grid
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
    hyp = run_suite(small_config())["cases"][0]["hypothesis"]
    grid = small_config()["cases"][0]["grid"]
    assert hyp["worst_width"] in (3, 9)
    assert grid["lo"] < hyp["worst_center"] < grid["hi"]


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
    stream = seeded_functions(grid, count, seed)
    got = [next(stream)]
    assert len(blocks) == 1
    got += stream
    block = phardy.cli._FUNCTION_BLOCK
    assert block % 2 == 0 and blocks == [min(block, count - i) for i in range(0, count, block)]
    assert [i for i, _ in got] == list(range(count))
    assert all(np.array_equal(u.values, w.values) for (_, u), w in zip(got, want))


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


def test_hypothesis_failure_is_not_inequality_failure(tmp_path):
    cfg = small_config()
    # r^2 is subharmonic: the superharmonicity hypothesis of Hardy fails
    cfg["cases"][0]["weight"] = "power:beta=2"
    cfg["cases"][0]["id"] = "declared-superharmonic"
    report = run_suite(cfg)
    assert report["summary"] == {
        "n_pass": 0,
        "n_fail": 0,
        "n_trivial": 0,
        "n_hypothesis_failed": 1,
    }
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
    ran = []

    def skip(c, conf, record):
        ran.append(c["case"].weight.name)
        record.update(case_id=c["id"], status="pass")

    monkeypatch.setattr(phardy.cli, "_run_inequality_case", skip)
    run_suite({"cases": cases})
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
    assert record["hypothesis"]["passed"] and record["hypothesis"]["n_bumps"] > 0


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


def ball_config():
    """The bundled suite cut down to its hardy-log-ball-p2 case."""
    cfg = load_config(None)
    spec = next(c for c in cfg["cases"] if c["id"] == "hardy-log-ball-p2")
    return {"seed": cfg["seed"], "n_test_functions": 3, "cases": [spec]}


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


def _classification(model):
    """A mutation that turns the case into a classification case on model."""
    def mutate(cfg):
        case = cfg["cases"][0]
        for key in ("weight", "grid", "checks"):
            case.pop(key, None)
        case.update(kind="classification", model=model, params={"p": 2})
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
    "grid-too-coarse-for-sign-check": (
        _set(CASE + ("grid",), {"lo": 0.001, "hi": 0.999, "n": 5, "spacing": "log"}),
        "'grid'", True,
    ),
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


def test_negative_tol_disc_flag_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ball_config()))
    assert main(["run", str(path), "--tol-disc", "-1", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'tol_disc'" in err


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
    if kind.factory:
        required["weight"] = _WEIGHTS
        optional["checks"] = st.dictionaries(
            st.sampled_from(["hypothesis", "minimize", "minimise"]), st.booleans(), max_size=2
        )
        optional["max_iter"] = st.integers(0, 50)
    if name == "classification":
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
