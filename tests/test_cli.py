import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phardy
from phardy.cli import (
    bundled_config_path,
    emit_tables,
    list_catalog,
    load_config,
    main,
    report_json,
    run_suite,
)
from phardy.errors import ConfigError
from phardy.functionals import KINDS


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


def test_cli_import_leaves_scipy_interpolate_out():
    # scipy.interpolate is only for test oracles; keeping it out of the CLI saves import time
    code = "import sys, phardy.cli; print('scipy.interpolate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(phardy.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


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
weight     | eigenfunction          | rho = phi_1
weight     | green                  | rho(t) = int_t^hi s^(-1/(p-1))
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
        "grid": {"lo": 0.0, "hi": 1.0, "n": 400, "spacing": "linear",
                 "open_lo": False, "open_hi": False},
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
            grid={"lo": 0.0, "hi": 1.0, "n": 200, "spacing": "linear", "open_lo": False,
                  "open_hi": False},
        )
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
    "p-string": (_set(CASE + ("params", "p"), "two"), "'p'", True),
    "p-nan-string": (_set(CASE + ("params", "p"), "NaN"), "'p'", True),
    "p-nan-literal": (_set(CASE + ("params", "p"), math.nan), "'p'", True),
    "p-one": (_set(CASE + ("params", "p"), 1), "'p'", True),
    "unknown-param": (_set(CASE + ("params", "q"), 1.0), "'q'", True),
    "unknown-check": (_set(CASE + ("checks",), {"minimise": True}), "'minimise'", True),
    "duplicate-id": (lambda cfg: cfg["cases"].append(dict(cfg["cases"][0])), "'id'", True),
    "case-not-object": (_set(("cases",), [1]), "'cases'", False),
    "seed-string": (_set(("seed",), "x"), "'seed'", False),
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


# the checks that build something of the case: a field, the eigen kinds'
# parameters, the grid the runners will use or a case its model cannot hold
@pytest.mark.parametrize(
    "name",
    [n for n in sorted(BAD_CONFIGS) if n.startswith(("field-", "eigen-", "grid-", "half-plane-"))],
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
    optional={"spacing": _mostly(st.sampled_from(["log", "linear"]), st.just("cubic")),
              "open_lo": st.booleans(), "open_hi": _mostly(st.booleans(), _JUNK)},
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
