import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    cfg = small_config()
    cfg["cases"][0] = {
        "id": "bad-poincare",
        "kind": "poincare-eigen",
        "model": {"kind": "interval", "a": 0.0, "b": 1.0},
        "params": {"p": 2, "s": 5.0},
        "grid": {"lo": 0.0, "hi": 1.0, "n": 200, "spacing": "linear"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    assert "bad-poincare" in capsys.readouterr().err


def test_seed_override_changes_stream(tmp_path):
    r1 = run_suite(small_config(seed=1))
    r2 = run_suite(small_config(seed=2))
    assert r1["seed"] != r2["seed"]
    w1 = r1["cases"][0]["sides"]["worst"]["rhs"]
    w2 = r2["cases"][0]["sides"]["worst"]["rhs"]
    assert w1 != w2


def test_list_catalog_contents_and_determinism():
    text = list_catalog()
    assert text == list_catalog()
    assert "hardy" in text and "((p-1)/p)^p" in text
    assert "weighted-hardy" in text and "(|p-1-alpha|/p)^p" in text
    assert "green" in text


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


def test_repo_config_matches_bundled():
    repo_cfg = Path(__file__).parent.parent / "configs" / "default_suite.json"
    assert repo_cfg.read_text() == bundled_config_path().read_text()
