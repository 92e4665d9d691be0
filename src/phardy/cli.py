"""Configuration-driven suite runner with machine-readable reports.

One JSON config drives a full verification suite: each case names a
model, a catalog weight, an inequality kind and its parameters, plus a
grid.  The runner executes hypothesis checks before inequality checks,
evaluates margins over seeded random test functions, optionally
minimizes the Rayleigh quotient against the theorem's lower bound, and
writes a deterministic JSON report plus CSV tables.

The checked cases run in forked worker processes, one per usable CPU;
the report does not depend on how many there are.

Exit codes: 0 when no inequality check failed, 1 when one did, 2 for
config errors (the message names the case and the key), 3 for runtime
numerical errors (the offending case is named).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import pickle
import signal
import sys
import warnings
import zlib
from importlib import resources
from pathlib import Path

import numpy as np

from . import capacity as capacity_mod
from . import eigen as eigen_mod
from . import functionals as fn
from . import optimize as opt
from .errors import ConfigError, ToolkitError
from .geometry import CoordinateRange, model_from_config
from .grids import build_grid
from .testfunctions import random_test_functions
from .weights import check_bump_grid, check_weight_finite, parse_weight


def bundled_config_path():
    return resources.files("phardy").joinpath("data/default_suite.json")


def load_config(path: str | None) -> dict:
    try:
        if path is None:
            text = bundled_config_path().read_text()
        else:
            text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict) or "cases" not in cfg:
        raise ConfigError("config must be an object with a 'cases' array")
    return cfg


# ---------------------------------------------------------------------------
# config validation: each rule maps a key to its type (required) or to its
# default (optional, of the default's type; None: an optional number)

_TYPE_NAMES = {
    float: "a finite number", int: "a non-negative integer", str: "a string",
    bool: "true or false", dict: "an object", list: "an array",
}
_CONFIG_RULES = {
    "cases": list, "seed": 0, "tol_disc": fn.TOL_DISC, "n_test_functions": 50,
}
_GRID_RULES = {"lo": float, "hi": float, "n": int, "spacing": "log"}
_CHECK_RULES = {"hypothesis": True, "minimize": False}
_VERDICTS = ("", "p_parabolic", "p_hyperbolic")  # a classification's 'expect'
_MODEL_RULES = {
    "euclidean": {"dim": int}, "hyperbolic": {"dim": int}, "half_plane": {},
    "interval": {"a": float, "b": float},
}


def _checked(where: str, obj, rules: dict) -> dict:
    """obj with every rule's key, defaults filled in; a missing, unknown or
    mistyped key is a ConfigError naming where and the key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = sorted(obj.keys() - rules.keys())
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    out = {}
    for key, rule in rules.items():
        want = float if rule is None else rule if isinstance(rule, type) else type(rule)
        if key not in obj:
            if isinstance(rule, type):
                raise ConfigError(f"{where}: missing key {key!r}")
            out[key] = rule
            continue
        value = obj[key]
        if isinstance(value, bool) and want is not bool:
            ok = False
        elif want is float:
            ok = isinstance(value, (int, float)) and abs(value) <= 1e300
        elif want is int:
            ok = isinstance(value, int) and 0 <= value < 2 ** 63
        else:
            ok = isinstance(value, want)
        if not ok:
            raise ConfigError(f"{where}: {key!r} must be {_TYPE_NAMES[want]}, got {value!r}")
        out[key] = float(value) if want is float else value
    return out


def _built(where: str, key: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a bad value it rejects turned into a
    ConfigError naming where and the key."""
    try:
        return build(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: {key!r}: {exc}") from None


def _checked_case(i: int, spec, conf: dict) -> dict:
    """One case checked against its kind's rules, with its model, grid,
    checks and, unless its kind is a check on the model, its
    InequalityCase built from the source its kind's row names."""
    if not isinstance(spec, dict):
        raise ConfigError(f"'cases'[{i}] must be an object, got {spec!r}")
    where = f"case {spec.get('id', i)!r}"
    name = spec.get("kind")
    kind = fn.KINDS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ConfigError(f"{where}: unknown 'kind' {name!r}")
    rules = {"kind": str, "model": dict, "params": dict, "grid": dict, "id": "",
             "n_test_functions": conf["n_test_functions"]}
    if kind.source == "weight":
        rules.update(weight=str, checks={}, max_iter=opt.MAX_ITER)
    if kind.source == "model":
        rules.update(grid={}, expect="")
    c = _checked(where, spec, rules)
    params = c["params"] = _checked(f"{where} params", c["params"], kind.params)
    if params["p"] <= 1.0:
        raise ConfigError(f"{where} params: 'p' must be > 1, got {params['p']!r}")
    if c["n_test_functions"] < 1:
        raise ConfigError(f"{where}: 'n_test_functions' must be positive")
    model_kind = c["model"].get("kind")
    extra = _MODEL_RULES.get(model_kind, {}) if isinstance(model_kind, str) else {}
    model = _checked(f"{where} model", c["model"], {"kind": str, **extra})
    c["model"] = _built(where, "model", model_from_config, model)
    if kind.source == "model":
        if not c["model"].is_radial:
            raise ConfigError(f"{where}: 'model': {name} needs a radial model")
        if c["expect"] not in _VERDICTS:
            raise ConfigError(f"{where}: unknown 'expect' {c['expect']!r}")
        m = c["model"]
        c["id"] = c["id"] or f"classification[{m.kind}|N={m.dim}|p={params['p']:g}]"
        return c
    g = _checked(f"{where} grid", c["grid"], _GRID_RULES)
    c["rng"] = _built(where, "grid", CoordinateRange, g["lo"], g["hi"])
    c["grid"] = _built(where, "grid", build_grid, c["rng"], g["n"], g["spacing"])
    _built(where, "grid", c["model"].check_domain, c["grid"].nodes)
    # a kind without a 'checks' key runs with the default checks
    c["checks"] = _checked(f"{where} checks", c.get("checks", {}), _CHECK_RULES)
    if c["checks"]["minimize"] and kind.exponents:
        raise ConfigError(f"{where} checks: 'minimize' needs a quotient kind")
    others = {k: v for k, v in params.items() if k != "p"}
    if kind.source == "weight":
        weight = _built(where, "weight", parse_weight, c["weight"], c["model"], params["p"])
        _built(where, "weight", check_weight_finite, weight, c["grid"])
        args = (c["model"], weight)
    elif kind.source == "eigenpair":
        try:
            c["pair"] = eigen_mod.first_eigenpair(
                c["model"], params["p"], c["rng"], grid=c["grid"]
            )
        except ToolkitError as exc:
            exc.case_id = c["id"] or f"case-{i}"
            raise
        args = (c["pair"],)
    else:  # a field's factory takes p with the other params
        args, others = (c["model"],), params
    c["case"] = _built(where, "params", kind.factory, *args, case_id=c["id"], **others)
    c["id"] = c["case"].case_id
    # the runner's weak sign check needs room for one test bump
    if c["checks"]["hypothesis"] and c["case"].hypothesis_mode:
        _built(where, "grid", check_bump_grid, c["grid"])
    return c


# ---------------------------------------------------------------------------
# runners

#: test functions generated at once by the margin sweep; even, so each
#: block starts on a bump and the stream equals one call for all of them
_FUNCTION_BLOCK = 64


def seeded_blocks(grid, count: int, seed):
    """(start, block) over ``random_test_functions(grid, count, seed)``:
    blocks of _FUNCTION_BLOCK functions drawn in turn from one stream, so
    the sweep holds one block; block[k] is entry start + k of the list."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, _FUNCTION_BLOCK):
        yield start, random_test_functions(grid, min(_FUNCTION_BLOCK, count - start), rng)


def _run_margins(c, conf, record, case) -> bool:
    """Record the worst relative margin of the case's sides over its seeded
    test functions, and the index of the function that gave it; True when
    it is within the tolerance and no margin is non-finite (a side that
    overflowed), which the record counts.  Each block's sides come from
    one call."""
    # order-independent per-case stream
    seed = [conf["seed"], zlib.crc32(record["case_id"].encode())]
    worst = worst_index = None
    worst_rel = math.inf
    nonfinite = 0
    for start, block in seeded_blocks(c["grid"], c["n_test_functions"], seed):
        pairs = fn.sides_for(case, block)
        for k, pair in enumerate(pairs):
            if not math.isfinite(pair.margin):
                nonfinite += 1
                continue
            rel = pair.margin / max(pair.rhs, 1e-300)
            if rel < worst_rel:
                worst_rel, worst_index, worst = rel, start + k, pairs[k]
    record["sides"] = {
        "n_test_functions": c["n_test_functions"],
        "min_margin_rel": worst_rel if worst else None,
        "worst_index": worst_index,
        "worst": dataclasses.asdict(worst) if worst else {},
        "passed": bool(worst_rel >= -conf["tol_disc"]) and not nonfinite,
    }
    if nonfinite:
        record["sides"]["n_nonfinite"] = nonfinite
    return record["sides"]["passed"]


def _run_hypothesis(c, record, case) -> bool:
    """Record the weak sign check the case's hypothesis needs, if any;
    False, with the status set, when the weight failed it."""
    if case.hypothesis_mode is None:
        return True
    res = fn.validate_case_hypothesis(case, c["grid"])
    record["hypothesis"] = {
        "mode": case.hypothesis_mode,
        "passed": res.passed,
        "worst_value": res.worst_value,
        "n_bumps": res.n_bumps,
        "worst_center": res.worst_center,
        "worst_width": res.worst_width,
    }
    if not res.passed:
        record["status"] = "hypothesis-failed"
    return res.passed


def _run_inequality_case(c, conf, record):
    """Check the case; one built from an eigenpair records the pair, and
    fails when the pair did not converge."""
    case, grid = c["case"], c["grid"]
    record["case_id"] = c["id"]
    pair = c.get("pair")
    if pair is not None:
        record["eigen"] = {
            "lambda1": pair.lambda1,
            "residual": pair.residual,
            "converged": pair.converged,
        }
    if case.trivial:
        record["status"] = "trivial"
        record["note"] = "degenerate constant: inequality trivially satisfied"
        return
    if c["checks"]["hypothesis"] and not _run_hypothesis(c, record, case):
        return

    ok = _run_margins(c, conf, record, case)
    if c["checks"]["minimize"]:
        res = opt.minimize_quotient(case, grid, max_iter=c["max_iter"])
        bound_ok = res.quotient >= case.formula_constant - conf["tol_disc"]
        record["minimization"] = {
            "quotient": res.quotient,
            "iterations": res.iterations,
            "converged": res.converged,
            "bound_ok": bound_ok,
        }
        optional = (("lower", res.lower), ("residual", res.residual), ("stop", res.stop))
        for key, value in optional:
            if value is not None:
                record["minimization"][key] = value
        if case.oracle_shift > 0:
            record["minimization"]["extrapolated"] = opt.extrapolated(case, res.quotient, grid)
        ok = ok and bound_ok

    record["status"] = "pass" if ok and (pair is None or pair.converged) else "fail"


def _run_classification_case(c, conf, record):
    model, params = c["model"], c["params"]
    p, a = params["p"], params["a"]
    record["case_id"] = c["id"]
    cls = capacity_mod.classify_parabolicity(
        model, p, a=a, b_schedule=capacity_mod.default_b_schedule(a, params["decades"])
    )
    record["classification"] = dataclasses.asdict(cls)
    expect = c["expect"]
    record["status"] = "pass" if (not expect or cls.classification == expect) else "fail"


def _run_case(spec, c, conf):
    """The record of one checked case, or the ToolkitError it raised, which
    names the case."""
    # the grid that was checked, spacing as build_grid normalized it
    grid = {"lo": c["rng"].lo, "hi": c["rng"].hi, "n": c["grid"].n,
            "spacing": c["grid"].spacing} if "rng" in c else {}
    record = {
        "kind": c["kind"],
        "params": spec["params"],
        "grid": grid,
        "seed": conf["seed"],
    }
    try:
        (_run_inequality_case if "case" in c else _run_classification_case)(c, conf, record)
    except ToolkitError as exc:
        exc.case_id = c["id"]
        return exc
    return record


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _first_results(run, indices) -> dict:
    """{i: run(i)} over indices in order, up to and including the first
    exception run returns: the cases after it would not run on one CPU."""
    got = {}
    for i in indices:
        got[i] = run(i)
        if isinstance(got[i], Exception):
            break
    return got


def _worker_results(run, indices, ids, parent: int) -> dict:
    """_first_results in a worker, where an exception that is no ToolkitError
    comes back as a RuntimeError carrying its traceback text; the worker
    leaves before a case once its parent process is gone."""
    def run_or_trace(i):
        if os.getppid() != parent:  # killed: nothing will read the results
            os._exit(1)
        try:
            return run(i)
        except Exception:
            import traceback  # only a worker that hit a bug needs it

            return RuntimeError(f"case {ids[i]!r} in a worker:\n{traceback.format_exc()}")
    return _first_results(run_or_trace, indices)


def _run_cases(run, ids: list) -> list:
    """[run(i) for i in range(len(ids))], the first exception in that order
    raised instead; run returns a record or the ToolkitError of case i.

    One process per usable CPU: jobs - 1 forked workers take cases k,
    k + jobs, ... and this process takes 0, jobs, ...; each worker pickles
    its results into its own pipe and leaves with os._exit.  A worker that
    ends without a result fails its first case with exit 3.  However this
    returns or raises, no worker is left running or unreaped."""
    n, parent = len(ids), os.getpid()
    jobs = max(1, min(_usable_cpus(), n))
    workers = []  # (first case, pid, read end) of each worker not yet reaped
    try:
        for k in range(1, jobs):
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns of a fork while threads (OpenBLAS's)
                    # exist; as an error it would raise after the worker
                    # exists and lose its pid
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as fh:
                        pickle.dump(_worker_results(run, range(k, n, jobs), ids, parent), fh)
                    code = 0
                finally:
                    os._exit(code)
            workers.append((k, pid, r))
            os.close(w)
        results = _first_results(run, range(0, n, jobs))
        while workers:
            k, pid, r = workers[0]
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            os.close(r)
            if code == 0:
                results.update(pickle.loads(data))
            else:
                results[k] = ToolkitError(f"its worker ended without a result (exit code {code})")
                results[k].case_id = ids[k]
    finally:
        for _, pid, r in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
    out = []
    for i in range(n):
        if isinstance(results[i], Exception):
            raise results[i]
        out.append(results[i])
    return out


def run_suite(cfg: dict) -> dict:
    """Check the whole config, then execute every case and assemble the report."""
    conf = _checked("config", cfg, _CONFIG_RULES)
    if conf["tol_disc"] < 0:
        raise ConfigError(f"config: 'tol_disc' must be >= 0, got {conf['tol_disc']!r}")
    cases = [_checked_case(i, spec, conf) for i, spec in enumerate(conf["cases"])]
    for i, c in enumerate(cases):
        if c["id"] in (d["id"] for d in cases[:i]):
            raise ConfigError(f"case {c['id']!r}: duplicate 'id'")
    records = _run_cases(lambda i: _run_case(conf["cases"][i], cases[i], conf),
                         [c["id"] for c in cases])
    records.sort(key=lambda r: r["case_id"])
    summary = {
        "n_pass": sum(r["status"] == "pass" for r in records),
        "n_fail": sum(r["status"] == "fail" for r in records),
        "n_trivial": sum(r["status"] == "trivial" for r in records),
        "n_hypothesis_failed": sum(r["status"] == "hypothesis-failed" for r in records),
    }
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()
    return {
        "config_digest": digest,
        "seed": conf["seed"],
        "tol_disc": conf["tol_disc"],
        "cases": records,
        "summary": summary,
    }


def report_json(report: dict) -> str:
    """Canonical serialization: sorted keys, full round-trip float precision."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


#: the blocks of a case record that emit_tables reads, with the keys it needs
_REPORT_BLOCKS = {
    "grid": set(),
    "sides": {"min_margin_rel", "worst"},
    "classification": {"classification", "inconclusive", "liminf_estimate"},
    "minimization": {"quotient", "iterations", "converged", "bound_ok"},
}


def _is_record(r) -> bool:
    """Whether emit_tables can read the case record r: an id, kind and
    status, and each block it holds an object with the keys read from it."""
    if not isinstance(r, dict) or not {"case_id", "kind", "status"} <= r.keys():
        return False
    blocks = {name: r[name] for name in _REPORT_BLOCKS if name in r}
    if not all(isinstance(b, dict) and _REPORT_BLOCKS[name] <= b.keys()
               for name, b in blocks.items()):
        return False
    return isinstance(blocks.get("sides", {"worst": {}})["worst"], dict)


def emit_tables(report: dict, out_dir, fmt: str = "csv") -> list[Path]:
    """Write the report's tables; bit-stable for identical reports."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out_dir / "report.json"
        path.write_text(report_json(report))
        return [path]
    sides_rows = []
    for r in report["cases"]:
        sides, grid = r.get("sides"), r.get("grid", {})
        worst = sides["worst"] if sides else {}
        sides_rows.append([
            r["case_id"], r["kind"], r["status"],
            *(repr(worst.get(k, "")) if worst else ""
              for k in ("lhs", "rhs", "constant", "margin")),
            repr(sides["min_margin_rel"]) if worst else "",
            *(grid.get(k, "") for k in ("n", "lo", "hi", "spacing")), r.get("seed", ""),
        ])
    tables = {
        "sides.csv": (
            ["case_id", "kind", "status", "lhs", "rhs", "constant", "margin",
             "min_margin_rel", "n", "lo", "hi", "spacing", "seed"],
            sides_rows,
        ),
        "classification.csv": (
            ["case_id", "classification", "inconclusive", "liminf_estimate"],
            [[r["case_id"], c["classification"], c["inconclusive"], repr(c["liminf_estimate"])]
             for r in report["cases"] if (c := r.get("classification"))],
        ),
        "minimization.csv": (
            ["case_id", "quotient", "lower", "iterations", "converged", "bound_ok"],
            [[r["case_id"], repr(m["quotient"]), repr(m["lower"]) if "lower" in m else "",
              m["iterations"], m["converged"], m["bound_ok"]]
             for r in report["cases"] if (m := r.get("minimization"))],
        ),
    }
    for name, (header, rows) in tables.items():
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return [out_dir / name for name in tables]


#: catalog rows of the models and weights; the inequality rows come from fn.KINDS
_CATALOG_ROWS = [
    ("model", "euclidean", "density sigma_(N-1) r^(N-1)"),
    ("model", "half_plane", "density y^-2, gradient factor y"),
    ("model", "hyperbolic", "density sigma_(N-1) sinh^(N-1)(r)"),
    ("model", "interval", "density 1"),
    ("weight", "constant:c=C", "rho = C"),
    ("weight", "dist-boundary", "rho = min(x-a, b-x)"),
    ("weight", "halfplane-y", "rho = y"),
    ("weight", "log:inner|outer", "rho = |ln r|"),
    ("weight", "power:beta=B", "rho = r^B"),
    ("weight", "rlogr", "rho = -r ln r"),
]


def list_catalog() -> str:
    """Stable, sorted listing of models, weights and inequality constants."""
    rows = [("inequality", name, k.formula) for name, k in sorted(fn.KINDS.items()) if k.formula]
    lines = [f"{group:10s} | {name:22s} | {formula}" for group, name, formula in rows + _CATALOG_ROWS]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="phardy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a verification suite from a config file")
    p_run.add_argument("config", nargs="?", default=None,
                       help="config path (default: bundled suite)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--tol-disc", type=float, default=None)
    p_run.add_argument("--out-dir", default="reports")
    sub.add_parser("list", help="print the model/weight/inequality catalog")
    p_emit = sub.add_parser("emit", help="re-emit tables from a report")
    p_emit.add_argument("report")
    p_emit.add_argument("--format", choices=["csv", "json"], default="csv")
    p_emit.add_argument("--out-dir", default="reports")
    args = parser.parse_args(argv)

    if args.command == "list":
        sys.stdout.write(list_catalog())
        return 0

    if args.command == "emit":
        try:
            report = json.loads(Path(args.report).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read report: {exc}", file=sys.stderr)
            return 2
        cases = report.get("cases") if isinstance(report, dict) else None
        if not isinstance(cases, list) or not all(map(_is_record, cases)):
            print("error: not a phardy report", file=sys.stderr)
            return 2
        paths = emit_tables(report, args.out_dir, args.format)
        for p in paths:
            print(p)
        return 0

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.tol_disc is not None:
            cfg["tol_disc"] = args.tol_disc
        report = run_suite(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        case = getattr(exc, "case_id", "<unknown>")
        print(f"numerical error in case {case}: {exc}", file=sys.stderr)
        return 3
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_json(report))
    emit_tables(report, out, "csv")
    s = report["summary"]
    print(
        f"pass={s['n_pass']} fail={s['n_fail']} trivial={s['n_trivial']} "
        f"hypothesis-failed={s['n_hypothesis_failed']} -> {out / 'report.json'}"
    )
    return 0 if s["n_fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
