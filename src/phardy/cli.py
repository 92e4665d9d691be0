"""Configuration-driven suite runner with machine-readable reports.

One JSON config drives a full verification suite: each case names a
model, a catalog weight, an inequality kind and its parameters, plus a
grid.  The runner executes hypothesis checks before inequality checks,
evaluates margins over seeded random test functions, optionally
minimizes the Rayleigh quotient against the theorem's lower bound, and
writes a deterministic JSON report plus CSV tables.

Exit codes: 0 when no inequality check failed, 2 for config errors,
3 for runtime numerical errors (the offending case is named).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import zlib
from importlib import resources
from pathlib import Path

from . import capacity as capacity_mod
from . import eigen as eigen_mod
from . import functionals as fn
from . import optimize as opt
from .errors import ConfigError, ToolkitError
from .geometry import CoordinateRange, model_from_config
from .grids import build_grid
from .testfunctions import random_test_functions
from .weights import parse_weight

DEFAULT_TOL_DISC = fn.TOL_DISC
DEFAULT_N_TEST_FUNCTIONS = 50


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


def _case_range(spec: dict) -> CoordinateRange:
    g = spec["grid"]
    return CoordinateRange(
        float(g["lo"]),
        float(g["hi"]),
        open_lo=bool(g.get("open_lo", True)),
        open_hi=bool(g.get("open_hi", True)),
    )


def _case_grid(spec: dict):
    g = spec["grid"]
    return build_grid(_case_range(spec), int(g["n"]), g.get("spacing", "log"))


def _build_case(spec: dict) -> fn.InequalityCase:
    kind = spec["kind"]
    model = model_from_config(spec["model"])
    params = spec.get("params", {})
    p = float(params["p"])
    rng = _case_range(spec)
    weight = parse_weight(spec["weight"], model, p) if "weight" in spec else None
    cid = spec.get("id", "")
    if kind in ("hardy", "weighted-hardy"):
        return fn.weighted_hardy_case(
            model, weight, float(params.get("alpha", 0.0)), rng, cid
        )
    if kind == "caccioppoli":
        return fn.caccioppoli_case(model, weight, float(params["q"]), rng, cid)
    if kind == "gn":
        return fn.gn_case(model, weight, float(params["delta"]), rng, cid)
    if kind == "uncertainty":
        return fn.uncertainty_case(
            model, weight, float(params["s"]), float(params["a"]), rng, cid
        )
    if kind == "hardy-sobolev":
        return fn.hardy_sobolev_case(
            model,
            weight,
            float(params["theta"]),
            float(params["p_star"]),
            float(params["sobolev_constant"]),
            rng,
            cid,
        )
    if kind == "ckn":
        return fn.ckn_case(
            model,
            weight,
            theta=float(params["theta"]),
            p_star=float(params["p_star"]),
            r=float(params["r"]),
            a=float(params["a"]),
            gamma=float(params["gamma"]),
            delta=float(params["delta"]),
            eps=params.get("eps"),
            sigma=float(params.get("sigma", 0.0)),
            sobolev_constant=float(params["sobolev_constant"]),
            rng=rng,
            case_id=cid,
        )
    raise ConfigError(f"unknown case kind {kind!r}")


def _case_seed(master_seed: int, case_id: str) -> list[int]:
    # order-independent per-case stream
    return [int(master_seed), zlib.crc32(case_id.encode())]


def _sidepair_record(pair: fn.SidePair) -> dict:
    return {
        "lhs": pair.lhs,
        "rhs": pair.rhs,
        "constant": pair.constant,
        "margin": pair.margin,
    }


def _run_margins(case, grid, n_funcs, seed, tol_disc, sides_fn):
    funcs = random_test_functions(grid, n_funcs, seed)
    worst = None
    worst_rel = math.inf
    for u in funcs:
        pair = sides_fn(case, u)
        scale = max(pair.rhs, 1e-300)
        rel = pair.margin / scale
        if rel < worst_rel:
            worst_rel = rel
            worst = pair
    return {
        "n_test_functions": n_funcs,
        "min_margin_rel": worst_rel,
        "worst": _sidepair_record(worst),
        "passed": bool(worst_rel >= -tol_disc),
    }


def _run_inequality_case(spec, cfg, record):
    case = _build_case(spec)
    record["case_id"] = case.case_id
    grid = _case_grid(spec)
    tol_disc = float(cfg.get("tol_disc", DEFAULT_TOL_DISC))
    checks = spec.get("checks", {})

    if case.trivial:
        record["status"] = "trivial"
        record["note"] = "degenerate constant: inequality trivially satisfied"
        return

    if checks.get("hypothesis", True) and case.hypothesis_mode is not None:
        res = fn.validate_case_hypothesis(case, grid)
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
            return

    seed = _case_seed(int(cfg.get("seed", 0)), case.case_id)
    n_funcs = int(
        spec.get("n_test_functions", cfg.get("n_test_functions", DEFAULT_N_TEST_FUNCTIONS))
    )
    margins = _run_margins(case, grid, n_funcs, seed, tol_disc, fn.sides_for)
    record["sides"] = margins
    ok = margins["passed"]

    if checks.get("minimize", False):
        if case.p == 2.0:
            res = opt.minimize_quotient_p2(case, grid)
        else:
            res = opt.minimize_quotient_general_p(
                case, grid, max_iter=int(spec.get("max_iter", 5000))
            )
        bound_ok = res.quotient >= case.formula_constant - tol_disc
        record["minimization"] = {
            "quotient": res.quotient,
            "iterations": res.iterations,
            "converged": res.converged,
            "bound_ok": bound_ok,
        }
        if case.oracle_shift > 0:
            L = math.log(grid.hi / grid.lo)
            record["minimization"]["extrapolated"] = (
                res.quotient - case.oracle_shift * (math.pi / L) ** 2
            )
        ok = ok and bound_ok

    record["status"] = "pass" if ok else "fail"


def _run_classification_case(spec, cfg, record):
    model = model_from_config(spec["model"])
    p = float(spec["params"]["p"])
    a = float(spec["params"].get("a", 1.0))
    decades = int(spec["params"].get("decades", 13))
    cid = spec.get("id", f"classification[{model.kind}|N={model.dim}|p={p:g}]")
    record["case_id"] = cid
    cls = capacity_mod.classify_parabolicity(
        model, p, a=a, b_schedule=capacity_mod.default_b_schedule(a, decades)
    )
    record["classification"] = {
        "classification": cls.classification,
        "inconclusive": cls.inconclusive,
        "liminf_estimate": cls.liminf_estimate,
        "schedule": cls.schedule,
        "values": cls.values,
    }
    expect = spec.get("expect")
    record["status"] = "pass" if (expect is None or cls.classification == expect) else "fail"


def _run_eigen_case(spec, cfg, record):
    model = model_from_config(spec["model"])
    params = spec.get("params", {})
    p = float(params["p"])
    rng = _case_range(spec)
    grid = _case_grid(spec)
    cid = spec.get("id", f"{spec['kind']}[{model.kind}|p={p:g}]")
    record["case_id"] = cid
    pair = eigen_mod.first_eigenpair(model, p, rng, grid=grid)
    record["eigen"] = {
        "lambda1": pair.lambda1,
        "residual": pair.residual,
        "converged": pair.converged,
    }
    tol_disc = float(cfg.get("tol_disc", DEFAULT_TOL_DISC))
    seed = _case_seed(int(cfg.get("seed", 0)), cid)
    n_funcs = int(spec.get("n_test_functions", cfg.get("n_test_functions", DEFAULT_N_TEST_FUNCTIONS)))
    kind = spec["kind"]
    if kind == "eigen-hardy":
        case = eigen_mod.eigen_hardy_case(pair, float(params.get("alpha", 0.0)))
        margins = _run_margins(case, grid, n_funcs, seed, tol_disc, fn.sides_for)
    elif kind == "poincare-eigen":
        s = float(params["s"])
        margins = _run_margins(
            pair, grid, n_funcs, seed, tol_disc,
            lambda pr, u: eigen_mod.poincare_eigen_check(pr, p, s, u),
        )
    else:  # distance-hardy
        eps_split = float(params.get("eps_split", 0.1))
        margins = _run_margins(
            pair, grid, n_funcs, seed, tol_disc,
            lambda pr, u: eigen_mod.distance_hardy_composite(pr, p, eps_split, u),
        )
    record["sides"] = margins
    record["status"] = "pass" if (margins["passed"] and pair.converged) else "fail"


def _run_divergence_case(spec, cfg, record):
    model = model_from_config(spec["model"])
    p = float(spec["params"]["p"])
    field_name = spec["params"].get("field", "davies-hinz")
    cid = spec.get("id", f"divergence-lemma[{model.kind}|{field_name}|p={p:g}]")
    record["case_id"] = cid
    if field_name == "davies-hinz":
        vfc = fn.davies_hinz_field(model)
    elif field_name == "killing":
        vfc = fn.killing_field(model, p)
    else:
        raise ConfigError(f"unknown vector field {field_name!r}")
    grid = _case_grid(spec)
    tol_disc = float(cfg.get("tol_disc", DEFAULT_TOL_DISC))
    seed = _case_seed(int(cfg.get("seed", 0)), cid)
    n_funcs = int(spec.get("n_test_functions", cfg.get("n_test_functions", DEFAULT_N_TEST_FUNCTIONS)))
    margins = _run_margins(
        vfc, grid, n_funcs, seed, tol_disc,
        lambda v, u: fn.divergence_lemma_sides(v, u, p),
    )
    record["sides"] = margins
    record["status"] = "pass" if margins["passed"] else "fail"


_RUNNERS = {
    "hardy": _run_inequality_case,
    "weighted-hardy": _run_inequality_case,
    "caccioppoli": _run_inequality_case,
    "gn": _run_inequality_case,
    "uncertainty": _run_inequality_case,
    "hardy-sobolev": _run_inequality_case,
    "ckn": _run_inequality_case,
    "classification": _run_classification_case,
    "eigen-hardy": _run_eigen_case,
    "poincare-eigen": _run_eigen_case,
    "distance-hardy": _run_eigen_case,
    "divergence-lemma": _run_divergence_case,
}


def run_suite(cfg: dict) -> dict:
    """Execute every configured case and assemble the report."""
    records = []
    for i, spec in enumerate(cfg["cases"]):
        kind = spec.get("kind")
        if kind not in _RUNNERS:
            raise ConfigError(f"case {i}: unknown kind {kind!r}")
        record = {
            "kind": kind,
            "params": spec.get("params", {}),
            "grid": spec.get("grid", {}),
            "seed": int(cfg.get("seed", 0)),
        }
        try:
            _RUNNERS[kind](spec, cfg, record)
        except ConfigError:
            raise
        except ToolkitError as exc:
            exc.case_id = record.get("case_id", spec.get("id", f"case-{i}"))
            raise
        records.append(record)
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
        "seed": int(cfg.get("seed", 0)),
        "tol_disc": float(cfg.get("tol_disc", DEFAULT_TOL_DISC)),
        "cases": records,
        "summary": summary,
    }


def report_json(report: dict) -> str:
    """Canonical serialization: sorted keys, full round-trip float precision."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_CSV_COLUMNS = [
    "case_id", "kind", "status", "lhs", "rhs", "constant", "margin",
    "min_margin_rel", "n", "lo", "hi", "spacing", "seed",
]


def emit_tables(report: dict, out_dir, fmt: str = "csv") -> list[Path]:
    """Write the report's tables; bit-stable for identical reports."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "json":
        path = out_dir / "report.json"
        path.write_text(report_json(report))
        return [path]
    path = out_dir / "sides.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for r in report["cases"]:
            worst = r.get("sides", {}).get("worst", {})
            grid = r.get("grid", {})
            writer.writerow([
                r["case_id"], r["kind"], r["status"],
                repr(worst.get("lhs", "")) if worst else "",
                repr(worst.get("rhs", "")) if worst else "",
                repr(worst.get("constant", "")) if worst else "",
                repr(worst.get("margin", "")) if worst else "",
                repr(r.get("sides", {}).get("min_margin_rel", "")) if r.get("sides") else "",
                grid.get("n", ""), grid.get("lo", ""), grid.get("hi", ""),
                grid.get("spacing", ""), r.get("seed", ""),
            ])
    written.append(path)
    cpath = out_dir / "classification.csv"
    with open(cpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "classification", "inconclusive", "liminf_estimate"])
        for r in report["cases"]:
            if "classification" in r:
                c = r["classification"]
                writer.writerow([
                    r["case_id"], c["classification"], c["inconclusive"],
                    repr(c["liminf_estimate"]),
                ])
    written.append(cpath)
    mpath = out_dir / "minimization.csv"
    with open(mpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "quotient", "iterations", "converged", "bound_ok"])
        for r in report["cases"]:
            if "minimization" in r:
                m = r["minimization"]
                writer.writerow([
                    r["case_id"], repr(m["quotient"]), m["iterations"],
                    m["converged"], m["bound_ok"],
                ])
    written.append(mpath)
    return written


_CATALOG_ROWS = [
    ("inequality", "caccioppoli", "((q+1)/p)^p"),
    ("inequality", "ckn", "C3 = C2^(p*(r-p)/(r(p*-p))) H^(a/p - p*(r-p)/(p r (p*-p)))"),
    ("inequality", "distance-hardy", "min(((p-1)/p)^p b^p/L^p, lam1 (p-1-s)^(p-1)/p^p l^s eps^p)/2"),
    ("inequality", "divergence-lemma", "p^p"),
    ("inequality", "eigen-hardy", "((p-1-alpha)/p)^p"),
    ("inequality", "gn", "(p/(|alpha|(p-1)))^(p-1)"),
    ("inequality", "hardy", "((p-1)/p)^p"),
    ("inequality", "hardy-sobolev", "C2 = S(p) H^(1/p)/(|theta| + H^(1/p))"),
    ("inequality", "poincare-eigen", "lam1 (p-1-s)^(p-1)/p^p"),
    ("inequality", "uncertainty", "(p/(|alpha|(p-1)))^(p/a)"),
    ("inequality", "weighted-hardy", "(|p-1-alpha|/p)^p"),
    ("model", "euclidean", "density sigma_(N-1) r^(N-1)"),
    ("model", "half_plane", "density y^-2, gradient factor y"),
    ("model", "hyperbolic", "density sigma_(N-1) sinh^(N-1)(r)"),
    ("model", "interval", "density 1"),
    ("weight", "constant:c=C", "rho = C"),
    ("weight", "dist-boundary", "rho = min(x-a, b-x)"),
    ("weight", "eigenfunction", "rho = phi_1"),
    ("weight", "green", "rho(t) = int_t^hi s^(-1/(p-1))"),
    ("weight", "halfplane-y", "rho = y"),
    ("weight", "log:inner|outer", "rho = |ln r|"),
    ("weight", "power:beta=B", "rho = r^B"),
    ("weight", "rlogr", "rho = -r ln r"),
]


def list_catalog() -> str:
    """Stable, sorted listing of models, weights and inequality constants."""
    lines = [f"{group:10s} | {name:22s} | {formula}" for group, name, formula in _CATALOG_ROWS]
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
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
