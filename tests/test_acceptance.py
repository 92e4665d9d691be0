"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not deferred: quotient-vs-oracle agreements at
1 percent, lower bounds at 1e-6, capacity values at 0.5 percent, identity
reductions at 1e-12 relative, eigenvalues at 1e-6 relative (the tridiagonal
second-order discretization mandated for the solver has an absolute error
floor of ~2e-6 for pi^2 at n = 2000, so "within 1e-6" is pinned relative).
"""
import math
import time

import numpy as np

from oracles import (
    chain_rule_identity_check,
    classify_weight_sign,
    estimate_lambda1,
    plaplace_lambda1_shooting,
    signed_catalog,
)

from phardy.capacity import classify_parabolicity, radial_capacity
from phardy.cli import load_config, report_json, run_suite
from phardy.eigen import first_eigenpair
from phardy.forms import P1Forms
from phardy.functionals import (
    caccioppoli_case,
    ckn_case,
    divergence_case,
    gn_case,
    hardy_case,
    hardy_sobolev_case,
    sides_for,
    uncertainty_case,
    validate_case_hypothesis,
    weighted_hardy_case,
)
from phardy.geometry import (
    CoordinateRange,
    ModelManifold,
    euclidean_radial,
    hyperbolic_radial,
    interval,
)
from phardy.grids import build_grid
from phardy.optimize import convergence_study, minimize_quotient_p2
from phardy.testfunctions import random_test_functions
from phardy.weights import rho_catalog_entry

E3 = euclidean_radial(3)


def _report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_euclidean_hardy_sandwich():
    t0 = time.perf_counter()
    rng = CoordinateRange(1e-4, 1e4)
    case = hardy_case(E3, rho_catalog_entry("power", E3, 2.0, beta=-1.0))
    grid = build_grid(rng, 4000, "log")
    res = minimize_quotient_p2(case, grid)
    elapsed = time.perf_counter() - t0
    L = math.log(1e8)
    oracle = 0.25 + (math.pi / L) ** 2
    rel = abs(res.quotient - oracle) / oracle
    bound_ok = res.quotient >= 0.25 - 1e-6
    history_ok = all(q >= 0.25 - 1e-6 for _, q in res.history)
    _report(
        1,
        rel < 0.01 and bound_ok and history_ok and elapsed < 10.0,
        f"quotient={res.quotient:.6f} oracle={oracle:.6f} rel={rel:.2e} "
        f"time={elapsed:.2f}s",
    )


def test_criterion_2_halfplane_hardy_poincare():
    hp = ModelManifold("half_plane")
    w = rho_catalog_entry("halfplane-y", hp, 2.0)
    rng = CoordinateRange(1e-3, 1e3)
    grid = build_grid(rng, 2000, "log")
    L = math.log(1e6)
    details = []
    ok = True
    for alpha in (0.0, -1.0, 3.0):
        case = weighted_hardy_case(hp, w, alpha)
        res = minimize_quotient_p2(case, grid)
        target = (1.0 - alpha) ** 2 / 4.0
        pred = target + (math.pi / L) ** 2
        rel = abs(res.quotient - pred) / pred
        ok = ok and res.quotient >= target - 1e-6 and rel < 0.01
        details.append(f"alpha={alpha:g}: q={res.quotient:.6f} rel={rel:.1e}")
    _report(2, ok, "; ".join(details))


def test_criterion_3_poincare_eigenvalue():
    pair2 = first_eigenpair(interval(0, 1), 2.0, CoordinateRange(0, 1), n=2000)
    rel2 = abs(pair2.lambda1 - math.pi ** 2) / math.pi ** 2
    oracle3 = plaplace_lambda1_shooting(3.0, 1.0)
    pair3 = first_eigenpair(interval(0, 1), 3.0, CoordinateRange(0, 1), n=1200)
    rel3 = abs(pair3.lambda1 - oracle3) / oracle3
    _report(
        3,
        rel2 <= 1e-6 and rel3 <= 1e-3,
        f"p=2: lambda1={pair2.lambda1:.9f} rel={rel2:.1e}; "
        f"p=3: lambda1={pair3.lambda1:.6f} shooting={oracle3:.6f} rel={rel3:.1e}",
    )


def test_criterion_4_capacity_classification():
    ok = True
    details = []
    for n_dim in (2, 3, 4):
        for p in (1.5, 2.0, 3.0, 4.0):
            cls = classify_parabolicity(euclidean_radial(n_dim), p)
            expected = "p_parabolic" if p >= n_dim else "p_hyperbolic"
            if cls.classification != expected:
                ok = False
                details.append(f"(N={n_dim}, p={p}) -> {cls.classification}")
    e2 = euclidean_radial(2)
    for R in (1e3, 1e6):
        got = radial_capacity(e2, 2.0, 1.0, R)
        exact = 2 * math.pi / math.log(R)
        if abs(got - exact) / exact >= 0.005:
            ok = False
            details.append(f"cap2(R={R:g}) off")
    got3 = radial_capacity(E3, 2.0, 1.0, 1e6)
    if abs(got3 - 4 * math.pi) / (4 * math.pi) >= 0.005:
        ok = False
        details.append("cap3 off")
    for p in (1.5, 2.0, 3.0):
        cls = classify_parabolicity(hyperbolic_radial(2), p)
        if cls.classification != "p_hyperbolic":
            ok = False
            details.append(f"H2 p={p} -> {cls.classification}")
    _report(4, ok, "all 12 Euclidean pairs + plane/space capacities + H2"
            if ok else "; ".join(details))


def test_criterion_5_hypothesis_checker_confusion_table():
    entries = signed_catalog()
    correct = 0
    wrong = []
    for e in entries:
        got = classify_weight_sign(e.weight, e.grid)
        if got == e.expected:
            correct += 1
        else:
            wrong.append(f"{e.weight.name}: expected {e.expected}, got {got}")
    _report(
        5,
        correct == len(entries) == 8,
        f"{correct}/{len(entries)} correct" + ("; " + "; ".join(wrong) if wrong else ""),
    )


def _property_cases():
    """(case, the range of its grid) for each case of the property suite."""
    w_harm = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    w_sub = rho_catalog_entry("power", E3, 2.0, beta=2.0)
    rng = CoordinateRange(1e-3, 1e3)
    rng_mid = CoordinateRange(1e-2, 1e2)
    cases = [(hardy_case(E3, w_harm), rng)]
    for alpha in (-1.0, 0.0, 1.0, 2.0):  # {-1, 0, p/2, p} for p = 2
        cases.append((weighted_hardy_case(E3, w_harm, alpha), rng))
    for q in (0.0, 2.0):  # {0, p}
        cases.append((caccioppoli_case(E3, w_sub, q), rng_mid))
    cases.append((gn_case(E3, w_harm, delta=2.0), rng))
    cases.append((uncertainty_case(E3, w_harm, s=2.0, a=2.0), rng))
    cases.append(
        (hardy_sobolev_case(E3, w_harm, theta=-0.5, p_star=6.0, sobolev_constant=2.0), rng)
    )
    cases.append(
        (ckn_case(E3, w_harm, theta=-0.5, p_star=6.0, r=4.0, a=0.75,
                  gamma=0.5, delta=0.5, sigma=0.0, sobolev_constant=2.0), rng)
    )
    return cases


def test_criterion_6_inequality_property_suite():
    t0 = time.perf_counter()
    worst_rel = math.inf
    worst_name = ""
    n_checked = 0
    for i, (case, rng) in enumerate(_property_cases()):
        grid = build_grid(rng, 2000, "log")
        if case.hypothesis_mode is not None:
            assert validate_case_hypothesis(case, grid).passed, case.case_id
        if case.trivial:
            continue
        for u in random_test_functions(grid, 100, seed=1000 + i):
            pair = sides_for(case, u)
            rel = pair.margin / max(pair.rhs, 1e-300)
            n_checked += 1
            if rel < worst_rel:
                worst_rel = rel
                worst_name = case.case_id
    # divergence-lemma instances (Davies-Hinz and Killing-field)
    rng_mid = CoordinateRange(1e-2, 1e2)
    grid = build_grid(rng_mid, 2000, "log")
    for j, field_name in enumerate(["davies-hinz", "killing"]):
        vfc = divergence_case(E3, field_name, 2.0)
        for u in random_test_functions(grid, 100, seed=2000 + j):
            pair = sides_for(vfc, u)
            rel = pair.margin / max(pair.rhs, 1e-300)
            n_checked += 1
            if rel < worst_rel:
                worst_rel = rel
                worst_name = field_name
    elapsed = time.perf_counter() - t0
    _report(
        6,
        worst_rel >= -1e-6 and elapsed < 60.0,
        f"{n_checked} margins, worst rel margin {worst_rel:.3e} ({worst_name}), "
        f"time={elapsed:.1f}s",
    )


def test_criterion_7_non_attainment_and_remainder():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    case = hardy_case(E3, w)
    study = convergence_study(case)
    decreasing = all(
        study.quotients[i + 1] < study.quotients[i]
        for i in range(len(study.quotients) - 1)
    )
    gaps_positive = all(g > 0 for g in study.gaps)

    lam_vals = []
    for eps in (1e-3, 1e-4, 1e-5):
        ball = CoordinateRange(eps, 1.0)
        lam_vals.append(estimate_lambda1(E3, w, ball, n=2500, natural_lo=True))
    spread = (max(lam_vals) - min(lam_vals)) / min(lam_vals)

    ball = CoordinateRange(1e-4, 1.0)
    grid = build_grid(ball, 2500, "log")
    ball_case = hardy_case(E3, w)
    lam = lam_vals[1]
    forms = P1Forms(grid, lambda t: (np.exp(E3.log_volume_density(t)),) * 2)
    remainder_ok = True
    for u in random_test_functions(grid, 50, seed=7000):
        mass = forms.evaluate(u.values, 2.0)[1]
        if sides_for(ball_case, u).margin < 0.98 * lam * mass:
            remainder_ok = False
            break
    _report(
        7,
        decreasing and gaps_positive and lam_vals[0] > 0 and spread < 0.02
        and remainder_ok,
        f"quotients={['%.5f' % q for q in study.quotients]} "
        f"gaps>0={gaps_positive} lambda1={lam_vals[1]:.4f} spread={spread:.2e}",
    )


def test_criterion_8_reduction_identities():
    rng = CoordinateRange(1e-3, 1e3)
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    grid = build_grid(rng, 2000, "log")
    plain = hardy_case(E3, w)
    weighted = weighted_hardy_case(E3, w, 0.0)
    ok1 = True
    fns = random_test_functions(grid, 20, seed=8000)
    for a, b in zip(sides_for(plain, fns), sides_for(weighted, fns)):
        for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs), (a.margin, b.margin)):
            if abs(x - y) > 1e-12 * max(abs(x), 1e-300):
                ok1 = False

    hs = hardy_sobolev_case(E3, w, theta=-0.5, p_star=6.0, sobolev_constant=2.0)
    ck = ckn_case(E3, w, theta=-0.5, p_star=6.0, r=6.0, a=1.0, gamma=0.5,
                  delta=0.3, sigma=0.0, sobolev_constant=2.0)
    ok2 = abs(ck.formula_constant - hs.formula_constant) <= 1e-12 * hs.formula_constant
    fns = random_test_functions(grid, 20, seed=8001)
    for a, b in zip(sides_for(hs, fns), sides_for(ck, fns)):
        for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs), (a.margin, b.margin)):
            if abs(x - y) > 1e-12 * max(abs(x), 1e-300):
                ok2 = False

    m = interval(0.0, 1.0)
    wx = rho_catalog_entry("power", m, 2.0, beta=1.0)
    cr_grid = build_grid(CoordinateRange(0.1, 1.0), 1001, "linear")
    err = chain_rule_identity_check(wx, 0.5, cr_grid)
    ok3 = err < 1e-4
    _report(
        8,
        ok1 and ok2 and ok3,
        f"weighted(0)==hardy: {ok1}; ckn(a=1,r=p*)==hardy-sobolev: {ok2}; "
        f"chain-rule err={err:.2e}",
    )


def test_criterion_9_report_determinism():
    cfg = load_config(None)
    a = report_json(run_suite(cfg))
    b = report_json(run_suite(load_config(None)))
    _report(9, a == b, f"bundled suite report bytes: {len(a)} == {len(b)}, identical")
