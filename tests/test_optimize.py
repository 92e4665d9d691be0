import math

import numpy as np
import pytest

from phardy.errors import InvalidArgumentError
from phardy.forms import P1Forms
from phardy.functionals import hardy_case, hardy_gap, rayleigh_quotient, weighted_hardy_case
from phardy.geometry import (
    CoordinateRange,
    euclidean_radial,
    half_plane_poincare,
    interval,
)
from phardy.grids import GridFunction, build_grid, refine
from phardy.optimize import (
    convergence_study,
    default_truncation_schedule,
    descend_quotient,
    estimate_lambda1,
    minimize_quotient_general_p,
    minimize_quotient_p2,
    minimize_rayleigh_p2,
)
from phardy.testfunctions import random_test_functions
from phardy.weights import rho_catalog_entry

E3 = euclidean_radial(3)
E4 = euclidean_radial(4)
ONES = lambda t: (np.ones_like(t), np.ones_like(t))  # noqa: E731


def hardy_e3(rng):
    return hardy_case(E3, rho_catalog_entry("power", E3, 2.0, beta=-1.0), rng)


def test_pure_poincare_eigenvalue():
    grid = build_grid(CoordinateRange(0, 1), 2000, "linear")
    res = minimize_rayleigh_p2(grid, ONES)
    assert res.converged
    assert abs(res.quotient - math.pi ** 2) <= 1e-6 * math.pi ** 2


def test_single_interior_node_pencil():
    # one free node: the hat on [0, 1] has quotient 4 / (1/3) = 12 exactly
    grid = build_grid(CoordinateRange(0, 1), 3, "linear")
    res = minimize_rayleigh_p2(grid, ONES)
    assert res.quotient == pytest.approx(12.0, rel=1e-12)


def test_hardy_quotient_matches_log_oracle():
    rng = CoordinateRange(1e-3, 1e3, True, True)
    grid = build_grid(rng, 2000, "log")
    res = minimize_quotient_p2(hardy_e3(rng), grid)
    L = math.log(rng.hi / rng.lo)
    oracle = 0.25 + (math.pi / L) ** 2
    assert res.quotient == pytest.approx(oracle, rel=1e-2)
    assert res.quotient >= 0.25 - 1e-6


def test_halfplane_quotient_matches_oracle():
    hp = half_plane_poincare()
    w = rho_catalog_entry("halfplane-y", hp, 2.0)
    rng = CoordinateRange(1e-3, 1e3, True, True)
    grid = build_grid(rng, 2000, "log")
    res = minimize_quotient_p2(weighted_hardy_case(hp, w, 0.0, rng), grid)
    L = math.log(1e6)
    assert res.quotient == pytest.approx(0.25 + (math.pi / L) ** 2, rel=1e-2)


def test_p2_descent_agrees_with_inverse_iteration():
    grid = build_grid(CoordinateRange(0, 1), 800, "linear")
    res = minimize_rayleigh_p2(grid, ONES)
    seed = grid.nodes * (1.0 - grid.nodes)
    q, _, _, conv, hist = descend_quotient(grid, ONES, 2.0, seed, rtol=1e-12)
    assert conv
    assert abs(q - res.quotient) <= 1e-6 * res.quotient
    qs = [h[1] for h in hist]
    assert all(qs[i + 1] <= qs[i] + 1e-15 for i in range(len(qs) - 1))


def test_general_p_lower_bound_and_decrease():
    w = rho_catalog_entry("power", E4, 3.0, beta=-0.5)
    bound = (2.0 / 3.0) ** 3
    quotients = []
    for lo, hi, n in [(1e-3, 1e3, 1200), (1e-4, 1e4, 1600)]:
        rng = CoordinateRange(lo, hi, True, True)
        case = hardy_case(E4, w, rng)
        grid = build_grid(rng, n, "log")
        res = minimize_quotient_general_p(case, grid, max_iter=3000)
        quotients.append(res.quotient)
        assert res.quotient >= bound - 1e-6
        gap = hardy_gap(case, res.minimizer)
        assert gap > 0.0
    assert quotients[1] < quotients[0]


def test_warm_start_not_worse_than_cold():
    m = interval(0.0, 1.0)
    w = rho_catalog_entry("power", m, 2.5, beta=1.0)
    rng = CoordinateRange(0.1, 1.0)
    case = hardy_case(m, w, rng)
    coarse = build_grid(rng, 101, "linear")
    fine = refine(coarse)
    cold = minimize_quotient_general_p(case, fine, rtol=1e-12)
    coarse_res = minimize_quotient_general_p(case, coarse, rtol=1e-12)
    warm_vals = np.interp(fine.nodes, coarse.nodes, coarse_res.minimizer.values)
    warm_vals[0] = warm_vals[-1] = 0.0
    warm = minimize_quotient_general_p(
        case, fine, u0=GridFunction(fine, warm_vals, dirichlet_zero=True), rtol=1e-12
    )
    assert warm.quotient <= cold.quotient + 1e-10


def test_monotone_under_nested_refinement():
    rng = CoordinateRange(1e-2, 1e2, True, True)
    case = hardy_e3(rng)
    grid = build_grid(rng, 500, "log")
    q_coarse = minimize_quotient_p2(case, grid).quotient
    q_fine = minimize_quotient_p2(case, refine(grid)).quotient
    assert q_fine <= q_coarse + 1e-12


def test_quotient_history_non_increasing():
    rng = CoordinateRange(1e-3, 1e3, True, True)
    grid = build_grid(rng, 1000, "log")
    res = minimize_quotient_p2(hardy_e3(rng), grid)
    qs = [h[1] for h in res.history]
    # inverse power iterations converge monotonically from above
    assert all(qs[i + 1] <= qs[i] + 1e-12 * qs[i] for i in range(len(qs) - 1))


def test_convergence_study_widening():
    case = hardy_e3(CoordinateRange(1e-4, 1e4, True, True))
    study = convergence_study(case, schedule=default_truncation_schedule(3, 800))
    assert all(
        study.quotients[i + 1] < study.quotients[i]
        for i in range(len(study.quotients) - 1)
    )
    assert study.extrapolated_limit == pytest.approx(0.25, rel=5e-3)
    assert all(g > 0 for g in study.gaps)


def test_estimate_lambda1_interval():
    # closed-form first eigenvalue pi^2 at n = 4000 within 1e-6 absolute
    lam = estimate_lambda1(
        interval(0, 1),
        rho_catalog_entry("constant", interval(0, 1), 2.0, c=1.0),
        CoordinateRange(0.0, 1.0),
        n=4000,
        spacing="linear",
    )
    assert abs(lam - math.pi ** 2) < 1e-6


def test_estimate_lambda1_ball_weight_stable_and_scaling():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    vals = []
    for eps in (1e-3, 1e-4, 1e-5):
        rng = CoordinateRange(eps, 1.0, open_lo=True)
        vals.append(estimate_lambda1(E3, w, rng, n=2500))
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread < 0.02 and min(vals) > 0
    rng = CoordinateRange(1e-4, 1.0, open_lo=True)
    lam_scaled = estimate_lambda1(E3, w.scaled(57.0), rng, n=2500)
    assert lam_scaled == pytest.approx(vals[1], rel=1e-10)


def test_remainder_inequality_for_bumps():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    rng = CoordinateRange(1e-4, 1.0, open_lo=True)
    grid = build_grid(rng, 2500, "log")
    case = hardy_case(E3, w, rng)
    lam = estimate_lambda1(E3, w, rng, n=2500)
    forms = P1Forms(grid, lambda t: (np.exp(E3.log_volume_density(t)),) * 2)
    for u in random_test_functions(grid, 25, seed=101):
        mass = forms.mass(u.values, 2.0)
        assert hardy_gap(case, u) >= 0.98 * lam * mass


@pytest.mark.parametrize(
    "dim, p, beta, lo, n",
    [(3, 2.0, -1.0, 1e-4, 500), (4, 3.0, -0.5, 1e-3, 1200)],
)
def test_sides_of_minimizer_reproduce_its_quotient(dim, p, beta, lo, n):
    # margins and minimizers integrate one P1 interpolant on the same cells
    model = euclidean_radial(dim)
    rng = CoordinateRange(lo, 1.0 / lo, open_lo=True, open_hi=True)
    case = hardy_case(model, rho_catalog_entry("power", model, p, beta=beta), rng)
    grid = build_grid(rng, n, "log")
    if p == 2.0:
        res = minimize_quotient_p2(case, grid)
    else:
        res = minimize_quotient_general_p(case, grid)
    assert rayleigh_quotient(case, res.minimizer) == pytest.approx(res.quotient, rel=1e-12)


def test_minimize_p2_rejects_other_p():
    w = rho_catalog_entry("power", E3, 3.0, beta=-0.5)
    case = hardy_case(E3, w, CoordinateRange(0.1, 10, True, True))
    grid = build_grid(case.rng, 300, "log")
    with pytest.raises(InvalidArgumentError):
        minimize_quotient_p2(case, grid)
