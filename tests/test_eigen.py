import math

import numpy as np
import pytest

from oracles import plaplace_lambda1_shooting

from phardy.eigen import distance_hardy_composite, first_eigenpair, poincare_eigen_check
from phardy.errors import InvalidArgumentError
from phardy.forms import P1Forms
from phardy.functionals import (
    distance_hardy_case,
    distance_hardy_constant,
    eigen_hardy_case,
    eigen_weight,
    hardy_case,
    poincare_eigen_case,
    sides_for,
    validate_case_hypothesis,
)
from phardy.geometry import CoordinateRange, interval
from phardy.grids import GridFunction, build_grid
from phardy.optimize import descend_quotient, minimize_quotient_p2
from phardy.testfunctions import random_test_functions
from phardy.weights import rho_catalog_entry

UNIT = interval(0.0, 1.0)
UNIT_RNG = CoordinateRange(0.0, 1.0)


@pytest.fixture(scope="module")
def pair_p2():
    return first_eigenpair(UNIT, 2.0, UNIT_RNG, n=2000)


@pytest.fixture(scope="module")
def pair_p3():
    return first_eigenpair(UNIT, 3.0, UNIT_RNG, n=1200)


def test_interval_eigenvalue_p2(pair_p2):
    assert abs(pair_p2.lambda1 - math.pi ** 2) <= 1e-6 * math.pi ** 2
    assert pair_p2.residual < 1e-6 and pair_p2.converged
    # sup-normalized positive eigenfunction
    assert pair_p2.phi1.values.max() == pytest.approx(1.0)
    assert np.all(pair_p2.phi1.values[1:-1] > 0)
    x = pair_p2.phi1.grid.nodes
    np.testing.assert_allclose(pair_p2.phi1.values, np.sin(math.pi * x), atol=2e-5)


def test_interval_eigenvalue_scaling():
    pair = first_eigenpair(interval(0.0, 2.0), 2.0, CoordinateRange(0.0, 2.0), n=2000)
    assert abs(pair.lambda1 - math.pi ** 2 / 4) <= 1e-6 * math.pi ** 2 / 4


def test_interval_eigenvalue_p3_matches_shooting(pair_p3):
    oracle = plaplace_lambda1_shooting(3.0, 1.0)
    assert abs(pair_p3.lambda1 - oracle) <= 1e-3 * oracle
    assert pair_p3.residual < 1e-4 and pair_p3.converged


def test_interval_eigenvalue_p15_matches_shooting():
    pair = first_eigenpair(UNIT, 1.5, UNIT_RNG, n=1200)
    oracle = plaplace_lambda1_shooting(1.5, 1.0)
    assert abs(pair.lambda1 - oracle) <= 1e-5 * oracle
    assert pair.converged


@pytest.mark.parametrize("length", [1.670752934280344, 1.37534827178241, 1.6134508001501686])
def test_interval_eigenpair_p15_is_stationary(length):
    # the interval lengths 2^U(-1, 1) that seeds 9, 40 and 17 draw in the
    # benchmark's constants workload
    pair = first_eigenpair(interval(0.0, length), 1.5, CoordinateRange(0.0, length), n=2000)
    assert pair.converged and pair.residual <= 1e-6


def test_descent_agrees_with_inverse_iteration_p2(pair_p2):
    grid = pair_p2.phi1.grid
    ones = lambda t: (np.ones_like(t), np.ones_like(t))  # noqa: E731
    seed = grid.nodes * (1 - grid.nodes)
    res = descend_quotient(P1Forms(grid, ones), 2.0, seed)
    assert res.converged
    assert abs(res.quotient - pair_p2.lambda1) <= 1e-8 * pair_p2.lambda1


def test_domain_monotonicity():
    lam_small = first_eigenpair(UNIT, 2.0, UNIT_RNG, n=800).lambda1
    big = interval(0.0, 1.2)
    lam_big = first_eigenpair(big, 2.0, CoordinateRange(0.0, 1.2), n=800).lambda1
    assert lam_big < lam_small


def test_unbounded_range_rejected():
    with pytest.raises(InvalidArgumentError):
        first_eigenpair(UNIT, 2.0, CoordinateRange(0.0, math.inf))


def test_eigen_hardy_margins(pair_p2):
    grid = pair_p2.phi1.grid
    case = eigen_hardy_case(pair_p2, 0.0)
    assert case.formula_constant == pytest.approx(0.25)
    for u in random_test_functions(grid, 20, seed=61):
        pair = sides_for(case, u)
        assert pair.margin >= -1e-6 * pair.rhs
    with pytest.raises(InvalidArgumentError):
        eigen_hardy_case(pair_p2, 1.0)


def test_minimizer_profile_quotient_trend(pair_p2):
    # phi1^((p-1)/p) is not in the energy space (its Dirichlet integral
    # log-diverges), so the constant is approached, not attained: cut-off
    # copies of the profile give quotients decreasing log-slowly to 1/4
    w = eigen_weight(pair_p2)
    case = hardy_case(UNIT, w, UNIT_RNG)
    quotients = []
    for delta in (1e-2, 1e-4, 1e-6):
        grid = build_grid(CoordinateRange(delta / 10, 0.5), 3000, "log")
        t = grid.nodes
        vals = np.sqrt(w.rho(t))
        ramp_lo = np.clip(np.log(t / (delta / 10)) / np.log(10.0), 0.0, 1.0)
        ramp_hi = np.clip((0.5 - t) / 0.1, 0.0, 1.0)
        vals = vals * ramp_lo * ramp_hi
        vals[0] = vals[-1] = 0.0
        u = GridFunction(grid, vals)
        pair = sides_for(case, u)
        quotients.append(pair.rhs / pair.lhs)
        assert pair.margin > 0.0  # gap stays positive: not attained
    assert quotients[0] > quotients[1] > quotients[2] >= 0.25 - 1e-6


def test_poincare_eigen_margins(pair_p2):
    grid = pair_p2.phi1.grid
    c = math.pi ** 2 / 8
    for u in random_test_functions(grid, 50, seed=71):
        pair = poincare_eigen_check(pair_p2, 2.0, 0.5, u)
        assert pair.constant == pytest.approx(c, rel=1e-6)
        assert pair.margin >= -1e-6 * pair.rhs
    with pytest.raises(InvalidArgumentError):
        poincare_eigen_check(pair_p2, 2.0, 1.5, random_test_functions(grid, 1, 1)[0])


def test_poincare_small_s_vs_direct_eigensolve(pair_p2):
    # the explicit constant lam1 (p-1-s)^(p-1)/p^p stays below the minimized
    # s-weighted quotient (the direct eigensolve of the same pencil)
    s = 0.05
    case = poincare_eigen_case(pair_p2, s)
    grid = pair_p2.phi1.grid
    res = minimize_quotient_p2(case, grid)
    assert res.quotient >= case.formula_constant - 1e-9
    # s -> 0: the constant approaches lam1 (p-1)^(p-1)/p^p = pi^2/4
    assert case.formula_constant == pytest.approx((1 - s) * math.pi ** 2 / 4, rel=1e-5)


def test_distance_hardy_composite(pair_p2):
    grid = pair_p2.phi1.grid
    # positive, and CollarGradientError guards a collar slope <= 0
    assert distance_hardy_constant(pair_p2, 0.1) > 0
    for u in random_test_functions(grid, 50, seed=73):
        pair = distance_hardy_composite(pair_p2, 2.0, 0.1, u)
        assert pair.margin >= -1e-6 * pair.rhs


def test_sides_for_poincare_eigen_case(pair_p2):
    # the case the minimizers accept has the sides of the direct check
    case = poincare_eigen_case(pair_p2, 0.5)
    for u in random_test_functions(pair_p2.phi1.grid, 5, seed=83):
        assert sides_for(case, u) == poincare_eigen_check(pair_p2, 2.0, 0.5, u)


def test_distance_hardy_case_sides_and_minimizer(pair_p2):
    # the composite constant sits below the minimized quotient of its case
    grid = pair_p2.phi1.grid
    case = distance_hardy_case(pair_p2, 0.1)
    for u in random_test_functions(grid, 5, seed=89):
        assert sides_for(case, u) == distance_hardy_composite(pair_p2, 2.0, 0.1, u)
    res = minimize_quotient_p2(case, build_grid(CoordinateRange(1e-3, 1.0 - 1e-3), 800, "linear"))
    assert res.quotient >= case.formula_constant


def test_distance_hardy_convex_cross_check(pair_p2):
    # same lhs weight via rho = min(x, 1-x) and constant ((p-1)/p)^p
    grid = pair_p2.phi1.grid
    w = rho_catalog_entry("dist-boundary", UNIT, 2.0)
    case = hardy_case(UNIT, w, UNIT_RNG)
    validate_case_hypothesis(case, grid)
    for u in random_test_functions(grid, 20, seed=79):
        pair = sides_for(case, u)
        assert pair.margin >= -1e-6 * pair.rhs


def test_distance_hardy_bad_split(pair_p2):
    with pytest.raises(InvalidArgumentError):
        distance_hardy_constant(pair_p2, 0.9)
