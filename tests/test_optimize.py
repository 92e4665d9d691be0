import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bisection_factorizations, dense_lambda1, estimate_lambda1, refine, scaled

from phardy.cli import load_config, run_suite
from phardy.errors import InvalidArgumentError
from phardy.forms import P1Forms, TridiagFactor, apply_tridiag, interior
from phardy.functionals import case_forms, hardy_case, sides_for, weighted_hardy_case
from phardy.geometry import (
    CoordinateRange,
    euclidean_radial,
    half_plane_poincare,
    interval,
)
from phardy.grids import build_grid
from phardy.optimize import (
    BRACKET_RTOL,
    TOL_EIG_GENERAL,
    bottom_eigenpair,
    convergence_study,
    descend_quotient,
    minimize_quotient_general_p,
    minimize_quotient_p2,
    minimize_rayleigh_p2,
)
from phardy.testfunctions import random_test_functions
from phardy.weights import rho_catalog_entry

E3 = euclidean_radial(3)
E4 = euclidean_radial(4)
E5 = euclidean_radial(5)


def ones_forms(grid):
    """The P1 forms of A = B = 1."""
    return P1Forms(grid, lambda t: (np.ones_like(t), np.ones_like(t)))


def hardy_e3():
    return hardy_case(E3, rho_catalog_entry("power", E3, 2.0, beta=-1.0))


def test_pure_poincare_eigenvalue():
    grid = build_grid(CoordinateRange(0, 1), 2000, "linear")
    res = minimize_rayleigh_p2(ones_forms(grid))
    assert res.converged
    assert abs(res.quotient - math.pi ** 2) <= 1e-6 * math.pi ** 2


def test_single_interior_node_pencil():
    # one free node: the hat on [0, 1] has quotient 4 / (1/3) = 12 exactly
    grid = build_grid(CoordinateRange(0, 1), 3, "linear")
    res = minimize_rayleigh_p2(ones_forms(grid))
    assert res.quotient == pytest.approx(12.0, rel=1e-12)


def test_hardy_quotient_matches_log_oracle():
    rng = CoordinateRange(1e-3, 1e3)
    grid = build_grid(rng, 2000, "log")
    res = minimize_quotient_p2(hardy_e3(), grid)
    L = math.log(rng.hi / rng.lo)
    oracle = 0.25 + (math.pi / L) ** 2
    assert res.quotient == pytest.approx(oracle, rel=1e-2)
    assert res.quotient >= 0.25 - 1e-6


def test_halfplane_quotient_matches_oracle():
    hp = half_plane_poincare()
    w = rho_catalog_entry("halfplane-y", hp, 2.0)
    rng = CoordinateRange(1e-3, 1e3)
    grid = build_grid(rng, 2000, "log")
    res = minimize_quotient_p2(weighted_hardy_case(hp, w, 0.0), grid)
    L = math.log(1e6)
    assert res.quotient == pytest.approx(0.25 + (math.pi / L) ** 2, rel=1e-2)


def test_p2_descent_agrees_with_inverse_iteration():
    grid = build_grid(CoordinateRange(0, 1), 800, "linear")
    forms = ones_forms(grid)
    res = minimize_rayleigh_p2(forms)
    seed = grid.nodes * (1.0 - grid.nodes)
    desc = descend_quotient(forms, 2.0, seed)
    assert desc.converged
    assert abs(desc.quotient - res.quotient) <= 1e-6 * res.quotient
    qs = [h[1] for h in desc.history]
    assert all(qs[i + 1] <= qs[i] + 1e-15 for i in range(len(qs) - 1))


def test_general_p_lower_bound_and_decrease():
    w = rho_catalog_entry("power", E4, 3.0, beta=-0.5)
    bound = (2.0 / 3.0) ** 3
    quotients = []
    for lo, hi, n in [(1e-3, 1e3, 1200), (1e-4, 1e4, 1600)]:
        rng = CoordinateRange(lo, hi)
        case = hardy_case(E4, w)
        grid = build_grid(rng, n, "log")
        res = minimize_quotient_general_p(case, grid, max_iter=3000)
        quotients.append(res.quotient)
        # the eigen-direction solves each linearized pencil to its bracket,
        # so the descent ends far inside TOL_EIG_GENERAL
        assert res.converged and res.residual <= 1e-6
        assert res.quotient >= bound - 1e-6
        gap = sides_for(case, res.minimizer).margin
        assert gap > 0.0
    assert quotients[1] < quotients[0]


def test_general_p_converged_means_stationary():
    # on [1e-12, 1e12] the line search gives up at a residual near 1:
    # that stop is not convergence
    rng = CoordinateRange(1e-12, 1e12)
    case = hardy_case(E5, rho_catalog_entry("power", E5, 4.0, beta=-1.0 / 3.0))
    res = minimize_quotient_general_p(case, build_grid(rng, 600, "log"))
    assert res.residual > TOL_EIG_GENERAL
    assert res.converged is False


def test_warm_start_not_worse_than_cold():
    m = interval(0.0, 1.0)
    w = rho_catalog_entry("power", m, 2.5, beta=1.0)
    rng = CoordinateRange(0.1, 1.0)
    case = hardy_case(m, w)
    coarse = build_grid(rng, 101, "linear")
    fine = refine(coarse)
    cold = minimize_quotient_general_p(case, fine)
    coarse_res = minimize_quotient_general_p(case, coarse)
    warm_vals = np.interp(fine.nodes, coarse.nodes, coarse_res.minimizer.values)
    warm_vals[0] = warm_vals[-1] = 0.0
    warm = descend_quotient(case_forms(case, fine), case.p, warm_vals)
    assert warm.quotient <= cold.quotient + 1e-10


def test_monotone_under_nested_refinement():
    rng = CoordinateRange(1e-2, 1e2)
    case = hardy_e3()
    grid = build_grid(rng, 500, "log")
    q_coarse = minimize_quotient_p2(case, grid).quotient
    q_fine = minimize_quotient_p2(case, refine(grid)).quotient
    assert q_fine <= q_coarse + 1e-12


def test_quotient_history_non_increasing():
    rng = CoordinateRange(1e-3, 1e3)
    grid = build_grid(rng, 1000, "log")
    res = minimize_quotient_p2(hardy_e3(), grid)
    qs = [h[1] for h in res.history]
    # inverse power iterations converge monotonically from above
    assert all(qs[i + 1] <= qs[i] + 1e-12 * qs[i] for i in range(len(qs) - 1))


@pytest.mark.parametrize("lo, n", [(1e-2, 500), (1e-4, 1000), (1e-8, 1000)])
def test_p2_bracket_holds_the_dense_eigenvalue(lo, n):
    # lambda1 of the dense pencil lies in [lower, quotient] up to roundoff:
    # the inertia test and the dense solver each err by up to 3e-11
    # relative on these grids, and the bracket is at most 1e-10 wide
    rng = CoordinateRange(lo, 1.0 / lo)
    case = hardy_e3()
    grid = build_grid(rng, n, "log")
    res = minimize_quotient_p2(case, grid)
    k_band, m_band = case_forms(case, grid).pencil(np.zeros(n), 2.0)
    lam = dense_lambda1(interior(k_band), interior(m_band))
    assert res.converged and res.quotient - res.lower <= 1e-10 * res.quotient
    assert res.lower - 1e-10 * lam <= lam <= res.quotient + 1e-10 * lam


def test_bracket_holds_the_dense_eigenvalue_off_p2():
    # the p = 3 pencil linearized at u = rho^((p-1)/p) > 0: lambda1 of the
    # dense pencil lies in [lower - slack, Rayleigh quotient] up to the
    # dense solver's own error, which a diagonal rescaling shows reaches
    # 3e-11 relative on such pencils
    rng = CoordinateRange(1e-3, 1e3)
    case = hardy_case(E4, rho_catalog_entry("power", E4, 3.0, beta=-0.5))
    grid = build_grid(rng, 800, "log")
    u = case.weight.rho(grid.nodes) ** (2.0 / 3.0)
    bands = case_forms(case, grid).pencil(u, 3.0)
    k_band, m_band = map(interior, bands)
    pair = bottom_eigenpair(k_band, m_band)
    v = pair.vector
    rq = (v @ apply_tridiag(*k_band, v)) / (v @ apply_tridiag(*m_band, v))
    lam = dense_lambda1(k_band, m_band)
    assert rq - pair.lower <= max(1e-10 * rq, pair.slack)
    assert pair.lower - pair.slack - 1e-10 * lam <= lam <= rq + 1e-10 * lam


@st.composite
def dominant_bands(draw, n, sign, excess):
    """A random symmetric tridiagonal band of order n with off-diagonal
    entries of one sign, whose diagonal exceeds the absolute sum of its
    row's off-diagonal entries by at least excess times the band's scale:
    positive definite."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    sizes = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    off = sign * scale * np.array(sizes)
    rows = np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
    extra = draw(st.lists(st.floats(excess, 10.0), min_size=n, max_size=n))
    return rows + scale * np.array(extra), off


@st.composite
def pencils(draw):
    # the sign pattern of every pencil the package builds: K a Stieltjes
    # band, M with nonnegative entries, so the bottom eigenvector can be
    # taken nonnegative and the start u = 1 is never orthogonal to it
    n = draw(st.integers(1, 40))
    return draw(dominant_bands(n, -1.0, 1e-3)), draw(dominant_bands(n, 1.0, 1e-2))


# two eigenvalues 1e-8 apart: the Rayleigh quotient settles near both
# long before the bracket separates them, so guided shifts keep missing
NEAR_DOUBLE = ((np.array([1.0, 1.0 + 1e-8, 2.0, 3.0]), np.zeros(3)), (np.ones(4), np.zeros(3)))


@settings(deadline=None)
@given(pencil=pencils())
@example(pencil=NEAR_DOUBLE)
def test_guided_slicing_brackets_the_eigenvalue(pencil):
    # diagonally dominant K and M of the package's sign pattern: the
    # largest shift that factored is below the dense lambda1 (up to the
    # inertia roundoff), the last Rayleigh quotient above it, the two
    # within the bracket tolerance; the guided shifts cost at most one
    # factorization more than plain bisection, the one guided shift that
    # may miss before the slicing has any lead on bisection
    k_band, m_band = pencil
    pair = bottom_eigenpair(k_band, m_band)
    quotient = pair.quotients[-1]
    lam = dense_lambda1(k_band, m_band)
    # the dense solver errs by a few ulps of the largest eigenvalue, one
    # over the smallest of the pencil M v = mu K v
    dense_error = 1e-13 / dense_lambda1(m_band, k_band)
    lower_band = (k_band[0] - pair.lower * m_band[0], k_band[1] - pair.lower * m_band[1])
    assert TridiagFactor(*lower_band).definite
    assert pair.lower - pair.slack - dense_error <= lam <= quotient + dense_error
    assert quotient - pair.lower <= max(BRACKET_RTOL * quotient, pair.slack)
    assert pair.factorizations <= bisection_factorizations(k_band, m_band) + 1


def test_bundled_p2_minimization_takes_few_iterations():
    # guided slicing: plain bisection took 40 iterations on this case
    cfg = load_config(None)
    spec = next(c for c in cfg["cases"] if c["id"] == "hardy-euclidean3-p2")
    report = run_suite({"seed": cfg["seed"], "n_test_functions": 1, "cases": [spec]})
    assert report["cases"][0]["minimization"]["iterations"] <= 20


def test_p2_bracket_converges_past_the_inertia_roundoff():
    # at 8k linear nodes the rounding of diag(K) blurs the inertia test by
    # about 5e-10 relative; the bracket stops at that level and the
    # quotient, a Rayleigh quotient of the shifted iterate, stays exact
    grid = build_grid(CoordinateRange(0, 1), 8000, "linear")
    res = minimize_rayleigh_p2(ones_forms(grid))
    assert res.converged and abs(res.quotient - res.lower) < 1e-7 * res.quotient
    assert abs(res.quotient - math.pi ** 2) <= 1e-6 * math.pi ** 2


def test_convergence_study_widening():
    case = hardy_e3()
    study = convergence_study(case, levels=3, n0=800)
    assert all(
        study.quotients[i + 1] < study.quotients[i]
        for i in range(len(study.quotients) - 1)
    )
    assert study.extrapolated[-1] == pytest.approx(0.25, rel=5e-3)
    assert all(g > 0 for g in study.gaps)


def test_estimate_lambda1_interval():
    # closed-form first eigenvalue pi^2 at n = 4000 within 1e-6 absolute
    lam = estimate_lambda1(
        interval(0, 1),
        rho_catalog_entry("constant", interval(0, 1), 2.0, c=1.0),
        CoordinateRange(0.0, 1.0),
        n=4000,
        spacing="linear",
        natural_lo=False,
    )
    assert abs(lam - math.pi ** 2) < 1e-6


def test_estimate_lambda1_ball_weight_stable_and_scaling():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    vals = []
    for eps in (1e-3, 1e-4, 1e-5):
        rng = CoordinateRange(eps, 1.0)
        vals.append(estimate_lambda1(E3, w, rng, n=2500, natural_lo=True))
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread < 0.02 and min(vals) > 0
    rng = CoordinateRange(1e-4, 1.0)
    lam_scaled = estimate_lambda1(E3, scaled(w, 57.0), rng, n=2500, natural_lo=True)
    assert lam_scaled == pytest.approx(vals[1], rel=1e-10)


def test_remainder_inequality_for_bumps():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    rng = CoordinateRange(1e-4, 1.0)
    grid = build_grid(rng, 2500, "log")
    case = hardy_case(E3, w)
    lam = estimate_lambda1(E3, w, rng, n=2500, natural_lo=True)
    forms = P1Forms(grid, lambda t: (np.exp(E3.log_volume_density(t)),) * 2)
    for u in random_test_functions(grid, 25, seed=101):
        mass = forms.evaluate(u.values, 2.0)[1]
        assert sides_for(case, u).margin >= 0.98 * lam * mass


@pytest.mark.parametrize(
    "dim, p, beta, lo, n",
    [(3, 2.0, -1.0, 1e-4, 500), (4, 3.0, -0.5, 1e-3, 1200)],
)
def test_sides_of_minimizer_reproduce_its_quotient(dim, p, beta, lo, n):
    # margins and minimizers integrate one P1 interpolant on the same cells
    model = euclidean_radial(dim)
    rng = CoordinateRange(lo, 1.0 / lo)
    case = hardy_case(model, rho_catalog_entry("power", model, p, beta=beta))
    grid = build_grid(rng, n, "log")
    if p == 2.0:
        res = minimize_quotient_p2(case, grid)
    else:
        res = minimize_quotient_general_p(case, grid)
    pair = sides_for(case, res.minimizer)
    assert pair.rhs / pair.lhs == pytest.approx(res.quotient, rel=1e-12)


def test_minimize_p2_rejects_other_p():
    w = rho_catalog_entry("power", E3, 3.0, beta=-0.5)
    case = hardy_case(E3, w)
    grid = build_grid(CoordinateRange(0.1, 10), 300, "log")
    with pytest.raises(InvalidArgumentError):
        minimize_quotient_p2(case, grid)
