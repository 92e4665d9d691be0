import math

import numpy as np
import pytest

from oracles import scaled

from phardy.errors import (
    InvalidArgumentError,
    NonFiniteIntegrandError,
    RelationViolationError,
)
from phardy.functionals import (
    assembled,
    caccioppoli_case,
    ckn_case,
    divergence_case,
    gn_case,
    hardy_case,
    hardy_sobolev_case,
    InequalityCase,
    killing_field,
    sides_for,
    uncertainty_case,
    validate_case_hypothesis,
    weighted_hardy_case,
)
from phardy.geometry import CoordinateRange, euclidean_radial, interval
from phardy.grids import GridFunction, build_grid
from phardy.testfunctions import bump, random_test_functions, tent
from phardy.weights import rho_catalog_entry, weight_from_samples

E3 = euclidean_radial(3)
RNG = CoordinateRange(1e-3, 1e3)


def hardy_e3_case():
    return hardy_case(E3, rho_catalog_entry("power", E3, 2.0, beta=-1.0))


def log_grid(n=2000, rng=RNG):
    return build_grid(rng, n, "log")


def zero_fn(grid):
    return GridFunction(grid, np.zeros(grid.n))


def quotient(case, u):
    """rhs/lhs of the case's sides: the formula constant is a lower bound."""
    pair = sides_for(case, u)
    return pair.rhs / pair.lhs


def test_zero_function_gives_zero_sides():
    grid = log_grid(500)
    case = hardy_e3_case()
    pair = sides_for(case, zero_fn(grid))
    assert pair.lhs == pair.rhs == pair.margin == 0.0


def test_hardy_margin_positive_for_bumps():
    grid = log_grid()
    case = hardy_e3_case()
    with assembled(case, grid):
        for u in random_test_functions(grid, 20, seed=7):
            pair = sides_for(case, u)
            assert pair.margin >= -1e-6 * pair.rhs
            assert pair.constant == 0.25


def test_log_tent_quotient_matches_substitution_oracle():
    # the substitution u = r^(-1/2) v(ln r) turns the quotient into
    # (int v'^2 + v^2/4) / int v^2; for the tent v = max(0, 1 - |x|/L)
    # that is exactly 1/4 + 3/L^2
    L = 4.0
    rng = CoordinateRange(math.exp(-1.2 * L), math.exp(1.2 * L))
    grid = build_grid(rng, 4000, "log")
    case = hardy_e3_case()
    tent_log = np.clip(1.0 - np.abs(np.log(grid.nodes)) / L, 0.0, None)
    vals = grid.nodes ** -0.5 * tent_log
    vals[0] = vals[-1] = 0.0
    u = GridFunction(grid, vals)
    q = quotient(case, u)
    assert q == pytest.approx(0.25 + 3.0 / L ** 2, rel=1e-2)


def test_weighted_alpha_zero_equals_hardy():
    grid = log_grid()
    case0 = hardy_e3_case()
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    case_alpha = weighted_hardy_case(E3, w, 0.0)
    with assembled(case0, grid), assembled(case_alpha, grid):
        for u in random_test_functions(grid, 20, seed=11):
            a = sides_for(case0, u)
            b = sides_for(case_alpha, u)
            assert b.lhs == pytest.approx(a.lhs, rel=1e-12)
            assert b.rhs == pytest.approx(a.rhs, rel=1e-12)
            assert b.margin == pytest.approx(a.margin, rel=1e-12)


def test_margin_sweep_reuses_and_releases_its_data():
    grid = log_grid(500)
    for case in (hardy_e3_case(), divergence_case(E3, "davies-hinz", 2.0)):
        fns = random_test_functions(grid, 4, seed=5)
        alone = [sides_for(case, u) for u in fns]
        with assembled(case, grid):
            held = case._assembled
            with assembled(case, grid):  # nested blocks share the outer forms
                assert case._assembled is held
            assert case._assembled is held
            assert [sides_for(case, u) for u in fns] == alone
        assert case._assembled is None


def test_weighted_degenerate_alpha():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    case = weighted_hardy_case(E3, w, 1.0)  # alpha = p-1
    assert case.trivial and case.formula_constant == 0.0
    grid = log_grid(500)
    u = bump(grid, -2.0, 2.0)
    pair = sides_for(case, u)
    assert pair.margin == pair.rhs >= 0.0


def test_margin_sign_invariant_under_scaling():
    grid = log_grid(1000)
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    cases = [
        hardy_e3_case(),
        weighted_hardy_case(E3, w, -1.0),
        gn_case(E3, w, delta=2.0),
        uncertainty_case(E3, w, s=2.0, a=2.0),
    ]
    u = bump(grid, -3.0, 3.0)
    for case in cases:
        signs = set()
        for lam in (1e-3, 1.0, 1e3):
            scaled = GridFunction(grid, lam * u.values)
            signs.add(math.copysign(1.0, sides_for(case, scaled).margin))
        assert len(signs) == 1


def test_weight_scaling_leaves_quotient_unchanged():
    grid = log_grid(1000)
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    u = bump(grid, -2.0, 1.0)
    q1 = quotient(hardy_case(E3, w), u)
    q2 = quotient(hardy_case(E3, scaled(w, 37.5)), u)
    assert q2 == pytest.approx(q1, rel=1e-10)


def test_caccioppoli_margins_and_hypothesis():
    w = rho_catalog_entry("power", E3, 2.0, beta=2.0)
    rng = CoordinateRange(1e-2, 1e2)
    grid = build_grid(rng, 1500, "log")
    for q in (0.0, 2.0):
        case = caccioppoli_case(E3, w, q)
        res = validate_case_hypothesis(case, grid)
        assert res.passed  # rho = r^2 is subharmonic
        with assembled(case, grid):
            for u in random_test_functions(grid, 10, seed=3):
                pair = sides_for(case, u)
                assert pair.margin >= -1e-6 * pair.rhs
    with pytest.raises(InvalidArgumentError):
        caccioppoli_case(E3, w, -1.0)


def test_caccioppoli_interval_distance_q_equals_p():
    m = interval(0.0, 1.0)
    w = rho_catalog_entry("power", m, 2.0, beta=1.0)
    rng = CoordinateRange(0.0, 1.0)
    grid = build_grid(rng, 1001, "linear")
    case = caccioppoli_case(m, w, 2.0)
    assert case.formula_constant == pytest.approx(((2 + 1) / 2) ** 2)
    validate_case_hypothesis(case, grid)
    with assembled(case, grid):
        for u in random_test_functions(grid, 10, seed=5):
            assert sides_for(case, u).margin >= 0.0


def test_caccioppoli_rejects_superharmonic_weight():
    w = rho_catalog_entry("power", euclidean_radial(4), 2.0, beta=-1.0)
    rng = CoordinateRange(1e-2, 1e2)
    case = caccioppoli_case(euclidean_radial(4), w, 0.0)
    grid = build_grid(rng, 900, "log")
    res = validate_case_hypothesis(case, grid)
    assert not res.passed
    from phardy.errors import HypothesisViolationError

    with pytest.raises(HypothesisViolationError):
        sides_for(case, bump(grid, -1.0, 1.0))


def test_divergence_lemma_instances():
    grid = log_grid(1500, CoordinateRange(1e-2, 1e2))
    dh = divergence_case(E3, "davies-hinz", 2.0)
    kf = divergence_case(E3, "killing", 2.0)
    with assembled(dh, grid), assembled(kf, grid):
        for u in random_test_functions(grid, 10, seed=13):
            assert sides_for(dh, u).margin >= 0.0
            assert sides_for(kf, u).margin >= 0.0
    z = zero_fn(grid)
    assert sides_for(dh, z).margin == 0.0


def test_killing_reduces_to_hardy_constant():
    # h = x/|x|^p gives exactly the ((N-p)/p)^p Hardy form
    grid = log_grid(1500, CoordinateRange(1e-2, 1e2))
    kf = divergence_case(E3, "killing", 2.0)
    case = hardy_e3_case()
    u = bump(grid, -2.0, 2.0)
    dl = sides_for(kf, u)
    h = sides_for(case, u)
    # lhs_dl = (N-p) * lhs_hardy, rhs_dl = p^p/(N-p)^(p-1) * rhs_hardy
    assert dl.lhs == pytest.approx((3 - 2) * h.lhs, rel=1e-12)
    assert dl.rhs == pytest.approx(4.0 * h.rhs, rel=1e-12)


def test_divergence_rejects_nonpositive_ah():
    grid = log_grid(200, CoordinateRange(0.5, 2.0))
    bad = InequalityCase(
        kind="divergence-lemma", model=E3, weight=None,
        params={"p": 2.0, "h_mag": lambda t: np.ones_like(t), "a_h": lambda t: -np.ones_like(t)},
        formula_constant=4.0, case_id="bad",
    )
    with pytest.raises(InvalidArgumentError):
        sides_for(bad, bump(grid, 0.6, 1.5))


def test_killing_requires_p_below_n():
    with pytest.raises(InvalidArgumentError):
        killing_field(E3, 3.0)


def test_gn_margins_and_relation():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    case = gn_case(E3, w, delta=2.0)
    assert case.formula_constant == pytest.approx(2.0)
    grid = log_grid(1500)
    with assembled(case, grid):
        for u in random_test_functions(grid, 10, seed=17):
            pair = sides_for(case, u)
            assert pair.margin >= -1e-6 * pair.rhs
    case.params["s"] = 3.0  # violates s = p-1+delta/p = 2
    with pytest.raises(RelationViolationError):
        sides_for(case, bump(grid, -1.0, 1.0))


def test_uncertainty_margins_and_dilation_invariance():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    case = uncertainty_case(E3, w, s=2.0, a=2.0)
    grid = log_grid(1500)
    with assembled(case, grid):
        for u in random_test_functions(grid, 10, seed=19):
            pair = sides_for(case, u)
            assert pair.margin >= -1e-6 * pair.rhs
    # dilation u -> u(lam x): rhs/lhs is invariant (both sides scale alike)
    u = bump(grid, -2.0, 2.0)
    base = sides_for(case, u)
    lam = 2.0
    grid2 = build_grid(
        CoordinateRange(RNG.lo / lam, RNG.hi / lam), 1500, "log"
    )
    u2 = GridFunction(grid2, u.values)
    scaled = sides_for(case, u2)
    assert scaled.rhs / scaled.lhs == pytest.approx(base.rhs / base.lhs, rel=1e-8)
    with pytest.raises(InvalidArgumentError):
        uncertainty_case(E3, w, s=0.5, a=1.5)  # (as-p)/(a-1) < 0


def test_hardy_sobolev_theta_zero_is_sobolev():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    case = hardy_sobolev_case(E3, w, theta=0.0, p_star=6.0, sobolev_constant=2.0)
    assert case.formula_constant == pytest.approx(2.0)
    grid = log_grid(1500)
    with assembled(case, grid):
        for u in random_test_functions(grid, 10, seed=23):
            pair = sides_for(case, u)
            assert pair.margin >= -1e-6 * pair.rhs


def test_hardy_sobolev_weighted_margins():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    case = hardy_sobolev_case(E3, w, theta=-0.5, p_star=6.0, sobolev_constant=2.0)
    grid = log_grid(1500)
    with assembled(case, grid):
        for u in random_test_functions(grid, 20, seed=29):
            pair = sides_for(case, u)
            assert pair.margin >= -1e-6 * pair.rhs
    with pytest.raises(InvalidArgumentError):
        hardy_sobolev_case(E3, w, theta=0.0, p_star=6.0, sobolev_constant=-1.0)


def valid_ckn_case(a=0.75, r=4.0, delta=0.5):
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    P = 6.0 * (r - 2.0) / (r * 4.0)
    gamma = (1.0 - (-0.5)) * a + delta * (1 - a) - P
    return ckn_case(
        E3, w, theta=-0.5, p_star=6.0, r=r, a=a, gamma=gamma, delta=delta,
        sigma=0.0, sobolev_constant=2.0,
    )


def test_ckn_margins_valid_tuple():
    case = valid_ckn_case()
    grid = log_grid(1500)
    with assembled(case, grid):
        for u in random_test_functions(grid, 20, seed=31):
            pair = sides_for(case, u)
            assert pair.margin >= -1e-6 * pair.rhs


def test_ckn_rejects_infeasible_relations():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    with pytest.raises(RelationViolationError) as err:
        ckn_case(E3, w, theta=-0.5, p_star=6.0, r=4.0, a=0.5, gamma=0.5,
                 delta=1.0, sigma=0.0, sobolev_constant=2.0)
    assert err.value.condition == "condr"
    with pytest.raises(RelationViolationError) as err:
        ckn_case(E3, w, theta=-0.5, p_star=6.0, r=4.0, a=0.75, gamma=0.0,
                 delta=0.5, sigma=0.0, sobolev_constant=2.0)
    assert err.value.condition == "cond1"


def test_ckn_a1_reduces_to_hardy_sobolev():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    hs = hardy_sobolev_case(E3, w, theta=-0.5, p_star=6.0, sobolev_constant=2.0)
    # a = 1, r = p*: cond1 gives gamma = -theta
    ck = ckn_case(E3, w, theta=-0.5, p_star=6.0, r=6.0, a=1.0, gamma=0.5,
                  delta=0.3, sigma=0.0, sobolev_constant=2.0)
    assert ck.formula_constant == pytest.approx(hs.formula_constant, rel=1e-14)
    grid = log_grid(1500)
    with assembled(hs, grid), assembled(ck, grid):
        for u in random_test_functions(grid, 10, seed=37):
            a = sides_for(hs, u)
            b = sides_for(ck, u)
            assert b.lhs == pytest.approx(a.lhs, rel=1e-12)
            assert b.rhs == pytest.approx(a.rhs, rel=1e-12)
            assert b.margin == pytest.approx(a.margin, rel=1e-12)


def test_hardy_gap_nonnegative_and_zero_at_zero():
    grid = log_grid(1200)
    case = hardy_e3_case()
    assert sides_for(case, zero_fn(grid)).margin == 0.0
    with assembled(case, grid):
        for u in random_test_functions(grid, 10, seed=41):
            assert sides_for(case, u).margin > 0.0


def test_non_finite_integrand_raises():
    # sampled weight vanishing at an interior node under a test function
    # that does not vanish there
    m = interval(0.0, 1.0)
    grid = build_grid(CoordinateRange(0.0, 1.0), 101, "linear")
    vals = np.abs(grid.nodes - 0.5)
    w = weight_from_samples("pinch", m, 2.0, grid, vals)
    case = hardy_case(m, w, CoordinateRange(0.0, 1.0))
    u = tent(grid, 0.2, 0.8)  # peak sits at the pinch
    with pytest.raises(NonFiniteIntegrandError):
        sides_for(case, u)


def test_interval_distance_hardy_margin():
    m = interval(0.0, 1.0)
    w = rho_catalog_entry("dist-boundary", m, 2.0)
    rng = CoordinateRange(0.0, 1.0)
    grid = build_grid(rng, 1001, "linear")
    case = hardy_case(m, w)
    res = validate_case_hypothesis(case, grid)
    assert res.passed
    with assembled(case, grid):
        for u in random_test_functions(grid, 10, seed=43):
            assert sides_for(case, u).margin >= 0.0


def test_halfspace_distance_hardy_on_interval():
    # distance from the boundary of the half-space reduces to rho = x
    m = interval(0.0, 1.0)
    w = rho_catalog_entry("power", m, 2.0, beta=1.0)
    rng = CoordinateRange(1e-3, 1.0)
    grid = build_grid(rng, 1001, "linear")
    case = hardy_case(m, w)
    res = validate_case_hypothesis(case, grid)
    assert res.passed  # x is harmonic on the interval
    with assembled(case, grid):
        for u in random_test_functions(grid, 10, seed=47):
            pair = sides_for(case, u)
            assert pair.margin >= -1e-6 * pair.rhs


def test_ckn_a_zero_identity_case():
    # a = 0, r = p, gamma = delta, eps = sigma: lhs equals the second rhs
    # factor and C3 = 1, so the margin vanishes identically
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    case = ckn_case(
        E3, w, theta=-0.5, p_star=6.0, r=2.0, a=0.0, gamma=0.7, delta=0.7,
        eps=0.2, sigma=0.2, sobolev_constant=2.0,
    )
    assert case.formula_constant == pytest.approx(1.0)
    grid = log_grid(1000)
    with assembled(case, grid):
        for u in random_test_functions(grid, 5, seed=53):
            pair = sides_for(case, u)
            assert pair.margin == pytest.approx(0.0, abs=1e-12 * pair.rhs)
