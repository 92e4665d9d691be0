import math

import pytest

from oracles import capacity_by_minimization, euclidean_annulus_capacity

from phardy.capacity import classify_parabolicity, default_b_schedule, radial_capacity
from phardy.errors import InvalidArgumentError, UnsupportedModelError
from phardy.functionals import hardy_case
from phardy.geometry import (
    CoordinateRange,
    ModelManifold,
    euclidean_radial,
    hyperbolic_radial,
    interval,
)
from phardy.grids import build_grid
from phardy.optimize import minimize_quotient_p2
from phardy.weights import rho_catalog_entry

E2, E3 = euclidean_radial(2), euclidean_radial(3)
H2, H3 = hyperbolic_radial(2), hyperbolic_radial(3)


def test_plane_capacity_closed_form():
    for R in (1e3, 1e6):
        got = radial_capacity(E2, 2.0, 1.0, R)
        assert got == pytest.approx(2 * math.pi / math.log(R), rel=5e-3)


def test_space_capacity_approaches_sphere_value():
    got = radial_capacity(E3, 2.0, 1.0, 1e6)
    assert got == pytest.approx(4 * math.pi, rel=5e-3)
    exact = euclidean_annulus_capacity(3, 2.0, 1.0, 1e6)
    assert got == pytest.approx(exact, rel=1e-9)


def test_capacity_against_oracle_general_p():
    for n_dim, p, a, b in [(2, 3.0, 1.0, 100.0), (4, 1.5, 0.5, 50.0)]:
        got = radial_capacity(euclidean_radial(n_dim), p, a, b)
        exact = euclidean_annulus_capacity(n_dim, p, a, b)
        assert got == pytest.approx(exact, rel=1e-9)


def test_degenerate_annulus_rejected():
    with pytest.raises(InvalidArgumentError):
        radial_capacity(E2, 2.0, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        radial_capacity(E2, 2.0, 2.0, 1.0)


def test_capacity_needs_a_radial_model():
    # the half-plane reduction is per unit length: its capacities would
    # call the hyperbolic plane p-parabolic
    for model in (ModelManifold("half_plane"), interval(0.0, 1.0)):
        with pytest.raises(UnsupportedModelError, match="radial models"):
            radial_capacity(model, 2.0, 0.1, 0.5)


def test_capacity_monotonicity():
    caps_b = [radial_capacity(E3, 2.0, 1.0, b) for b in (2.0, 5.0, 20.0, 100.0)]
    assert all(caps_b[i + 1] <= caps_b[i] + 1e-12 for i in range(len(caps_b) - 1))
    caps_a = [radial_capacity(E3, 2.0, a, 200.0) for a in (0.5, 1.0, 2.0)]
    assert all(caps_a[i + 1] >= caps_a[i] - 1e-12 for i in range(len(caps_a) - 1))


def test_euclidean_capacity_scaling():
    base = radial_capacity(E3, 2.0, 1.0, 10.0)
    for lam in (0.5, 2.0, 10.0):
        scaled = radial_capacity(E3, 2.0, lam, 10.0 * lam)
        assert scaled == pytest.approx(lam ** (3 - 2) * base, rel=1e-8)


def test_closed_form_matches_direct_minimization():
    for model, p in [(E3, 2.0), (E2, 3.0)]:
        closed = radial_capacity(model, p, 1.0, 100.0)
        direct = capacity_by_minimization(model, p, 1.0, 100.0, n=4000)
        assert direct == pytest.approx(closed, rel=5e-3)
        assert direct >= closed - 5e-3 * closed  # minimization is an upper bound


def test_canonical_classifications():
    assert classify_parabolicity(E2, 2.0).classification == "p_parabolic"
    assert classify_parabolicity(E3, 2.0).classification == "p_hyperbolic"
    assert classify_parabolicity(H2, 2.0).classification == "p_hyperbolic"


def test_classification_table_parabolic_iff_p_ge_n():
    for n_dim in (2, 3, 4):
        model = euclidean_radial(n_dim)
        for p in (1.5, 2.0, 3.0, 4.0):
            cls = classify_parabolicity(model, p)
            expected = "p_parabolic" if p >= n_dim else "p_hyperbolic"
            assert cls.classification == expected, (n_dim, p, cls)


def test_short_schedule_is_inconclusive_for_marginal_case():
    # p = N with only 5 decades: still decreasing, neither vanished nor flat
    cls = classify_parabolicity(E2, 2.0, b_schedule=default_b_schedule(1.0, 5))
    assert cls.classification == "p_hyperbolic" and cls.inconclusive


def test_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        classify_parabolicity(E2, 2.0, b_schedule=[10.0, 100.0, 1000.0])


EPS_SCHEDULE = (1e-3, 1e-4, 1e-5)


def _punctured_quotients(case, R):
    """Minimized quotients on (eps, R) as the inner truncation radius shrinks."""
    grids = [build_grid(CoordinateRange(eps, R), 2500, "log") for eps in EPS_SCHEDULE]
    return [minimize_quotient_p2(case, grid).quotient for grid in grids]


def test_puncture_insensitivity_euclidean():
    # after removing the log-substitution correction (pi/ln(R/eps))^2 the
    # quotients settle at the unpunctured constant 1/4
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    case = hardy_case(E3, w, CoordinateRange(1e-5, 1e3))
    q = _punctured_quotients(case, R=1e3)
    extrapolated = [qi - (math.pi / math.log(1e3 / eps)) ** 2 for qi, eps in zip(q, EPS_SCHEDULE)]
    assert max(abs(e - 0.25) / 0.25 for e in extrapolated) < 0.01
    assert all(qi >= 0.25 - 1e-6 for qi in q)


def test_puncture_trend_hyperbolic_settles_toward_bound():
    # the punctured origin has zero 2-capacity: quotients decrease toward
    # the unpunctured constant 1/4 with shrinking steps, never below it
    w = rho_catalog_entry("power", H3, 2.0, beta=-1.0)
    case = hardy_case(H3, w, CoordinateRange(1e-5, 20.0))
    q = _punctured_quotients(case, R=20.0)
    assert q[0] > q[1] > q[2] >= 0.25 - 1e-6
    assert (q[1] - q[2]) < (q[0] - q[1])
