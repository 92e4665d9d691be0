import math

import numpy as np
import pytest

from oracles import capacity_by_minimization, euclidean_annulus_capacity

from phardy import capacity
from phardy.capacity import (
    CELLS_PER_DECADE,
    PARABOLIC_GAP,
    classify_parabolicity,
    default_b_schedule,
    green_integrals,
    radial_capacity,
)
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
    # E3 at p = 2.9: I(b) converges, as b^(-0.053); over 5 decades its
    # increments shrink, but the geometric tail they predict exceeds I
    short = default_b_schedule(1.0, 5)
    cls = classify_parabolicity(E3, 2.9, b_schedule=short)
    assert cls.classification == "p_hyperbolic" and cls.inconclusive
    assert 0.0 < cls.ratio < 1.0 - PARABOLIC_GAP and cls.tail_share > 1.0
    sure = classify_parabolicity(E3, 2.9)
    assert sure.classification == "p_hyperbolic" and not sure.inconclusive
    # p = N: equal increments, so 5 decades already read the true verdict
    cls = classify_parabolicity(E2, 2.0, b_schedule=short)
    assert cls.classification == "p_parabolic" and not cls.inconclusive


def test_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        classify_parabolicity(E2, 2.0, b_schedule=[10.0, 100.0, 1000.0])
    for a, schedule in [(1.0, [1e2, 1e3, 1e4, 1e3, 1e6]), (20.0, [10.0, 1e2, 1e3, 1e6])]:
        with pytest.raises(InvalidArgumentError, match="0 < a < b_1 < b_2"):
            classify_parabolicity(E2, 2.0, a=a, b_schedule=schedule)


@pytest.mark.parametrize("n_dim", [2, 3, 4])
def test_one_pass_capacities_match_the_closed_form_and_the_one_b_solves(n_dim):
    model = euclidean_radial(n_dim)
    for p in (1.5, 2.0, 3.0, 4.0):
        for a in (1.0, 0.37):
            cls = classify_parabolicity(model, p, a=a)
            assert len(cls.values) == 13
            for b, cap in zip(cls.schedule, cls.values):
                exact = euclidean_annulus_capacity(n_dim, p, a, b)
                assert cap == pytest.approx(exact, rel=1e-12)
                assert cap == pytest.approx(radial_capacity(model, p, a, b), rel=1e-12)


def test_one_green_integrals_call_with_a_node_at_each_b(monkeypatch):
    calls = []

    def recorded(model, p, nodes):
        calls.append(nodes.copy())
        return green_integrals(model, p, nodes)

    monkeypatch.setattr(capacity, "green_integrals", recorded)
    schedule = [2.0, 5.0, 20.0, 100.0, 1e5]
    cls = classify_parabolicity(E3, 2.0, a=1.0, b_schedule=schedule)
    assert cls.classification == "p_hyperbolic" and not cls.inconclusive
    [nodes] = calls
    assert nodes[0] == 1.0 and nodes[-1] == 1e5
    assert all(b in nodes for b in schedule)
    # CELLS_PER_DECADE cells per decade, each piece rounded to whole cells
    steps = np.diff(np.log10(nodes))
    assert len(steps) == round(CELLS_PER_DECADE * 5)
    assert np.all(steps <= 1.01 / CELLS_PER_DECADE)


def test_capacity_keeps_its_node_floor(monkeypatch):
    sizes = []

    def recorded(model, p, nodes):
        sizes.append(nodes.size)
        return green_integrals(model, p, nodes)

    monkeypatch.setattr(capacity, "green_integrals", recorded)
    schedule = (2.0, 1e4, 1e6)
    for b in schedule:
        radial_capacity(E3, 2.0, 1.0, b)
    assert sizes[0] == 800
    assert all(n >= max(800, 200 * math.log10(b)) for n, b in zip(sizes, schedule))


def test_no_wrong_verdict_is_sure():
    # E2-E5 with p from 1.1 to N + 1, and H2, H3: a verdict is the truth or
    # flagged inconclusive, and only just below p = N is it inconclusive
    unsure = []
    for n_dim in (2, 3, 4, 5):
        for p in np.round(np.arange(1.1, n_dim + 1.0 + 1e-9, 0.02), 2):
            cls = classify_parabolicity(euclidean_radial(n_dim), float(p))
            if cls.inconclusive:
                unsure.append((n_dim, p))
            else:
                want = "p_parabolic" if p >= n_dim else "p_hyperbolic"
                assert cls.classification == want, (n_dim, p, cls)
    assert unsure and all(n_dim - 0.08 <= p < n_dim for n_dim, p in unsure)
    for model in (H2, H3):
        for p in (1.5, 2.0, 3.0, 4.0):
            cls = classify_parabolicity(model, p)
            assert cls.classification == "p_hyperbolic" and not cls.inconclusive


def test_resolution_is_the_decay_rate_the_rule_still_calls_parabolic():
    # on E3, I(inf) - I(b) ~ b^(-delta) with delta = 2/(p - 1) - 1
    cls = classify_parabolicity(E3, 3.0)
    assert cls.resolution == pytest.approx(-math.log10(1.0 - PARABOLIC_GAP))
    for factor, verdict, inconclusive in [(0.5, "p_parabolic", False), (2.0, "p_hyperbolic", True)]:
        delta = factor * cls.resolution
        near = classify_parabolicity(E3, 1.0 + 2.0 / (1.0 + delta))
        assert (near.classification, near.inconclusive) == (verdict, inconclusive)


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
