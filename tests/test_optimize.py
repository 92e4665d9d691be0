import math
import os
import pickle
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forking import assert_no_child_left, usable_cpus
from oracles import (
    band_product, bisection_factorizations, copied_factor, dense_lambda1, estimate_lambda1,
    refine, scaled,
)

import phardy.optimize
import phardy.workers
from phardy.cli import load_config, run_suite
from phardy.errors import InvalidArgumentError
from phardy.forms import P1Forms, TridiagFactor, apply_tridiag, interior
from phardy.functionals import (
    TOL_DISC, case_forms, divergence_case, hardy_case, sides_for, weighted_hardy_case
)
from phardy.geometry import (
    CoordinateRange,
    ModelManifold,
    euclidean_radial,
    interval,
    model_from_config,
)
from phardy.grids import build_grid
from phardy.optimize import (
    BRACKET_RTOL,
    TOL_EIG_GENERAL,
    bottom_eigenpair,
    convergence_study,
    descend_quotient,
    minimize_quotient,
    minimize_quotient_general_p,
    minimize_quotient_p2,
    minimize_rayleigh_p2,
    solve_flux,
)
from phardy.testfunctions import random_test_functions
from phardy.workers import assign
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
    hp = ModelManifold("half_plane")
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
        # each step solves grad E(v) = grad L(u) exactly, so the
        # iteration ends far inside TOL_EIG_GENERAL
        assert res.converged and res.residual <= 1e-6
        assert res.quotient >= bound - 1e-6
        gap = sides_for(case, res.minimizer).margin
        assert gap > 0.0
    assert quotients[1] < quotients[0]


def test_general_p_converged_means_stationary():
    # a stop that is not stationary is not convergence: cut short after two
    # steps the solve is far from stationary; run out, on [1e-12, 1e12],
    # it converges
    rng = CoordinateRange(1e-12, 1e12)
    case = hardy_case(E5, rho_catalog_entry("power", E5, 4.0, beta=-1.0 / 3.0))
    grid = build_grid(rng, 600, "log")
    cut = minimize_quotient_general_p(case, grid, max_iter=2)
    assert cut.stop == "max_iter" and cut.residual > TOL_EIG_GENERAL
    assert cut.converged is False
    res = minimize_quotient_general_p(case, grid)
    assert res.stop == "no-step" and res.converged and res.residual <= TOL_EIG_GENERAL
    assert case.formula_constant - 1e-6 <= res.quotient < cut.quotient
    assert res.quotient <= 0.34491


@pytest.mark.parametrize("p, top", [(1.1, 0.07166), (1.25, 0.13448), (1.5, 0.19526)])
def test_general_p_below_2_converges(p, top):
    # the E^5 Green-power Hardy cases below p = 2 (C = 0.07153, 0.13375
    # and 0.19245): the iteration runs until a step no longer lowers the
    # quotient, and is stationary there
    rng = CoordinateRange(1e-2, 1e2)
    case = hardy_case(E5, rho_catalog_entry("power", E5, p, beta=(p - 5.0) / (p - 1.0)))
    res = minimize_quotient_general_p(case, build_grid(rng, 600, "log"))
    assert res.stop == "no-step" and res.converged
    assert case.formula_constant - 1e-6 <= res.quotient <= top
    qs = [q for _, q in res.history]
    assert all(b <= a for a, b in zip(qs, qs[1:]))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([1.5, 3.0, 4.0]),
    f=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=40),
    decades=st.floats(-3.0, 3.0),
)
def test_flux_solve_inverts_the_energy_gradient(p, f, decades):
    # v is 0 at both ends and its grad E, computed back from v's slopes by
    # P1Forms.evaluate, is f at every interior node.  The fluxes are at
    # most sum(f); at p < 2 the slopes next to v's peak, differenced from
    # nearly equal values, carry most of the error (measured 4e-12 of
    # sum(f) at p = 1.5, 2e-15 at p = 3 and 4)
    n = len(f) + 2
    forms = P1Forms(build_grid(CoordinateRange(0.1, 10.0), n, "log"), lambda t: (t ** 2, 1.0 + t))
    rhs = np.zeros(n)
    rhs[1:-1] = np.array(f) * 10.0 ** decades
    v = solve_flux(forms, p, rhs, guess=0.0)  # outside the bracket: its middle
    assert v[0] == v[-1] == 0.0
    ge = forms.evaluate(v, p)[2]
    assert np.max(np.abs(ge[1:-1] - rhs[1:-1])) <= 1e-11 * np.sum(rhs)


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
    k_band, m_band = case_forms(case, grid).pencil()
    lam = dense_lambda1(interior(k_band), interior(m_band))
    assert res.converged and res.quotient - res.lower <= 1e-10 * res.quotient
    assert res.lower - 1e-10 * lam <= lam <= res.quotient + 1e-10 * lam


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
# two eigenvalues 1e-2 apart: from a floor near 1/2 the steps converge at
# 0.98, and would take 455 of them to settle the quotient
CLOSE_PAIR = ((np.array([1.0, 1.01, 2.0, 3.0]), np.zeros(3)), (np.ones(4), np.zeros(3)))


@settings(deadline=None)
@given(
    pencil=pencils(),
    side=st.sampled_from(["below", "above"]),
    fraction=st.floats(0.0, 1.0),
)
@example(pencil=NEAR_DOUBLE, side="below", fraction=0.0)
@example(pencil=NEAR_DOUBLE, side="below", fraction=0.5)
@example(pencil=NEAR_DOUBLE, side="above", fraction=0.5)
@example(pencil=CLOSE_PAIR, side="below", fraction=0.5)
def test_guided_slicing_brackets_the_eigenvalue(pencil, side, fraction):
    # diagonally dominant K and M of the package's sign pattern, sliced from
    # a floor below or above the dense lambda1: the largest shift that
    # factored is below lambda1 (up to the inertia roundoff), the last
    # Rayleigh quotient above it, the two within the bracket tolerance; the
    # guided shifts cost at most one factorization more than plain
    # bisection from the same start, the one guided shift that may miss
    # before the slicing has any lead on bisection, and the steps at the
    # floor no more than bisection's factorizations.  A floor below lambda1
    # starts the bracket and leaves it where floor 0 puts it; one above
    # lambda1 never shows up in lower
    k_band, m_band = pencil
    lam = dense_lambda1(k_band, m_band)
    # the dense solver errs by a few ulps of the largest eigenvalue, one
    # over the smallest of the pencil M v = mu K v
    dense_error = 1e-13 / dense_lambda1(m_band, k_band)
    if side == "below":
        floor = fraction * max(0.0, lam - dense_error) * (1.0 - 1e-6)
    else:
        floor = (lam + dense_error) * (1.0 + 1e-6) * (1.0 + 9.0 * fraction)
    pair = bottom_eigenpair(k_band, m_band, floor)
    quotient = pair.quotients[-1]
    lower_band = (k_band[0] - pair.lower * m_band[0], k_band[1] - pair.lower * m_band[1])
    assert TridiagFactor(*lower_band).definite
    assert pair.lower - pair.slack - dense_error <= lam <= quotient + dense_error
    assert quotient - pair.lower <= max(BRACKET_RTOL * quotient, pair.slack)
    bisection = bisection_factorizations(k_band, m_band, floor)
    assert pair.factorizations <= bisection + 1
    # a step per factorization that factored, and up to 10 for the vector
    assert len(pair.quotients) <= bisection + pair.factorizations + 10
    if side == "below":
        plain = bottom_eigenpair(k_band, m_band)
        slack = max(BRACKET_RTOL * quotient, pair.slack, plain.slack)
        assert pair.lower >= floor
        assert abs(quotient - plain.quotients[-1]) <= slack
        assert abs(pair.lower - plain.lower) <= slack
    else:
        assert pair.lower < floor


@settings(deadline=None)
@given(pencil=pencils())
@example(pencil=NEAR_DOUBLE)
def test_each_quotient_is_the_rayleigh_quotient_of_its_iterate(pencil):
    # a step's quotient sigma + v^T (M u) / v^T (M v) and the direct
    # v^T K v / v^T M v of its iterate agree up to the rounding of diag(K):
    # both formulas round by about slack, so they differ by a few slacks
    # (2 ulps, 1.3 slack, on a 2 x 2 pencil; at most 4.4 over 23,000 drawn
    # pencils); the step's one band product, M v, sees each iterate v
    k_band, m_band = pencil
    products = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phardy.optimize, "apply_tridiag",
                   lambda diag, off, x, **buffers: products.append(x.copy())
                   or apply_tridiag(diag, off, x, **buffers))
        pair = bottom_eigenpair(k_band, m_band)
    iterates = products[1:]  # after M 1, the start's right-hand side
    assert len(iterates) == len(pair.quotients)
    for q, v in zip(pair.quotients, iterates):
        direct = float(v @ apply_tridiag(*k_band, v)) / float(v @ apply_tridiag(*m_band, v))
        assert abs(q - direct) <= 8.0 * pair.slack


ONE_NODE = ((np.array([2.0]), np.zeros(0)), (np.array([0.5]), np.zeros(0)))
TWO_NODES = ((np.array([2.0, 3.0]), np.array([-1.0])), (np.array([0.5, 0.5]), np.array([0.25])))


@settings(deadline=None)
@given(pencil=pencils(), fraction=st.floats(0.0, 2.0))
@example(pencil=ONE_NODE, fraction=0.5)
@example(pencil=ONE_NODE, fraction=1.5)
@example(pencil=TWO_NODES, fraction=0.5)
@example(pencil=TWO_NODES, fraction=1.5)
def test_in_place_band_kernels_match_their_references(pencil, fraction):
    # the slicing's kernels write into buffers: the band product M v over
    # the spent right-hand side, its terms through a scratch, and the
    # factor of a trial band K - sigma M in that band's own arrays.  They
    # give the bits of the allocating product and of the copying dpttrf,
    # on either side of lambda1, and the slicing leaves the pencil as it was
    k_band, m_band = pencil
    n = k_band[0].size
    rhs = band_product(*m_band, np.ones(n))
    v = TridiagFactor(*k_band).solve(rhs)
    mv = apply_tridiag(*m_band, v, out=rhs, scratch=np.multiply(v, rhs))
    assert mv is rhs and np.array_equal(mv, band_product(*m_band, v))
    sigma = fraction * dense_lambda1(k_band, m_band)
    diag, off = k_band[0] - sigma * m_band[0], k_band[1] - sigma * m_band[1]
    d, e, definite, solve = copied_factor(diag, off)
    factor = TridiagFactor(diag.copy(), off.copy(), overwrite=True)
    assert np.array_equal(factor.d, d) and np.array_equal(factor.e, e)
    assert factor.definite == definite
    if definite:
        assert np.array_equal(factor.solve(mv), solve(mv))
    before = [part.copy() for part in (*k_band, *m_band)]
    bottom_eigenpair(k_band, m_band, sigma)
    assert all(map(np.array_equal, (*k_band, *m_band), before))


def test_a_p2_study_level_takes_one_band_product_per_inverse_step(monkeypatch):
    # one M v per inverse step, and M 1 for the start, serves the right-hand
    # side, the M-norm and the quotient; the level's gap comes from the one
    # integrals pass of its solve
    calls = {"apply_tridiag": 0, "integrals": 0}

    def counted(name, original):
        return lambda *args, **kwargs: calls.update({name: calls[name] + 1}) or original(
            *args, **kwargs)

    monkeypatch.setattr(phardy.optimize, "apply_tridiag",
                        counted("apply_tridiag", phardy.optimize.apply_tridiag))
    monkeypatch.setattr(P1Forms, "integrals", counted("integrals", P1Forms.integrals))
    usable_cpus(monkeypatch, 1)
    study = convergence_study(hardy_e3(), levels=1, n0=2000)
    [res] = study.results
    assert calls == {"apply_tridiag": len(res.history) + 1, "integrals": 1}


def test_study_gaps_are_the_margins_of_the_minimizers(monkeypatch):
    # the gap from the sums of a level's solve has the bits of the sides of
    # its minimizer, whichever process solved the level
    case = hardy_e3()
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        study = convergence_study(case, levels=3, n0=500)
        assert study.gaps == [sides_for(case, res.minimizer).margin for res in study.results]
        assert_no_child_left()


def test_bundled_p2_minimization_takes_few_iterations():
    # guided slicing: plain bisection took 40 iterations on this case
    cfg = load_config(None)
    spec = next(c for c in cfg["cases"] if c["id"] == "hardy-euclidean3-p2")
    report = run_suite({"seed": cfg["seed"], "n_test_functions": 1, "cases": [spec]})
    assert report["cases"][0]["minimization"]["iterations"] <= 20


def test_bundled_hyperbolic_minimization_starts_at_its_constant():
    # the first steps from u = 1 sit at the outer end (quotients 1540, 1041,
    # then 850 unshifted or 201 shifted, against lambda1 = 0.446): bisection
    # from [0, 1540] took 29 iterations, slicing from the floor C (1 -
    # TOL_DISC) takes 15
    cfg = load_config(None)
    spec = next(c for c in cfg["cases"] if c["id"] == "hardy-hyperbolic3-p2")
    report = run_suite({"seed": cfg["seed"], "n_test_functions": 1, "cases": [spec]})
    minimization = report["cases"][0]["minimization"]
    assert minimization["iterations"] <= 16
    assert minimization["lower"] >= 0.25 * (1.0 - TOL_DISC)


@pytest.mark.parametrize("case, constant", [
    (hardy_case(E3, rho_catalog_entry("power", E3, 2.0, beta=-1.0)), 0.25),
    (divergence_case(E3, "davies-hinz", 2.0), 0.25),  # 1 / p^p: the constant is on rhs
])
def test_a_p2_case_is_sliced_from_its_own_constant(case, constant, monkeypatch):
    # the first factorization is at C' (1 - TOL_DISC), and it factors: lower
    # proves the case's constant on the grid's P1 space
    floors, slice_from = [], phardy.optimize.bottom_eigenpair
    monkeypatch.setattr(phardy.optimize, "bottom_eigenpair",
                        lambda k, m, floor: floors.append(floor) or slice_from(k, m, floor))
    res = minimize_quotient_p2(case, build_grid(CoordinateRange(1e-2, 1e2), 2000, "log"))
    assert floors == [constant * (1.0 - TOL_DISC)]
    assert res.converged and floors[0] <= res.lower <= res.quotient


def test_a_failed_factor_is_dropped_before_the_next_is_built(monkeypatch):
    # the slicing keeps the factor at lower; a shift that does not factor
    # is dropped before the next factorization, so at most two factors, two
    # n-vectors each, are alive at once.  On the H^3 Hardy pencil (lambda1
    # = 0.446) the floor 1 misses before K is factored, and the midpoint
    # 1/2 of [0, 1] misses before the next shift
    alive, others, definite = weakref.WeakSet(), [], []

    class Counted(TridiagFactor):
        def __init__(self, diag, off, overwrite=False):
            others.append(len(alive))
            super().__init__(diag, off, overwrite)
            alive.add(self)
            definite.append(self.definite)

    monkeypatch.setattr(phardy.optimize, "TridiagFactor", Counted)
    h3 = model_from_config({"kind": "hyperbolic", "dim": 3})
    case = hardy_case(h3, rho_catalog_entry("power", h3, 2.0, beta=-1.0))
    grid = build_grid(CoordinateRange(1e-3, 30.0), 2000, "log")
    pair = bottom_eigenpair(*map(interior, case_forms(case, grid).pencil()), 1.0)
    assert definite[:3] == [False, True, False] and pair.lower < 0.5
    assert max(others) <= 1


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
    # each level's lower is a shift at which K - lower M factored, at or
    # above the floor C (1 - TOL_DISC): the sandwich C <= lower <= quotient
    for res in study.results:
        assert res.converged
        assert case.formula_constant * (1.0 - 1e-6) <= res.lower <= res.quotient


def study_bytes(study):
    """What a convergence study computed, level by level, as comparable values."""
    return [
        (g.n, res.quotient, res.lower, res.iterations, res.converged, res.history, gap, ex,
         res.minimizer.values.tobytes())
        for g, res, gap, ex in zip(study.grids, study.results, study.gaps, study.extrapolated)
    ]


def test_convergence_study_does_not_depend_on_the_number_of_cpus(monkeypatch):
    # the levels share out over this process and a worker per further CPU,
    # the largest first; on 1, 2 and 3 CPUs the study computes the same bits
    case, studies = hardy_e3(), []
    for cpus in (1, 2, 3):
        forks = usable_cpus(monkeypatch, cpus)
        study = convergence_study(case, levels=4, n0=500)
        assert len(forks) == cpus - 1
        assert_no_child_left()
        assert all(res.minimizer.grid is g for g, res in zip(study.grids, study.results))
        studies.append(study_bytes(study))
    assert studies[0] == studies[1] == studies[2]


def test_a_study_worker_sends_no_copy_of_its_grids(monkeypatch):
    # the grids exist before the fork: a worker's results come back without
    # them, and each result gets its grid from this process
    loaded = []

    def loads(data):
        results = pickle.loads(data)
        loaded.append({i: res.minimizer.grid for i, res in results.items()})
        return results

    monkeypatch.setattr(phardy.workers, "pickle", SimpleNamespace(dump=pickle.dump, loads=loads))
    usable_cpus(monkeypatch, 2)
    study = convergence_study(hardy_e3(), levels=3, n0=500)
    assert_no_child_left()
    [sent] = loaded
    assert sent == {0: None, 1: None}
    assert all(res.minimizer.grid is g for g, res in zip(study.grids, study.results))


def test_assign_deals_the_largest_cost_first_to_the_least_loaded_process():
    # equal costs give round robin; the constants benchmark's study (7
    # levels of 4k to 256k nodes) on 2 CPUs leaves this process the largest
    assert assign([1] * 7, 3) == [[0, 3, 6], [1, 4], [2, 5]]
    assert assign([4000 * 2 ** k for k in range(7)], 2) == [[6], [5, 4, 3, 2, 1, 0]]


def test_a_study_level_error_is_the_same_on_any_number_of_cpus(monkeypatch):
    # levels 3 and 1 raise, in different processes on 2 CPUs; either way
    # the error raised is that of the largest level, the one that runs first
    solve, order = phardy.optimize.minimize_quotient, []

    def failing(case, grid):
        order.append(grid.n)
        if grid.n in (1000, 4000):
            raise InvalidArgumentError(f"no solve at n = {grid.n}")
        return solve(case, grid)

    monkeypatch.setattr(phardy.optimize, "minimize_quotient", failing)
    errors = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(InvalidArgumentError) as info:
            convergence_study(hardy_e3(), levels=4, n0=500)
        errors.append((type(info.value), str(info.value)))
        assert_no_child_left()
    assert errors == [(InvalidArgumentError, "no solve at n = 4000")] * 2
    # this process ran only the largest level: on one CPU it raised first
    assert order == [4000, 4000]


def test_a_study_worker_that_fails_outside_the_checks_is_reported(monkeypatch):
    # on 2 CPUs the levels of 2000, 1000 and 500 nodes run in the worker,
    # whose TypeError comes back with its traceback and the level's index
    parent, solve = os.getpid(), phardy.optimize.minimize_quotient

    def in_worker(case, grid):
        if os.getpid() != parent and grid.n == 1000:
            raise TypeError("a bug in a worker")
        return solve(case, grid)

    monkeypatch.setattr(phardy.optimize, "minimize_quotient", in_worker)
    usable_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^level 1 in a worker:") as info:
        convergence_study(hardy_e3(), levels=4, n0=500)
    assert "Traceback" in str(info.value) and "TypeError: a bug in a worker" in str(info.value)
    assert_no_child_left()

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
    res = minimize_quotient(case, grid)
    pair = sides_for(case, res.minimizer)
    assert pair.rhs / pair.lhs == pytest.approx(res.quotient, rel=1e-12)


def test_minimize_quotient_picks_the_solver_by_p(monkeypatch):
    # each solver is looked up on the module, where a wrapper on it sees the call
    calls = []
    monkeypatch.setattr(phardy.optimize, "minimize_quotient_p2", lambda *a: calls.append("p2"))
    monkeypatch.setattr(
        phardy.optimize, "minimize_quotient_general_p",
        lambda *a, max_iter: calls.append(("general", max_iter)),
    )
    grid = build_grid(CoordinateRange(0.1, 10), 300, "log")
    minimize_quotient(hardy_e3(), grid, max_iter=7)
    minimize_quotient(hardy_case(E3, rho_catalog_entry("power", E3, 3.0, beta=-0.5)), grid, 7)
    assert calls == ["p2", ("general", 7)]


def test_minimize_p2_rejects_other_p():
    w = rho_catalog_entry("power", E3, 3.0, beta=-0.5)
    case = hardy_case(E3, w)
    grid = build_grid(CoordinateRange(0.1, 10), 300, "log")
    with pytest.raises(InvalidArgumentError):
        minimize_quotient_p2(case, grid)


def test_general_p_names_a_weight_that_overflows_before_seeding(recwarn):
    # rho = r^-399 overflows at the inner nodes of [1e-2, 1e2]; the seed
    # rho^((p-1)/p) would warn on it before the forms could reject it
    w = rho_catalog_entry("power", E5, 1.01, beta=-399.0)
    grid = build_grid(CoordinateRange(1e-2, 1e2), 200, "log")
    with pytest.raises(InvalidArgumentError, match="power:beta=-399"):
        minimize_quotient_general_p(hardy_case(E5, w), grid)
    assert len(recwarn) == 0
