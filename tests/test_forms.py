"""P1 forms: one assembly per case and grid, minimized only when they are
a quotient's, one pass over the Gauss points per descent point; the
factored tridiagonal kernel."""
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError
from scipy.linalg import lapack

from oracles import dense, dense_lambda1

import phardy.forms
from phardy.cli import load_config, run_suite
from phardy.eigen import first_eigenpair
from phardy.errors import InvalidArgumentError, ToolkitError
from phardy.forms import P1Forms, TridiagFactor, interior
from phardy.functionals import case_forms, gn_case, hardy_case
from phardy.geometry import CoordinateRange, euclidean_radial, interval
from phardy.grids import build_grid
from phardy.optimize import (
    convergence_study,
    minimize_quotient_general_p,
    minimize_quotient_p2,
    minimize_rayleigh_p2,
)
from phardy.weights import rho_catalog_entry


def _study():
    e3 = euclidean_radial(3)
    case = hardy_case(e3, rho_catalog_entry("power", e3, 2.0, beta=-1.0))
    convergence_study(case, levels=2, n0=500)


def _eigenpair():
    first_eigenpair(interval(0.0, 1.0), 2.0, CoordinateRange(0.0, 1.0), n=400)


def _suite():
    cfg = load_config(None)
    spec = next(c for c in cfg["cases"] if c["id"] == "hardy-euclidean3-p2")
    assert spec["checks"]["minimize"]
    run_suite({"seed": cfg["seed"], "n_test_functions": 3, "cases": [spec]})


@pytest.mark.parametrize("run, assemblies", [
    (_study, 2),  # one per level: the solve and the gap of its minimizer share it
    (_eigenpair, 1),  # the solve and the weak residual
    (_suite, 1),  # the margins and the minimization
])
def test_one_assembly_per_case_and_grid(run, assemblies, monkeypatch):
    # every P1 assembly takes the Gauss points of its grid's cells once
    calls = []
    cell_gauss = phardy.forms.cell_gauss
    monkeypatch.setattr(
        phardy.forms, "cell_gauss", lambda nodes: calls.append(nodes.size) or cell_gauss(nodes)
    )
    run()
    assert len(calls) == assemblies


def test_descent_passes_over_each_point_once(monkeypatch):
    # P1Forms.values runs once per P1Forms.evaluate (each trial point, the
    # seed, each eigenvector's mass and the final residual), plus once per
    # eigen-direction attempt (its pencil at the iterate), and nowhere else;
    # a line search that has shrunk its step below an ulp of the iterate
    # stops instead of evaluating that same point again
    calls, last = Counter(), [None]
    evaluate = P1Forms.evaluate

    def counted(name, original):
        return lambda *args: calls.update([name]) or original(*args)

    def counted_evaluate(self, u, p):
        calls.update(evaluate=1, repeats=u.tobytes() == last[0])
        last[0] = u.tobytes()
        return evaluate(self, u, p)

    monkeypatch.setattr(P1Forms, "values", counted("values", P1Forms.values))
    monkeypatch.setattr(P1Forms, "evaluate", counted_evaluate)
    monkeypatch.setattr(
        phardy.optimize, "bottom_eigenpair",
        counted("attempts", phardy.optimize.bottom_eigenpair),
    )
    e5 = euclidean_radial(5)
    rng = CoordinateRange(1e-2, 1e2)
    case = hardy_case(e5, rho_catalog_entry("power", e5, 1.5, beta=-7.0))
    res = minimize_quotient_general_p(case, build_grid(rng, 200, "log"), max_iter=200)
    assert res.stop == "max_iter" and calls["evaluate"] > res.iterations > calls["attempts"]
    assert calls["values"] <= calls["evaluate"] + calls["attempts"]
    assert calls["repeats"] == 0


# A > 0 and B > 0 that vary over the cells, on a log grid
GRAD_FORMS = P1Forms(
    build_grid(CoordinateRange(0.1, 10.0), 24, "log"), lambda t: (t ** 2, 1.0 + t)
)


def _gradients_written_out(forms, u, p):
    """grad E and grad L of E = int B |u'|^p, L = int A |u|^p, each
    differentiated on its own from the slopes and Gauss values of u."""
    slope, ug = forms.slopes(u), forms.values(u)
    dcell = forms.b_cell * p * np.sign(slope) * np.abs(slope) ** (p - 1.0) / forms.h
    core = forms.a_wts[0] * p * np.sign(ug) * np.abs(ug) ** (p - 1.0)
    ge = np.append(0.0, dcell) - np.append(dcell, 0.0)
    gl = np.append(np.sum(core * forms.n1, axis=0), 0.0)
    gl += np.append(0.0, np.sum(core * forms.n2, axis=0))
    return ge, gl


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([1.5, 3.0, 4.0]),
    inner=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=22, max_size=22),
    # a power of two, so s u and its slopes are exact: at any other s the
    # rounding of s u can move a one-ulp slope between neighbouring values
    # by O(1) relative, which |u'|^(p-1) carries far above the bound below
    s=st.integers(-3, 3).map(lambda k: 2.0 ** k),
)
@example(p=1.5, inner=[0.0] * 20 + [0.001, 0.0010000000000000002], s=0.125)
def test_one_evaluation_gives_the_quotient_and_its_gradient(p, inner, s):
    forms = GRAD_FORMS
    u = np.array([0.0, *inner, 0.0])
    assume(np.any(u > 0))
    energy, mass, gauss = forms.evaluate(u, p)
    # E = int B |u'|^p and L = int A |u|^p, written out
    want_energy = np.dot(forms.b_cell, np.abs(forms.slopes(u)) ** p)
    want_mass = np.sum(forms.a_wts[0] * np.abs(forms.values(u)) ** p)
    assert energy == pytest.approx(want_energy, rel=1e-13)
    assert mass == pytest.approx(want_mass, rel=1e-13)
    q = energy / mass
    ge, gl = forms.gradients(gauss, p)
    want_e, want_l = _gradients_written_out(forms, u, p)
    scale = np.max(np.abs(want_e)) + q * np.max(np.abs(want_l))
    assert np.max(np.abs((ge - q * gl) - (want_e - q * want_l))) <= 1e-13 * scale
    # p-homogeneity: at s u each gradient is s^(p-1) times the one at u,
    # which is how the descent gets the gradient of its normalized iterate
    ge_s, gl_s = forms.gradients(forms.evaluate(s * u, p)[2], p)
    drift = (ge_s - q * gl_s) - s ** (p - 1.0) * (ge - q * gl)
    assert np.max(np.abs(drift)) <= 1e-13 * s ** (p - 1.0) * scale


@pytest.mark.parametrize("factory, k", [
    (lambda e3, w: hardy_case(e3, w), 1),
    (lambda e3, w: gn_case(e3, w, delta=2.0), 2),
], ids=["hardy", "gn"])
def test_assembly_scratch_stays_a_block(factory, k):
    # the forms hold the A densities per Gauss point, one row per point,
    # and nothing else of that size: the P1 hats are the same (8, 1) columns
    # in every cell.  The assembly evaluates the densities one block of
    # cells at a time, so at its peak it holds the Gauss points and
    # weights, the A's and a block
    e3 = euclidean_radial(3)
    case = factory(e3, rho_catalog_entry("power", e3, 2.0, beta=-1.0))
    grid = build_grid(CoordinateRange(1e-2, 1e2), 64_000, "log")
    case_forms(case, build_grid(CoordinateRange(1e-2, 1e2), 50, "log"))  # warm caches
    tracemalloc.start()
    try:
        forms = case_forms(case, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cell_array = (grid.n - 1) * 8 * 8  # bytes of one (8, n - 1) array of doubles
    assert len(forms.a_wts) == k and forms.n1.shape == forms.n2.shape == (8, 1)
    assert all(a.shape == (8, grid.n - 1) for a in forms.a_wts)
    others = [np.shape(v) for name, v in vars(forms).items() if name != "a_wts"]
    assert (8, grid.n - 1) not in others
    assert peak < (k + 3) * cell_array


def test_minimizers_take_only_the_forms_of_a_quotient():
    e3 = euclidean_radial(3)
    rng = CoordinateRange(0.1, 10.0)
    grid = build_grid(rng, 50, "log")
    gn = gn_case(e3, rho_catalog_entry("power", e3, 2.0, beta=-1.0), delta=2.0)
    with pytest.raises(InvalidArgumentError):  # three densities, not (A, B)
        minimize_quotient_p2(gn, grid)
    with pytest.raises(InvalidArgumentError):  # B vanishes on cells
        minimize_rayleigh_p2(P1Forms(grid, lambda t: (np.ones_like(t), np.maximum(t - 1.0, 0.0))))


def _interval_pencil(n=60):
    """The Dirichlet stiffness/mass band of the unit interval and the
    smallest eigenvalue of its dense pencil."""
    grid = build_grid(CoordinateRange(0.0, 1.0), n, "linear")
    forms = P1Forms(grid, lambda t: (np.ones_like(t), np.ones_like(t)))
    k_band, m_band = map(interior, forms.pencil(np.zeros(n), 2.0))
    return k_band, m_band, dense_lambda1(k_band, m_band)


def test_tridiag_factor_solves_like_a_dense_solve():
    k_band, _, _ = _interval_pencil()
    factor = TridiagFactor(*k_band)
    for rhs in (np.ones(k_band[0].size), np.linspace(1.0, 3.0, k_band[0].size)):
        np.testing.assert_allclose(
            factor.solve(rhs), np.linalg.solve(dense(k_band), rhs), rtol=1e-12
        )


def test_tridiag_factor_definite_iff_shift_below_lambda1():
    # Sylvester's law of inertia: K - sigma M factors iff sigma < lambda1
    k_band, m_band, lam = _interval_pencil()

    def shifted(sigma):
        return TridiagFactor(k_band[0] - sigma * m_band[0], k_band[1] - sigma * m_band[1])

    assert all(shifted(s).definite for s in (0.0, 0.5 * lam, lam * (1.0 - 1e-9)))
    for sigma in (lam * (1.0 + 1e-9), 2.0 * lam, 1e3 * lam):
        factor = shifted(sigma)
        assert not factor.definite
        with pytest.raises(LinAlgError) as err:  # solve mode needs a definite band
            factor.solve(np.ones(k_band[0].size))
        assert isinstance(err.value, ToolkitError)  # so `phardy run` exits 3


def test_tridiag_factor_rejects_non_finite_input():
    for diag, off in (([2.0, np.nan, 2.0], [-1.0, -1.0]), ([2.0, 2.0], [np.inf])):
        with pytest.raises(ValueError) as err:
            TridiagFactor(np.array(diag), np.array(off))
        assert isinstance(err.value, ToolkitError)
    factor = TridiagFactor(np.array([2.0, 2.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        factor.solve(np.array([1.0, np.nan]))


def test_tridiag_factor_one_by_one():
    # the LAPACK wrappers reject n = 1, so the kernel keeps its own branch
    assert TridiagFactor(np.array([4.0]), np.zeros(0)).solve(np.array([2.0])) == [0.5]
    assert not TridiagFactor(np.array([0.0]), np.zeros(0)).definite
    assert not TridiagFactor(np.array([-1.0]), np.zeros(0)).definite


@pytest.mark.parametrize("n", [2, 7, 5000])
def test_tridiag_factor_matches_the_public_lapack_routines(n):
    # forms loads dpttrf/dpttrs from scipy's LAPACK extension by path
    rng = np.random.default_rng(n)
    diag, off = rng.uniform(2.5, 3.5, n), -rng.uniform(0.1, 1.0, n - 1)
    rhs = rng.standard_normal(n)
    d, e, info = lapack.dpttrf(diag, off)
    factor = TridiagFactor(diag, off)
    assert info == 0 and factor.definite
    assert np.array_equal(factor.d, d) and np.array_equal(factor.e, e)
    assert np.array_equal(factor.solve(rhs), lapack.dpttrs(d, e, rhs)[0])


def test_lapack_loader_falls_back_to_the_public_module(tmp_path):
    # a scipy whose LAPACK extension is not where forms looks for it
    assert phardy.forms.load_lapack(tmp_path) is lapack
