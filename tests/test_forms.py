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

from forking import usable_cpus
from oracles import dense, dense_lambda1, side_integrals_one_row

import phardy.forms
from phardy.cli import load_config, run_suite
from phardy.eigen import first_eigenpair
from phardy.errors import InvalidArgumentError, NonFiniteIntegrandError, ToolkitError
from phardy.forms import P1Forms, TridiagFactor, interior
from phardy.functionals import case_forms, gn_case, hardy_case, sides_for
from phardy.geometry import CoordinateRange, euclidean_radial, interval
from phardy.grids import build_grid
from phardy.optimize import (
    bottom_eigenpair,
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
    (_study, 2),  # one per level: the gap comes from the sums of its solve
    (_eigenpair, 1),  # the solve and the weak residual
    (_suite, 1),  # the margins and the minimization
])
def test_one_assembly_per_case_and_grid(run, assemblies, monkeypatch):
    # every P1 assembly takes the Gauss points of its grid's cells once,
    # in one block on these grids; on one CPU, as the calls of forked
    # workers (the study's levels) are not counted here
    usable_cpus(monkeypatch, 1)
    calls = []
    cell_gauss = phardy.forms.cell_gauss
    monkeypatch.setattr(
        phardy.forms, "cell_gauss", lambda nodes: calls.append(nodes.size) or cell_gauss(nodes)
    )
    run()
    assert len(calls) == assemblies


def test_descent_passes_over_each_point_once(monkeypatch):
    # the general-p solve evaluates the seed, one new point per step and
    # the residual at its minimizer, each in one pass over the Gauss points
    # (P1Forms.values runs once per P1Forms.evaluate and nowhere else); no
    # point is evaluated twice, and no linearized pencil is factored
    calls, seen = Counter(), set()
    evaluate = P1Forms.evaluate

    def counted(name, original):
        return lambda *args: calls.update([name]) or original(*args)

    def counted_evaluate(self, u, p):
        calls.update(evaluate=1, repeats=u.tobytes() in seen)
        seen.add(u.tobytes())
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
    assert calls["evaluate"] == res.iterations + 2
    assert calls["values"] == calls["evaluate"]
    assert calls["repeats"] == 0 and calls["attempts"] == 0


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
    energy, mass, ge, gl = forms.evaluate(u, p)
    # E = int B |u'|^p and L = int A |u|^p, written out
    want_energy = np.dot(forms.b_cell, np.abs(forms.slopes(u)) ** p)
    want_mass = np.sum(forms.a_wts[0] * np.abs(forms.values(u)) ** p)
    assert energy == pytest.approx(want_energy, rel=1e-13)
    assert mass == pytest.approx(want_mass, rel=1e-13)
    q = energy / mass
    want_e, want_l = _gradients_written_out(forms, u, p)
    scale = np.max(np.abs(want_e)) + q * np.max(np.abs(want_l))
    assert np.max(np.abs((ge - q * gl) - (want_e - q * want_l))) <= 1e-13 * scale
    # p-homogeneity: at s u each gradient is s^(p-1) times the one at u,
    # which is how the descent gets the gradient of its normalized iterate
    ge_s, gl_s = forms.evaluate(s * u, p)[2:]
    drift = (ge_s - q * gl_s) - s ** (p - 1.0) * (ge - q * gl)
    assert np.max(np.abs(drift)) <= 1e-13 * s ** (p - 1.0) * scale


def _traced(run):
    """run() and the peak of the memory tracemalloc saw allocated meanwhile."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _power_case(factory):
    e3 = euclidean_radial(3)
    return factory(e3, rho_catalog_entry("power", e3, 2.0, beta=-1.0))


@pytest.mark.parametrize("factory, k", [
    (lambda e3, w: hardy_case(e3, w), 1),
    (lambda e3, w: gn_case(e3, w, delta=2.0), 2),
], ids=["hardy", "gn"])
def test_assembly_scratch_stays_a_block(factory, k):
    # the forms hold the A densities per Gauss point, one row per point,
    # and nothing else of that size: the P1 hats are the same (8, 1) columns
    # in every cell.  The assembly takes the Gauss points and evaluates the
    # densities one block of cells at a time, so beyond the A's its peak
    # is B per cell, the masks of non-finite densities and one block's
    # scratch, at most 16 (8, block) arrays
    case = _power_case(factory)
    grid = build_grid(CoordinateRange(1e-2, 1e2), 256_000, "log")
    case_forms(case, build_grid(CoordinateRange(1e-2, 1e2), 50, "log"))  # warm caches
    forms, peak = _traced(lambda: case_forms(case, grid))
    cell_array = (grid.n - 1) * 8 * 8  # bytes of one (8, n - 1) array of doubles
    vector, block = grid.n * 8, phardy.forms._CELL_BLOCK * 8 * 8
    assert len(forms.a_wts) == k and forms.n1.shape == forms.n2.shape == (8, 1)
    assert all(a.shape == (8, grid.n - 1) for a in forms.a_wts)
    others = [np.shape(v) for name, v in vars(forms).items() if name != "a_wts"]
    assert (8, grid.n - 1) not in others
    assert peak < k * cell_array + 2 * vector + 16 * block


def test_p2_study_step_holds_no_gauss_array():
    # a p = 2 study step, the solve and the sides of its minimizer, passes
    # over the Gauss points a block at a time: beyond the eigen solver's
    # own vectors its peak is the pencil's bands and block scratch, short
    # of one (8, n - 1) array
    case = _power_case(lambda e3, w: hardy_case(e3, w))
    grid = build_grid(CoordinateRange(1e-2, 1e2), 64_000, "log")
    minimize_quotient_p2(case, build_grid(CoordinateRange(1e-2, 1e2), 50, "log"))  # warm caches
    forms = case_forms(case, grid)
    bands = list(map(interior, forms.pencil()))
    _, solver = _traced(lambda: bottom_eigenpair(*bands))
    del bands
    _, step = _traced(lambda: sides_for(case, minimize_rayleigh_p2(forms).minimizer))
    assert step - solver < (grid.n - 1) * 8 * 8


def test_the_slicing_holds_five_vectors_beyond_its_pencil():
    # at a factorization the kept factor and the trial (two n-vectors
    # each) and the right-hand side; at a step the factor, v, M v and one
    # scratch: at most five n-vectors beyond the pencil, however many
    # shifts the 100k-node slicing tries
    n = 100_000
    k_band = (np.full(n, 2.0 + 1e-3), np.full(n - 1, -1.0))
    m_band = (np.full(n, 2.0 / 3.0), np.full(n - 1, 1.0 / 6.0))
    pair, peak = _traced(lambda: bottom_eigenpair(k_band, m_band))
    assert pair.factorizations > 10
    assert peak <= 5 * 8 * n + 64 * 1024


# A > 0 and B > 0 that vary over the cells, on a grid of two blocks and
# 1000 cells, and u > 0 from the middle of its first block to the middle
# of its last
BLOCK = phardy.forms._CELL_BLOCK
BLOCK_FORMS = P1Forms(
    build_grid(CoordinateRange(0.1, 10.0), 2 * BLOCK + 1001, "log"), lambda t: (t ** 2, 1.0 + t)
)


def _supported(n, lo, hi, seed=0):
    u = np.zeros(n)
    u[lo:hi] = np.random.default_rng(seed).uniform(0.5, 2.0, hi - lo)
    return u


def _pencil_written_out(forms):
    """The p = 2 pencil of ``P1Forms.pencil`` on the whole grid at once."""
    bw, aw = forms.b_cell / forms.h ** 2, forms.a_wts[0]
    m_lo, m_hi, m_off = (np.sum(aw * hat, axis=0)
                         for hat in (forms.n1 ** 2, forms.n2 ** 2, forms.n1 * forms.n2))
    return ((np.append(bw, 0.0) + np.append(0.0, bw), -bw),
            (np.append(m_lo, 0.0) + np.append(0.0, m_hi), m_off))


def _integrals_written_out(forms, u, qs):
    """The side integrals of ``P1Forms.integrals`` for a row whose live cells
    make one segment, written out: each cell's 8 Gauss points added in
    order, then the first cell plus the pairwise sum of the others, which
    is how np.add.reduceat adds a segment."""
    nz = np.flatnonzero(u)
    cells = slice(max(nz[0] - 1, 0), nz[-1] + 1)
    ug = np.abs(forms.n1 * u[:-1] + forms.n2 * u[1:])[:, cells]
    slope = np.abs(np.diff(u) / forms.h)[cells]

    def segment(per_cell):
        return float(per_cell[0] + np.sum(per_cell[1:]))

    def cell_sums(g):
        total = g[0] + g[1]
        for row in g[2:]:
            total = total + row
        return total

    out = [segment(cell_sums(a[:, cells] * ug ** q)) for a, q in zip(forms.a_wts, qs)]
    return out + [segment(forms.b_cell[cells] * slope ** qs[-1])]


def _whole_grid(forms, u, qs):
    """The side integrals of u over its live cells by one np.sum each."""
    nz = np.flatnonzero(u)
    cells = slice(max(nz[0] - 1, 0), nz[-1] + 1)
    ug = np.abs(forms.n1 * u[:-1] + forms.n2 * u[1:])[:, cells]
    slope = np.abs(np.diff(u) / forms.h)[cells]
    out = [float(np.sum(a[:, cells] * ug ** q)) for a, q in zip(forms.a_wts, qs)]
    return out + [float(np.sum(forms.b_cell[cells] * slope ** qs[-1]))]


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_block_passes_match_the_whole_grid(p):
    forms = BLOCK_FORMS
    n = forms.grid.n
    u = _supported(n, BLOCK // 2, 2 * BLOCK + 500)
    for got, want in zip(forms.pencil(), _pencil_written_out(forms)):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    [got] = forms.integrals(u[None], (p, p))
    assert got == pytest.approx(_whole_grid(forms, u, (p, p)), rel=1e-14, abs=0.0)
    # a support within one block, or a grid of one block, is one segment,
    # summed as written out
    for forms, u in ((forms, _supported(n, BLOCK + 100, 2 * BLOCK - 100)),
                     (GRAD_FORMS, _supported(GRAD_FORMS.grid.n, 1, 23))):
        assert forms.integrals(u[None], (p, p)) == [_integrals_written_out(forms, u, (p, p))]


# side densities (A_1, A_2, B) on a grid of a few cells
THREE_FORMS = P1Forms(
    build_grid(CoordinateRange(0.1, 10.0), 9, "log"), lambda t: (t ** 2, 1.0 / t, 1.0 + t)
)
# "squares": every exponent 2, so the integrals square without an abs
SIDE_FORMS = {"block": (BLOCK_FORMS, (2.0, 3.0)), "grad": (GRAD_FORMS, (1.5, 2.0)),
              "three": (THREE_FORMS, (2.0, 4.0, 2.0)), "squares": (THREE_FORMS, (2.0, 2.0, 2.0))}


@st.composite
def _stacks(draw):
    """A name in SIDE_FORMS and a stack of rows on its grid: rows that
    vanish, rows with one nonzero node (an end node gives a one-cell row),
    and rows live on a random run of nodes, up to the whole grid."""
    name = draw(st.sampled_from(sorted(SIDE_FORMS)))
    n = SIDE_FORMS[name][0].grid.n
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        u = np.zeros(n)
        shape = draw(st.sampled_from(["zero", "node", "run"]))
        if shape == "node":
            u[draw(st.integers(0, n - 1))] = draw(st.floats(-4.0, 4.0).filter(bool))
        elif shape == "run":
            lo = draw(st.integers(0, n - 1))
            hi = draw(st.integers(lo + 1, n))
            u[lo:hi] = np.random.default_rng(draw(st.integers(0, 2 ** 16))).uniform(-2, 2, hi - lo)
        rows.append(u)
    return name, np.array(rows)


def _one_node(name, i, value=1.0):
    u = np.zeros(SIDE_FORMS[name][0].grid.n)
    u[i] = value
    return u


@settings(max_examples=60, deadline=None)
@given(case=_stacks())
@example(case=("grad", np.array([_one_node("grad", 0), _supported(24, 1, 23)])))
@example(case=("grad", np.array([_one_node("grad", 23, -2.0), _one_node("grad", 0)])))
@example(case=("block", np.array([_supported(BLOCK_FORMS.grid.n, 0, BLOCK_FORMS.grid.n),
                                  _one_node("block", 5), np.zeros(BLOCK_FORMS.grid.n)])))
@example(case=("block", np.array([_supported(BLOCK_FORMS.grid.n, 3, BLOCK + 5),
                                  _supported(BLOCK_FORMS.grid.n, 10, 2 * BLOCK + 12, seed=1)])))
def test_each_row_sums_the_same_alone_and_in_any_stack(case):
    name, stack = case
    forms, qs = SIDE_FORMS[name]
    got = forms.integrals(stack, qs)
    assert all(type(x) is float for row in got for x in row)
    assert [forms.integrals(u[None], qs)[0] for u in stack] == got
    assert forms.integrals(stack[::-1], qs)[::-1] == got
    for u, sums in zip(stack, got):
        assert sums == pytest.approx(side_integrals_one_row(forms, u, qs), rel=1e-14, abs=0.0)


# A = 1/|t - 1/2|, infinite at the node 1/2, and B not a number past 0.8:
# at those nodes and on the cells from 3/4 on
BAD_FORMS = P1Forms(
    build_grid(CoordinateRange(0.0, 1.0), 9, "linear"),
    lambda t: (1.0 / np.abs(t - 0.5), np.where(t > 0.8, np.nan, 1.0)),
)


@settings(max_examples=60, deadline=None)
@given(live=st.lists(st.lists(st.booleans(), min_size=9, max_size=9), min_size=1, max_size=4))
def test_a_non_finite_density_where_a_row_lives_raises(live):
    stack = np.where(live, 1.5, 0.0)
    qs = (2.0, 2.0)
    expect_raise = False
    for u in stack:
        try:
            side_integrals_one_row(BAD_FORMS, u, qs)
        except NonFiniteIntegrandError:
            expect_raise = True
    if expect_raise:
        with pytest.raises(NonFiniteIntegrandError):
            BAD_FORMS.integrals(stack, qs)
    else:
        for u, sums in zip(stack, BAD_FORMS.integrals(stack, qs)):
            want = side_integrals_one_row(BAD_FORMS, u, qs)
            assert np.isfinite(sums).all() and sums == pytest.approx(want, rel=1e-14, abs=0.0)


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
    k_band, m_band = map(interior, forms.pencil())
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
