"""P1 forms: one assembly per case and grid, minimized only when they are
a quotient's; the factored tridiagonal kernel."""
import numpy as np
import pytest
from numpy.linalg import LinAlgError

from oracles import dense, dense_lambda1

import phardy.forms
from phardy.cli import load_config, run_suite
from phardy.eigen import first_eigenpair
from phardy.errors import InvalidArgumentError, ToolkitError
from phardy.forms import P1Forms, TridiagFactor, dirichlet_slice, restrict
from phardy.functionals import gn_case, hardy_case
from phardy.geometry import CoordinateRange, euclidean_radial, interval
from phardy.grids import build_grid
from phardy.optimize import convergence_study, minimize_quotient_p2, minimize_rayleigh_p2
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


def test_minimizers_take_only_the_forms_of_a_quotient():
    e3 = euclidean_radial(3)
    rng = CoordinateRange(0.1, 10.0, True, True)
    grid = build_grid(rng, 50, "log")
    gn = gn_case(e3, rho_catalog_entry("power", e3, 2.0, beta=-1.0), delta=2.0, rng=rng)
    with pytest.raises(InvalidArgumentError):  # three densities, not (A, B)
        minimize_quotient_p2(gn, grid)
    with pytest.raises(InvalidArgumentError):  # B vanishes on cells
        minimize_rayleigh_p2(P1Forms(grid, lambda t: (np.ones_like(t), np.maximum(t - 1.0, 0.0))))


def _interval_pencil(n=60):
    """The Dirichlet stiffness/mass band of the unit interval and the
    smallest eigenvalue of its dense pencil."""
    grid = build_grid(CoordinateRange(0.0, 1.0), n, "linear")
    forms = P1Forms(grid, lambda t: (np.ones_like(t), np.ones_like(t)))
    keep = dirichlet_slice(n, (True, True))
    k_band, m_band = (restrict(band, keep) for band in forms.pencil(np.zeros(n), 2.0))
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
