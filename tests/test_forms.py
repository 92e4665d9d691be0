"""P1 forms: one assembly per case and grid, minimized only when they are a quotient's."""
import numpy as np
import pytest

import phardy.forms
from phardy.cli import load_config, run_suite
from phardy.eigen import first_eigenpair
from phardy.errors import InvalidArgumentError
from phardy.forms import P1Forms
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
