"""First Dirichlet eigenpair of the 1D p-Laplacian; the eigenfunction
Hardy/Poincare cases built from it are ``functionals.KINDS`` rows."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .forms import P1Forms, model_densities
# sides_for bound by name, so a wrapper on functionals.sides_for does not
# also time the calls the checks below make
from .functionals import SidePair, distance_hardy_case, poincare_eigen_case, sides_for
from .geometry import CoordinateRange, ModelManifold
from .grids import GridFunction, RadialGrid, build_grid
from .optimize import TOL_EIG_GENERAL, descend_quotient, minimize_rayleigh_p2

TOL_EIG_P2 = 1e-6


@dataclass
class EigenPair:
    """First eigenpair, with phi1 positive inside and sup-normalized to 1."""

    lambda1: float
    phi1: GridFunction
    residual: float
    model: ModelManifold
    p: float
    converged: bool
    iterations: int


def first_eigenpair(
    model: ModelManifold,
    p: float,
    rng: CoordinateRange,
    grid: RadialGrid | None = None,
    n: int = 2000,
) -> EigenPair:
    """Solve -Delta_p phi = lambda |phi|^{p-2} phi with Dirichlet ends.

    p = 2 brackets lambda1 of the P1 pencil by spectrum slicing; p != 2
    runs inverse power iteration on the p-Rayleigh quotient.
    """
    if not math.isfinite(rng.hi):
        raise InvalidArgumentError("eigenproblem needs a bounded range")
    if grid is None:
        grid = build_grid(rng, n, "linear")
    forms = P1Forms(grid, model_densities(model, p, lambda t: (1.0, 1.0)))
    if p == 2.0:
        res, tol = minimize_rayleigh_p2(forms), TOL_EIG_P2
    else:
        x = grid.coord
        seed = np.sin(math.pi * (x - x[0]) / (x[-1] - x[0]))
        res, tol = descend_quotient(forms, p, seed), TOL_EIG_GENERAL
    u = np.abs(res.minimizer.values)
    u = u / np.max(u)
    residual = forms.residual(u, res.quotient, p)
    return EigenPair(
        lambda1=res.quotient,
        phi1=GridFunction(grid, u),
        residual=residual,
        model=model,
        p=p,
        converged=bool(res.converged and residual < tol),
        iterations=res.iterations,
    )


def poincare_eigen_check(pair: EigenPair, p: float, s: float, u: GridFunction) -> SidePair:
    """Sides of ``functionals.poincare_eigen_case``."""
    if p != pair.p:
        raise InvalidArgumentError("p must match the eigenpair")
    return sides_for(poincare_eigen_case(pair, s), u)


def distance_hardy_composite(
    pair: EigenPair, p: float, eps_split: float, u: GridFunction
) -> SidePair:
    """Sides of ``functionals.distance_hardy_case``."""
    if p != pair.p:
        raise InvalidArgumentError("p must match the eigenpair")
    return sides_for(distance_hardy_case(pair, eps_split), u)
