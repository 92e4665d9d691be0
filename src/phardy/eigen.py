"""First Dirichlet eigenpair of the 1D p-Laplacian and the eigenfunction
Hardy/Poincare inequalities built from it."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollarGradientError, InvalidArgumentError
from .forms import P1Forms, model_densities
# sides_for bound by name, so a wrapper on functionals.sides_for does not
# also time the calls the checks below make
from .functionals import InequalityCase, SidePair, sides_for, weighted_case, weighted_hardy_case
from .geometry import CoordinateRange, INTERVAL, ModelManifold
from .grids import GridFunction, RadialGrid, build_grid
from .optimize import TOL_EIG_GENERAL, descend_quotient, minimize_rayleigh_p2
from .weights import rho_catalog_entry, weight_from_samples

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


def eigen_weight(pair: EigenPair):
    """The first eigenfunction as a catalog weight."""
    return weight_from_samples(
        "eigenfunction", pair.model, pair.p, pair.phi1.grid, pair.phi1.values
    )


def check_eigen_hardy_alpha(p: float, alpha: float):
    if alpha >= p - 1.0:
        raise InvalidArgumentError("eigenfunction Hardy needs alpha < p-1")


def eigen_hardy_case(pair: EigenPair, alpha: float = 0.0) -> InequalityCase:
    check_eigen_hardy_alpha(pair.p, alpha)
    return weighted_hardy_case(
        pair.model,
        eigen_weight(pair),
        alpha,
        case_id=f"eigen-hardy[{pair.model.kind}|p={pair.p:g}|alpha={alpha:g}]",
    )


def poincare_eigen_constant(pair: EigenPair, s: float) -> float:
    p = pair.p
    return pair.lambda1 * (p - 1.0 - s) ** (p - 1.0) / p ** p


def poincare_eigen_check(pair: EigenPair, p: float, s: float, u: GridFunction) -> SidePair:
    """lambda1 (p-1-s)^(p-1)/p^p  int phi1^s |u|^p  <=  int phi1^s |grad u|^p."""
    if p != pair.p:
        raise InvalidArgumentError("p must match the eigenpair")
    return sides_for(poincare_eigen_case(pair, s), u)


def check_poincare_s(p: float, s: float):
    if not (0.0 < s < p - 1.0):
        raise InvalidArgumentError("need 0 < s < p-1")


def poincare_eigen_case(pair: EigenPair, s: float) -> InequalityCase:
    """Case wrapper so the suite runner and minimizers can drive (dis:poinc)."""
    check_poincare_s(pair.p, s)
    case_id = f"poincare-eigen[{pair.model.kind}|p={pair.p:g}|s={s:g}]"
    const = poincare_eigen_constant(pair, s)
    return weighted_case("poincare-eigen", pair.model, eigen_weight(pair), const, case_id, s=s)


def collar_split(model: ModelManifold, grid: RadialGrid, eps_split: float):
    """The nodes within eps_split of the interval's ends (the collar) and
    the cells between two such nodes; both it and the rest must be nonempty."""
    if model.kind != INTERVAL:
        raise InvalidArgumentError("composite constant implemented on intervals")
    collar = np.minimum(grid.nodes - model.a, model.b - grid.nodes) < eps_split
    collar_cells = collar[:-1] & collar[1:]
    if not np.any(collar_cells) or not np.any(~collar):
        raise InvalidArgumentError("eps_split leaves an empty collar or interior")
    return collar, collar_cells


def distance_hardy_constant(pair: EigenPair, eps_split: float) -> float:
    """Composite constant for the distance-from-boundary Hardy inequality.

    Splits the interval into a boundary collar (where the eigenfunction
    Hardy inequality controls 1/d^p through the collar gradient bound) and
    the interior (where the Poincare-type inequality does, at s = (p-1)/2),
    and takes half the worse of the two explicit constants.  The gradient
    bounds are the cell slopes of phi1: the least over cells inside the
    collar, the largest over all cells.
    """
    p = pair.p
    s = 0.5 * (p - 1.0)
    collar, collar_cells = collar_split(pair.model, pair.phi1.grid, eps_split)
    slope = np.abs(np.diff(pair.phi1.values) / np.diff(pair.phi1.grid.nodes))
    b_min = float(np.min(slope[collar_cells]))
    if b_min <= 0:
        raise CollarGradientError("eigenfunction gradient vanishes on the collar")
    lip = float(np.max(slope))
    l_eps = float(np.min(pair.phi1.values[~collar]))
    c_collar = ((p - 1.0) / p) ** p * b_min ** p / lip ** p
    c_inner = poincare_eigen_constant(pair, s) * l_eps ** s * eps_split ** p
    return 0.5 * min(c_collar, c_inner)


def distance_hardy_case(pair: EigenPair, eps_split: float = 0.1) -> InequalityCase:
    """c int |u|^p / d^p <= int |grad u|^p with the composite constant c:
    the Hardy quotient of rho = d, under a smaller constant."""
    weight = rho_catalog_entry("dist-boundary", pair.model, pair.p)
    const = distance_hardy_constant(pair, eps_split)
    case_id = f"distance-hardy[{pair.model.kind}|p={pair.p:g}|eps={eps_split:g}]"
    return weighted_case("distance-hardy", pair.model, weight, const, case_id, eps_split=eps_split)


def distance_hardy_composite(
    pair: EigenPair, p: float, eps_split: float, u: GridFunction
) -> SidePair:
    """Sides of ``distance_hardy_case``."""
    if p != pair.p:
        raise InvalidArgumentError("p must match the eigenpair")
    return sides_for(distance_hardy_case(pair, eps_split), u)
