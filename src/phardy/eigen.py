"""First Dirichlet eigenpair of the 1D p-Laplacian and the eigenfunction
Hardy/Poincare inequalities built from it."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollarGradientError, InvalidArgumentError
from .forms import P1Forms, model_densities
from .functionals import InequalityCase, SidePair, quotient_sides, weighted_hardy_case
from .geometry import CoordinateRange, INTERVAL, ModelManifold
from .grids import GridFunction, RadialGrid, build_grid
from .optimize import descend_quotient, minimize_rayleigh_p2
from .weights import rho_catalog_entry, weight_from_samples

TOL_EIG_P2 = 1e-6
TOL_EIG_GENERAL = 1e-4


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


def _weak_residual(forms: P1Forms, u: np.ndarray, lam: float, p: float) -> float:
    """Relative discrete-form norm of -Delta_p phi - lambda |phi|^{p-2} phi."""
    kp = forms.energy_grad(u, p) / p
    mp = forms.mass_grad(u, p) / p
    r = (kp - lam * mp)[1:-1]
    scale = np.linalg.norm(kp[1:-1])
    return float(np.linalg.norm(r) / scale) if scale > 0 else 0.0


def first_eigenpair(
    model: ModelManifold,
    p: float,
    rng: CoordinateRange,
    grid: RadialGrid | None = None,
    n: int = 2000,
) -> EigenPair:
    """Solve -Delta_p phi = lambda |phi|^{p-2} phi with Dirichlet ends.

    p = 2 uses inverse power iteration on the P1 pencil; p != 2 descends
    the p-Rayleigh quotient with a positivity projection each step.
    """
    if not math.isfinite(rng.hi):
        raise InvalidArgumentError("eigenproblem needs a bounded range")
    if grid is None:
        grid = build_grid(rng, n, "linear")
    densities = model_densities(model, p, lambda t: (1.0, 1.0))
    if p == 2.0:
        res = minimize_rayleigh_p2(grid, densities)
        lam, u, iters, conv = res.quotient, res.minimizer.values, res.iterations, res.converged
        tol = TOL_EIG_P2
    else:
        x = grid.coord
        seed = np.sin(math.pi * (x - x[0]) / (x[-1] - x[0]))
        lam, u, iters, conv, _ = descend_quotient(grid, densities, p, seed, rtol=1e-10)
        tol = TOL_EIG_GENERAL
    forms = P1Forms(grid, densities)
    u = np.abs(u)
    u = u / np.max(u)
    residual = _weak_residual(forms, u, lam, p)
    return EigenPair(
        lambda1=lam,
        phi1=GridFunction(grid, u, dirichlet_zero=True),
        residual=residual,
        model=model,
        p=p,
        converged=bool(conv and residual < tol),
        iterations=iters,
    )


def eigen_weight(pair: EigenPair):
    """The first eigenfunction as a catalog weight."""
    return weight_from_samples(
        "eigenfunction", pair.model, pair.p, pair.phi1.grid, pair.phi1.values
    )


def eigen_hardy_case(pair: EigenPair, alpha: float = 0.0) -> InequalityCase:
    if alpha >= pair.p - 1.0:
        raise InvalidArgumentError("eigenfunction Hardy needs alpha < p-1")
    return weighted_hardy_case(
        pair.model,
        eigen_weight(pair),
        alpha,
        case_id=f"eigen-hardy[{pair.model.kind}|p={pair.p:g}|alpha={alpha:g}]",
    )


def eigen_hardy_check(pair: EigenPair, p: float, alpha: float, u: GridFunction) -> SidePair:
    """Weighted Hardy sides with rho = phi1 and constant ((p-1-alpha)/p)^p."""
    if p != pair.p:
        raise InvalidArgumentError("p must match the eigenpair")
    return quotient_sides(eigen_hardy_case(pair, alpha), u)


def poincare_eigen_constant(pair: EigenPair, s: float) -> float:
    p = pair.p
    return pair.lambda1 * (p - 1.0 - s) ** (p - 1.0) / p ** p


def poincare_eigen_check(pair: EigenPair, p: float, s: float, u: GridFunction) -> SidePair:
    """lambda1 (p-1-s)^(p-1)/p^p  int phi1^s |u|^p  <=  int phi1^s |grad u|^p."""
    if p != pair.p:
        raise InvalidArgumentError("p must match the eigenpair")
    return quotient_sides(poincare_eigen_case(pair, s), u)


def poincare_eigen_case(pair: EigenPair, s: float) -> InequalityCase:
    """Case wrapper so the suite runner and minimizers can drive (dis:poinc)."""
    if not (0.0 < s < pair.p - 1.0):
        raise InvalidArgumentError("need 0 < s < p-1")
    return InequalityCase(
        kind="poincare-eigen",
        model=pair.model,
        weight=eigen_weight(pair),
        params={"p": pair.p, "s": s},
        rng=CoordinateRange(pair.phi1.grid.lo, pair.phi1.grid.hi),
        formula_constant=poincare_eigen_constant(pair, s),
        case_id=f"poincare-eigen[{pair.model.kind}|p={pair.p:g}|s={s:g}]",
    )


@dataclass
class CompositeConstant:
    value: float
    collar_gradient_min: float
    lipschitz_bound: float
    interior_min: float
    eps_split: float
    s: float


def distance_hardy_constant(
    pair: EigenPair, eps_split: float, s: float | None = None
) -> CompositeConstant:
    """Composite constant for the distance-from-boundary Hardy inequality.

    Splits the interval into a boundary collar (where the eigenfunction
    Hardy inequality controls 1/d^p through the collar gradient bound) and
    the interior (where the Poincare-type inequality does), and takes half
    the worse of the two explicit constants.  The gradient bounds are the
    cell slopes of phi1: the least over cells inside the collar, the
    largest over all cells.
    """
    p = pair.p
    if s is None:
        s = 0.5 * (p - 1.0)
    if pair.model.kind != INTERVAL:
        raise InvalidArgumentError("composite constant implemented on intervals")
    t = pair.phi1.grid.nodes
    d = np.minimum(t - pair.model.a, pair.model.b - t)
    slope = np.abs(np.diff(pair.phi1.values) / np.diff(t))
    collar = d < eps_split
    collar_cells = collar[:-1] & collar[1:]
    if not np.any(collar_cells) or not np.any(~collar):
        raise InvalidArgumentError("eps_split leaves an empty collar or interior")
    b_min = float(np.min(slope[collar_cells]))
    if b_min <= 0:
        raise CollarGradientError("eigenfunction gradient vanishes on the collar")
    lip = float(np.max(slope))
    l_eps = float(np.min(pair.phi1.values[~collar]))
    c_collar = ((p - 1.0) / p) ** p * b_min ** p / lip ** p
    c_inner = poincare_eigen_constant(pair, s) * l_eps ** s * eps_split ** p
    return CompositeConstant(
        value=0.5 * min(c_collar, c_inner),
        collar_gradient_min=b_min,
        lipschitz_bound=lip,
        interior_min=l_eps,
        eps_split=eps_split,
        s=s,
    )


def distance_hardy_case(
    pair: EigenPair, eps_split: float = 0.1, s: float | None = None
) -> InequalityCase:
    """c int |u|^p / d^p <= int |grad u|^p with the composite constant c:
    the Hardy quotient of rho = d, under a smaller constant."""
    comp = distance_hardy_constant(pair, eps_split, s)
    return InequalityCase(
        kind="distance-hardy",
        model=pair.model,
        weight=rho_catalog_entry("dist-boundary", pair.model, pair.p),
        params={"p": pair.p, "eps_split": eps_split, "s": comp.s},
        rng=CoordinateRange(pair.phi1.grid.lo, pair.phi1.grid.hi),
        formula_constant=comp.value,
        case_id=f"distance-hardy[{pair.model.kind}|p={pair.p:g}|eps={eps_split:g}]",
    )


def distance_hardy_composite(
    pair: EigenPair, p: float, eps_split: float, u: GridFunction, s: float | None = None
) -> SidePair:
    """Sides of ``distance_hardy_case``."""
    if p != pair.p:
        raise InvalidArgumentError("p must match the eigenpair")
    return quotient_sides(distance_hardy_case(pair, eps_split, s), u)
