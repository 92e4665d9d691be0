"""Best-constant estimation by discrete Rayleigh quotient minimization.

The p = 2 path takes the P1 stiffness/mass pencil of ``forms`` (per-cell
Gauss quadrature, so the discrete minimum is the true quotient
of a piecewise-linear admissible function, sitting above the continuum
infimum and decreasing under nested refinement) and runs inverse power
iteration on the tridiagonal pencil.  The general-p path descends the
nonquadratic quotient with a preconditioned gradient and Armijo
backtracking; descent gives upper bounds, the theorem gives the lower
bound, and the sandwich is the verification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ZeroDenominatorError
from .forms import P1Forms, apply_tridiag, dirichlet_slice, model_densities, restrict
from .forms import solve_tridiag_spd
from . import functionals  # sides_for looked up on the module, where wrappers see it
from .functionals import InequalityCase, assembled, case_forms
from .geometry import CoordinateRange, ModelManifold
from .grids import GridFunction, LOG, RadialGrid, build_grid


@dataclass
class MinimizationResult:
    quotient: float
    minimizer: GridFunction
    iterations: int
    converged: bool
    history: list = field(default_factory=list, repr=False)


def smallest_eigenpair(
    k_forms, m_forms, tol: float = 1e-12, max_iter: int = 10000
):
    """Inverse power iteration with shift 0 on the tridiagonal pencil
    K u = mu M u.  Returns (mu, u, iterations, converged, history)."""
    k_diag, k_off = k_forms
    m_diag, m_off = m_forms
    n = k_diag.size
    u = np.ones(n)
    mu_prev = math.inf
    history = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        rhs = apply_tridiag(m_diag, m_off, u)
        u = solve_tridiag_spd(k_diag, k_off, rhs)
        mnorm = math.sqrt(float(u @ apply_tridiag(m_diag, m_off, u)))
        if mnorm == 0.0:
            raise ZeroDenominatorError("mass norm vanished in inverse iteration")
        u = u / mnorm
        mu = float(u @ apply_tridiag(k_diag, k_off, u))
        history.append((it, mu))
        if abs(mu - mu_prev) <= tol * max(abs(mu), 1.0):
            converged = True
            break
        mu_prev = mu
    return mu, u, it, converged, history


def minimize_rayleigh_p2(forms: P1Forms, dirichlet: tuple = (True, True)) -> MinimizationResult:
    """Smallest discrete eigenvalue of int B (u')^2 / int A u^2 on the
    quotient forms (A, B)."""
    forms.check_quotient()
    grid = forms.grid
    k_band, m_band = forms.pencil(np.zeros(grid.n), 2.0)
    keep = dirichlet_slice(grid.n, dirichlet)
    mu, vec, iters, conv, hist = smallest_eigenpair(
        restrict(k_band, keep), restrict(m_band, keep)
    )
    full = np.zeros(grid.n)
    full[keep] = vec
    if np.sum(full) < 0:
        full = -full
    return MinimizationResult(
        quotient=mu,
        minimizer=GridFunction(grid, full, dirichlet_zero=dirichlet == (True, True)),
        iterations=iters,
        converged=conv,
        history=hist,
    )


def minimize_quotient_p2(case: InequalityCase, grid: RadialGrid) -> MinimizationResult:
    """Best-constant estimate for a p = 2 case by inverse power iteration."""
    if case.p != 2.0:
        raise InvalidArgumentError("minimize_quotient_p2 needs p = 2")
    return minimize_rayleigh_p2(case_forms(case, grid, case.p))


def default_seed_profile(case: InequalityCase, grid: RadialGrid) -> GridFunction:
    """rho^((p-1)/p), capped and cut off near the truncated endpoints.

    The uncapped profile is the formal minimizer when it lies in the energy
    space; capping and cutting keep it admissible on the truncated range.
    """
    p = case.p
    vals = case.weight.rho(grid.nodes) ** ((p - 1.0) / p)
    cap = np.quantile(vals, 0.95)
    vals = np.minimum(vals, cap)
    c = grid.coord
    edge = 0.08 * (c[-1] - c[0])
    ramp_lo = np.clip((c - c[0]) / edge, 0.0, 1.0)
    ramp_hi = np.clip((c[-1] - c) / edge, 0.0, 1.0)
    vals = vals * ramp_lo * ramp_hi
    vals[0] = vals[-1] = 0.0
    return GridFunction(grid, vals, dirichlet_zero=True)


def descend_quotient(
    forms: P1Forms,
    p: float,
    u0: np.ndarray,
    rtol: float = 1e-8,
    max_iter: int = 100000,
) -> MinimizationResult:
    """Preconditioned projected gradient descent on R(u)/L(u) over
    nonnegative u with Dirichlet ends, with Armijo backtracking; only strict
    decreases are accepted, so the recorded history is monotone.  Converged
    means the quotient moved by at most rtol, relative, over the last 50
    steps, or no step was accepted."""
    forms.check_quotient()
    grid = forms.grid
    keep = dirichlet_slice(grid.n, (True, True))
    mask = np.zeros(grid.n, dtype=bool)
    mask[keep] = True

    # p = 2 stiffness in the same rhs density, used as descent metric
    (pk_diag, pk_off), _ = forms.pencil(np.zeros(grid.n), 2.0)
    pk_diag += 1e-12 * np.max(pk_diag)
    metric = restrict((pk_diag, pk_off), keep)

    def project(u):
        return np.abs(np.where(mask, u, 0.0))

    u = project(np.asarray(u0, dtype=float))
    L = forms.mass(u, p)
    if L <= 0:
        raise ZeroDenominatorError("seed profile has zero mass")
    u = u / L ** (1.0 / p)
    q = forms.energy(u, p) / forms.mass(u, p)
    history = [(0, q)]
    grad_step = 1.0
    eig_step = 1.0
    eig_sleep = 0  # iterations left before retrying the eigenvector direction
    converged = False
    it = 0

    def try_direction(u, q, d, t0):
        t = t0
        for _ in range(60):
            trial = project(u + t * d)
            Lt = forms.mass(trial, p)
            if Lt > 0:
                qt = forms.energy(trial, p) / Lt
                if qt < q:
                    return trial / Lt ** (1.0 / p), qt, t
            t *= 0.5
        return None

    for it in range(1, max_iter + 1):
        accepted = None
        # primary direction: bottom eigenvector of the quotient linearized
        # at u (reweighted p = 2 pencil, solved by inverse power iteration);
        # skipped for a stretch while it stops paying off
        if eig_sleep == 0:
            k_band, m_band = forms.pencil(u, p)
            try:
                _, vk, _, _, _ = smallest_eigenpair(
                    restrict(k_band, keep), restrict(m_band, keep), tol=1e-10, max_iter=40
                )
                v = np.zeros_like(u)
                v[keep] = vk if np.sum(vk) >= 0 else -vk
                vmass = forms.mass(v, p)
            except ZeroDenominatorError:
                vmass = 0.0
            if vmass > 0:
                v = v / vmass ** (1.0 / p)
                accepted = try_direction(u, q, v - u, min(2.0 * eig_step, 1.0))
            if accepted is not None:
                eig_step = accepted[2]
                if eig_step < 1e-3:
                    eig_sleep = 25
            else:
                eig_sleep = 25
        else:
            eig_sleep -= 1
        if accepted is None:
            # fallback: preconditioned quotient gradient with Armijo
            L = forms.mass(u, p)
            grad = (forms.energy_grad(u, p) - q * forms.mass_grad(u, p)) / L
            grad = np.where(mask, grad, 0.0)
            d = np.zeros_like(grad)
            d[keep] = solve_tridiag_spd(*metric, grad[keep])
            accepted = try_direction(u, q, -d, grad_step)
            if accepted is not None:
                grad_step = min(accepted[2] * 1.5, 1e3)
        if accepted is None:
            converged = True
            history.append((it, q))
            break
        u, q, _ = accepted
        history.append((it, q))
        if it > 50 and abs(history[-51][1] - q) <= rtol * abs(q):
            converged = True
            break
    return MinimizationResult(
        quotient=q,
        minimizer=GridFunction(grid, u, dirichlet_zero=True),
        iterations=it,
        converged=converged,
        history=history,
    )


def minimize_quotient_general_p(
    case: InequalityCase,
    grid: RadialGrid,
    u0: GridFunction | None = None,
    rtol: float = 1e-8,
    max_iter: int = 100000,
) -> MinimizationResult:
    """Normalized descent on the discrete quotient for any p > 1."""
    if u0 is None:
        u0 = default_seed_profile(case, grid)
    forms = case_forms(case, grid, case.p)
    return descend_quotient(forms, case.p, u0.values, rtol=rtol, max_iter=max_iter)


def estimate_lambda1(
    model: ModelManifold,
    weight,
    rng: CoordinateRange,
    n: int = 2000,
    spacing: str = LOG,
) -> float:
    """Smallest eigenvalue of int rho |grad u|^2 / int rho u^2.

    Endpoints flagged open in the range (excised singularities) get natural
    boundary conditions; true boundary endpoints get Dirichlet conditions,
    matching the compact-support class defining the remainder constant.
    """
    grid = build_grid(rng, n, spacing if rng.lo > 0 else "linear")
    forms = P1Forms(grid, model_densities(model, 2.0, lambda t: (weight.rho(t),) * 2))
    dirichlet = (not rng.open_lo, not rng.open_hi)
    return minimize_rayleigh_p2(forms, dirichlet=dirichlet).quotient


@dataclass
class StudyResult:
    grids: list
    results: list
    quotients: list
    gaps: list
    extrapolated: list


def default_truncation_schedule(
    levels: int = 3, n0: int = 1000
) -> list[tuple[CoordinateRange, int]]:
    """(eps, R) = (1e-2-k, 1e2+k) with n doubling per level."""
    out = []
    for k in range(levels):
        rng = CoordinateRange(
            10.0 ** (-2 - k), 10.0 ** (2 + k), open_lo=True, open_hi=True
        )
        out.append((rng, n0 * 2 ** k))
    return out


def convergence_study(
    case: InequalityCase,
    schedule: list | None = None,
    levels: int = 3,
    n0: int = 1000,
) -> StudyResult:
    """Minimize across a widening/refining schedule and extrapolate.

    Richardson-style extrapolation subtracts the oracle-predicted
    (pi/ln(R/eps))^2 correction when the p = 2 log-substitution oracle
    applies to the case; otherwise raw quotients are reported.
    """
    if schedule is None:
        schedule = default_truncation_schedule(levels, n0)
    grids, results, quotients, gaps, extrapolated = [], [], [], [], []
    for rng, n in schedule:
        grid = build_grid(rng, n, LOG if rng.lo > 0 else "linear")
        with assembled(case, grid, case.p):
            if case.p != 2.0:
                res = minimize_quotient_general_p(case, grid)
            else:
                res = minimize_quotient_p2(case, grid)
            gaps.append(functionals.sides_for(case, res.minimizer).margin)
        grids.append(grid)
        results.append(res)
        quotients.append(res.quotient)
        if case.oracle_shift > 0:
            L = math.log(grid.hi / grid.lo)
            extrapolated.append(res.quotient - case.oracle_shift * (math.pi / L) ** 2)
        else:
            extrapolated.append(res.quotient)
    return StudyResult(
        grids=grids,
        results=results,
        quotients=quotients,
        gaps=gaps,
        extrapolated=extrapolated,
    )
