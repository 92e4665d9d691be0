"""Best-constant estimation by discrete Rayleigh quotient minimization.

The p = 2 path takes the P1 stiffness/mass pencil of ``forms`` (per-cell
Gauss quadrature, so the discrete minimum is the true quotient
of a piecewise-linear admissible function, sitting above the continuum
infimum and decreasing under nested refinement) to ``bottom_eigenpair``,
which brackets its smallest eigenvalue by spectrum slicing.  The general-p
path descends the nonquadratic quotient along the bottom eigenvector of
the pencil linearized at the iterate, or a preconditioned gradient, with
Armijo backtracking; descent gives upper bounds, the theorem gives the
lower bound, and the sandwich is the verification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, ZeroDenominatorError
from .forms import P1Forms, TridiagFactor, apply_tridiag, interior
from . import functionals  # sides_for looked up on the module, where wrappers see it
from .functionals import InequalityCase, assembled, case_forms
from .geometry import CoordinateRange
from .grids import GridFunction, LOG, RadialGrid, build_grid


BRACKET_RTOL = 1e-10  # relative width of a converged bracket [lower, quotient]
TOL_EIG_GENERAL = 1e-4  # stationarity residual of a converged general-p descent
MAX_ITER = 5000  # steps a general-p descent takes at most


@dataclass
class MinimizationResult:
    quotient: float
    minimizer: GridFunction
    iterations: int
    converged: bool
    history: list = field(default_factory=list, repr=False)
    lower: float | None = None  # p = 2: the largest shift at which K - sigma M factored
    residual: float | None = None  # descent: P1Forms.residual at the minimizer
    stop: str | None = None  # descent: "no-step" or "max_iter"


class Bracket(NamedTuple):
    lower: float
    slack: float
    vector: np.ndarray
    quotients: list
    factorizations: int


def bottom_eigenpair(k_band, m_band) -> Bracket:
    """Smallest eigenpair of the tridiagonal pencil K u = mu M u, bracketed
    by spectrum slicing.  K is positive definite with off-diagonals <= 0
    and M >= 0 entrywise, as in every ``P1Forms.pencil``: so the bottom
    eigenvector is nonnegative and the start u = 1 is never M-orthogonal
    to it.  Other pencils may end unconverged.

    K - sigma M factors iff sigma < mu1 (Sylvester's law of inertia), up to
    the rounding of the band's diagonal: ``slack`` = eps u^T diag(K) u for
    M-normalized u, which grows like 1/h^2.  The bracket [lower, upper]
    starts from one inverse step with K and narrows to half of
    max(tol * upper, slack), tol = BRACKET_RTOL, ``lower`` the largest
    sigma that factored.  Every shift that factors takes one more inverse
    step with its factor, and the step's Rayleigh quotient, an upper
    bound, lowers ``upper``.  Once a step has moved that quotient by at
    most a quarter of max(tol * upper, slack), the next shift is tried that
    far below ``upper``, which closes the bracket if the quotient has
    converged; otherwise the shifts bisect.  A guided shift is tried only
    while the bracket is no wider than plain bisection's after as many
    factorizations, so the slicing factors at most once more than plain
    bisection.  Inverse steps shifted to lower, until the quotient moves
    by at most tol relative, give ``vector``, M-normalized; ``quotients``
    holds u^T K u after each inverse step.
    """
    tol = BRACKET_RTOL
    quotients = []

    def step(factor, u):
        # the M-normalized solution v of (K - sigma M) v = M u
        v = factor.solve(apply_tridiag(*m_band, u))
        mnorm = math.sqrt(float(np.sum(v * apply_tridiag(*m_band, v))))
        if mnorm == 0.0:
            raise ZeroDenominatorError("mass norm vanished in inverse iteration")
        v = v / mnorm
        quotients.append(float(np.sum(v * apply_tridiag(*k_band, v))))
        return v

    factor = TridiagFactor(*k_band)
    u = step(factor, np.ones(k_band[0].size))
    slack = float(np.finfo(float).eps * np.sum(u * (k_band[0] * u)))
    lower, upper, factorizations = 0.0, quotients[-1], 1
    missed = 1  # inverse steps taken when a guided shift last failed to factor
    while upper - lower > 0.5 * max(tol * upper, slack):
        target = max(tol * upper, slack)
        # guided: the last step settled the quotient, no guided shift has
        # missed since, and plain bisection, whose bracket after f
        # factorizations is quotients[0] / 2^(f - 1) wide, is not ahead
        guided = (
            len(quotients) > missed
            and quotients[-2] - quotients[-1] <= 0.25 * target
            and upper - lower <= quotients[0] * 0.5 ** (factorizations - 1)
        )
        sigma = upper - 0.25 * target if guided else 0.5 * (lower + upper)
        trial = TridiagFactor(k_band[0] - sigma * m_band[0], k_band[1] - sigma * m_band[1])
        factorizations += 1
        if trial.definite:
            lower, factor = sigma, trial
            u = step(factor, u)
            upper = min(upper, quotients[-1])
        elif guided:
            upper, missed = sigma, len(quotients)
        else:
            upper = sigma
    for _ in range(10):  # a shift this close converges in two or three steps
        u = step(factor, u)
        if abs(quotients[-2] - quotients[-1]) <= tol * quotients[-1]:
            break
    return Bracket(lower, slack, u, quotients, factorizations)


def minimize_rayleigh_p2(forms: P1Forms) -> MinimizationResult:
    """Smallest discrete eigenvalue of int B (u')^2 / int A u^2 on the
    quotient forms (A, B) by ``bottom_eigenpair``: converged means quotient -
    lower <= max(BRACKET_RTOL * quotient, slack); ``iterations`` counts
    factorizations plus back-solves, ``history`` the inverse steps' quotients.
    """
    forms.check_quotient()
    grid = forms.grid
    full = np.zeros(grid.n)
    pair = bottom_eigenpair(*map(interior, forms.pencil(full, 2.0)))
    full[1:-1] = pair.vector
    mass, energy = forms.integrals(full, (2.0, 2.0))
    quotient = energy / mass
    return MinimizationResult(
        quotient=quotient,
        minimizer=GridFunction(grid, full),
        iterations=pair.factorizations + len(pair.quotients),
        converged=quotient - pair.lower <= max(BRACKET_RTOL * quotient, pair.slack),
        history=list(enumerate(pair.quotients, 1)),
        lower=pair.lower,
    )


def minimize_quotient_p2(case: InequalityCase, grid: RadialGrid) -> MinimizationResult:
    """Best-constant estimate for a p = 2 case by spectrum slicing."""
    if case.p != 2.0:
        raise InvalidArgumentError("minimize_quotient_p2 needs p = 2")
    return minimize_rayleigh_p2(case_forms(case, grid))


def descend_quotient(
    forms: P1Forms,
    p: float,
    u0: np.ndarray,
    max_iter: int = MAX_ITER,
) -> MinimizationResult:
    """Preconditioned projected gradient descent on R(u)/L(u) over
    nonnegative u with Dirichlet ends, with Armijo backtracking; only strict
    decreases are accepted, so the recorded history is monotone.  It stops
    when no direction lowers the quotient, or after max_iter steps, and
    ``stop`` says which ("no-step" or "max_iter").
    Converged means stationary: the ``residual`` of the quotient at the
    last iterate is <= TOL_EIG_GENERAL."""
    forms.check_quotient()
    grid = forms.grid

    # p = 2 stiffness in the same rhs density, used as descent metric
    (pk_diag, pk_off), _ = forms.pencil(np.zeros(grid.n), 2.0)
    pk_diag += 1e-12 * np.max(pk_diag)
    metric = TridiagFactor(*interior((pk_diag, pk_off)))

    def project(u):
        u = np.abs(u)
        u[0] = u[-1] = 0.0
        return u

    u = project(np.asarray(u0, dtype=float))
    energy, L, gauss = forms.evaluate(u, p)
    if L <= 0:
        raise ZeroDenominatorError("seed profile has zero mass")
    q = energy / L
    u = u / L ** (1.0 / p)
    history = [(0, q)]
    grad_step = 1.0
    eig_step = 1.0
    eig_sleep = 0  # iterations left before retrying the eigenvector direction
    it, stop = 0, "max_iter"

    def try_direction(u, q, d, t0):
        # (u, q) normalized to mass 1, the trial's mass and Gauss data, step
        t = t0
        for _ in range(60):
            trial = project(u + t * d)
            energy, Lt, gauss = forms.evaluate(trial, p)
            if Lt > 0 and energy / Lt < q:
                return trial / Lt ** (1.0 / p), energy / Lt, Lt, gauss, t
            if np.array_equal(trial, u):  # t d is below an ulp of u, as is every smaller step
                break
            t *= 0.5
        return None

    for it in range(1, max_iter + 1):
        accepted = None
        # primary direction: bottom eigenvector of the quotient linearized
        # at u (reweighted p = 2 pencil; positive, as K - sigma M is a
        # Stieltjes matrix); skipped for a stretch while it stops paying off
        if eig_sleep == 0:
            try:
                v = np.zeros_like(u)
                v[1:-1] = bottom_eigenpair(*map(interior, forms.pencil(u, p))).vector
                vmass = forms.evaluate(v, p)[1]
            except ZeroDenominatorError:
                vmass = 0.0
            if vmass > 0:
                v = v / vmass ** (1.0 / p)
                accepted = try_direction(u, q, v - u, min(2.0 * eig_step, 1.0))
            if accepted is not None:
                eig_step = accepted[-1]
                if eig_step < 1e-3:
                    eig_sleep = 25
            else:
                eig_sleep = 25
        else:
            eig_sleep -= 1
        if accepted is None:
            # fallback: preconditioned quotient gradient with Armijo; at the
            # iterate u = trial / L^(1/p) it is (grad E - q grad L)(trial) / L^(1-1/p)
            ge, gl = forms.gradients(gauss, p)
            grad = (ge - q * gl) * L ** (1.0 / p - 1.0)
            d = np.zeros_like(grad)
            d[1:-1] = metric.solve(grad[1:-1])
            accepted = try_direction(u, q, -d, grad_step)
            if accepted is not None:
                grad_step = min(accepted[-1] * 1.5, 1e3)
        if accepted is None:
            history.append((it, q))
            stop = "no-step"
            break
        u, q, L, gauss, _ = accepted
        history.append((it, q))
    residual = forms.residual(u, q, p)
    return MinimizationResult(
        quotient=q,
        minimizer=GridFunction(grid, u),
        iterations=it,
        converged=residual <= TOL_EIG_GENERAL,
        history=history,
        residual=residual,
        stop=stop,
    )


def minimize_quotient_general_p(
    case: InequalityCase, grid: RadialGrid, max_iter: int = MAX_ITER
) -> MinimizationResult:
    """Normalized descent on the discrete quotient for any p > 1, seeded
    with the formal ground state rho^((p-1)/p), zero at both ends."""
    p = case.p
    seed = case.weight.rho(grid.nodes) ** ((p - 1.0) / p)
    return descend_quotient(case_forms(case, grid), p, seed, max_iter=max_iter)


@dataclass
class StudyResult:
    grids: list
    results: list
    quotients: list
    gaps: list
    extrapolated: list


def extrapolated(case: InequalityCase, quotient: float, grid: RadialGrid) -> float:
    """The quotient less the (pi/ln(hi/lo))^2 correction the p = 2
    log-substitution oracle predicts; the quotient itself when the oracle
    does not apply."""
    if case.oracle_shift > 0:
        return quotient - case.oracle_shift * (math.pi / math.log(grid.hi / grid.lo)) ** 2
    return quotient


def convergence_study(case: InequalityCase, levels: int = 3, n0: int = 1000) -> StudyResult:
    """Minimize on the widening ranges (1e-2-k, 1e2+k) with n0 2^k nodes,
    k < levels, and extrapolate each quotient by ``extrapolated``."""
    grids, results, quotients, gaps, extrapolations = [], [], [], [], []
    for k in range(levels):
        rng = CoordinateRange(10.0 ** (-2 - k), 10.0 ** (2 + k))
        grid = build_grid(rng, n0 * 2 ** k, LOG)
        with assembled(case, grid):
            if case.p != 2.0:
                res = minimize_quotient_general_p(case, grid)
            else:
                res = minimize_quotient_p2(case, grid)
            gaps.append(functionals.sides_for(case, res.minimizer).margin)
        grids.append(grid)
        results.append(res)
        quotients.append(res.quotient)
        extrapolations.append(extrapolated(case, res.quotient, grid))
    return StudyResult(
        grids=grids,
        results=results,
        quotients=quotients,
        gaps=gaps,
        extrapolated=extrapolations,
    )
