"""Best-constant estimation by discrete Rayleigh quotient minimization.

The p = 2 path takes the P1 stiffness/mass pencil of ``forms`` (per-cell
Gauss quadrature, so the discrete minimum is the true quotient
of a piecewise-linear admissible function, sitting above the continuum
infimum and decreasing under nested refinement) to ``bottom_eigenpair``,
which brackets its smallest eigenvalue by spectrum slicing.  The general-p
path is inverse power iteration on the nonquadratic quotient, each step
solving grad E(v) = grad L(u) exactly by integrating the cell fluxes
(``solve_flux``); its quotients are upper bounds, the theorem gives the
lower bound, and the sandwich is the verification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, ToolkitError, ZeroDenominatorError
from .forms import P1Forms, TridiagFactor, apply_tridiag, interior
from .functionals import KINDS, TOL_DISC, InequalityCase, case_forms, side_pairs
from .geometry import CoordinateRange
from .grids import GridFunction, LOG, RadialGrid, build_grid
from .weights import check_weight_finite
from . import workers


BRACKET_RTOL = 1e-10  # relative width of a converged bracket [lower, quotient]
TOL_EIG_GENERAL = 1e-4  # stationarity residual of a converged general-p solve
MAX_ITER = 5000  # steps a general-p solve takes at most


@dataclass
class MinimizationResult:
    quotient: float
    minimizer: GridFunction
    iterations: int
    converged: bool
    sums: tuple  # (L, E) of the minimizer as its solve summed them; general p: L = 1
    history: list = field(default_factory=list, repr=False)
    lower: float | None = None  # p = 2: the largest shift at which K - sigma M factored
    residual: float | None = None  # general p: P1Forms.residual at the minimizer
    stop: str | None = None  # general p: "no-step" or "max_iter"


class Bracket(NamedTuple):
    lower: float
    slack: float
    vector: np.ndarray
    quotients: list
    factorizations: int


def bottom_eigenpair(k_band, m_band, floor: float = 0.0) -> Bracket:
    """Smallest eigenpair of the tridiagonal pencil K u = mu M u, bracketed
    by spectrum slicing from a floor >= 0.  K is positive definite with
    off-diagonals <= 0 and M >= 0 entrywise, as in ``P1Forms.pencil``: so
    the bottom eigenvector is nonnegative and the start u = 1 is never
    M-orthogonal to it.  Other pencils may end unconverged.

    K - sigma M factors iff sigma < mu1 (Sylvester's law of inertia), up to
    the rounding of the band's diagonal: ``slack`` = eps u^T diag(K) u for
    M-normalized u, which grows like 1/h^2.  The bracket [lower, upper]
    narrows to half of max(tol * upper, slack), tol = BRACKET_RTOL,
    ``lower`` the largest sigma that factored.  The first factorization is
    at the floor.  If it factors, lower starts there and the first inverse
    step from u = 1 is shifted by it; if not, upper starts there and the
    first step is with K, so a floor above mu1 never shows up in lower.

    A floor above 0 that factors is a shift just below mu1 (a case's
    constant), where inverse steps converge at (mu1 - floor) / (mu2 -
    floor): they stay there until the quotient settles, or until as many
    bisections would have closed the bracket.  Past that, every shift that
    factors takes one inverse step with its factor.  Each step's Rayleigh
    quotient, an upper bound, lowers upper.  Once a step has moved that
    quotient by at most a quarter of max(tol * upper, slack), the next
    shift is tried that far below upper, which closes the bracket if the
    quotient has converged; otherwise the shifts bisect.  A guided shift is
    tried only while the bracket is no wider than that of plain bisection
    from the same start after as many factorizations, so the slicing
    factors at most once more than plain bisection from [floor, first
    quotient] (from [0, min(floor, first quotient)] after a floor that did
    not factor).  Inverse steps shifted to lower, until the quotient moves
    by at most tol relative, give ``vector``, M-normalized.

    A step takes one band product.  Its solve gives (K - sigma M) v = M u,
    so K v = M u + sigma M v, and the iterate's Rayleigh quotient
    v^T K v / v^T M v is sigma + v^T (M u) / v^T (M v): ``quotients`` holds
    that value after each inverse step, and M v over the M-norm of v is
    the next step's right-hand side.  The two forms differ by rounding
    only, a few times ``slack``.

    The slicing holds at most five n-vectors beyond the pencil.  A trial
    band is built in two fresh arrays, which its factor takes over, and a
    trial that does not factor is dropped before the next is built: a
    factorization holds the kept factor, the trial and the right-hand
    side.  A step takes v^T (M u) first and then writes M v over the spent
    M u, through one scratch for the sums and the product's terms: it
    holds the factor, v, M v and the scratch.  The pencil's arrays are
    never written; K itself is factored on a copy.
    """
    tol = BRACKET_RTOL
    quotients = []

    def shifted(sigma):
        # K - sigma M, each part built in one fresh array that its factor takes over
        diag, off = np.multiply(m_band[0], sigma), np.multiply(m_band[1], sigma)
        np.subtract(k_band[0], diag, out=diag)
        np.subtract(k_band[1], off, out=off)
        return TridiagFactor(diag, off, overwrite=True)

    def step(factor, sigma, mu):
        # the M-normalized solution v of (K - sigma M) v = M u, and M v
        # written over the spent M u; one scratch takes every product
        v = factor.solve(mu)
        scratch = np.multiply(v, mu)
        vmu = float(np.sum(scratch))
        mv = apply_tridiag(*m_band, v, out=mu, scratch=scratch)
        vmv = float(np.sum(np.multiply(v, mv, out=scratch)))
        if vmv == 0.0:
            raise ZeroDenominatorError("mass norm vanished in inverse iteration")
        quotients.append(sigma + vmu / vmv)
        mnorm = math.sqrt(vmv)
        v /= mnorm
        mv /= mnorm
        return v, mv

    factor, lower, upper, factorizations = shifted(floor), floor, math.inf, 1
    if not factor.definite:
        factor, lower, upper, factorizations = TridiagFactor(*k_band), 0.0, floor, 2
    u, mu = step(factor, lower, apply_tridiag(*m_band, np.ones(k_band[0].size)))
    u *= k_band[0] * u  # the terms of u^T diag(K) u
    slack = float(np.finfo(float).eps * np.sum(u))
    u = None  # the slicing holds M u alone; the last inverse steps give the vector
    upper = min(upper, quotients[-1])
    # plain bisection from here is width / 2^(f - first) wide after f factorizations
    width, first = upper - lower, factorizations
    at_floor = lower > 0.0  # a floor that factored, where the steps stay for now
    missed = 1  # inverse steps taken when a guided shift last failed to factor
    while upper - lower > 0.5 * max(tol * upper, slack):
        target = max(tol * upper, slack)
        # settled: the last step moved the quotient by at most a quarter of
        # the target, and no guided shift has missed since
        settled = len(quotients) > missed and quotients[-2] - quotients[-1] <= 0.25 * target
        # at the floor until settled, or until bisection would have closed
        # the bracket with a factorization per step taken there
        at_floor = at_floor and not settled and width * 0.5 ** (len(quotients) - 1) > 0.5 * target
        if at_floor:
            mu = step(factor, lower, mu)[1]
            upper = min(upper, quotients[-1])
            continue
        guided = settled and upper - lower <= width * 0.5 ** (factorizations - first)
        sigma = upper - 0.25 * target if guided else 0.5 * (lower + upper)
        trial = shifted(sigma)
        factorizations += 1
        if trial.definite:
            lower, factor = sigma, trial
            mu = step(factor, sigma, mu)[1]
            upper = min(upper, quotients[-1])
        elif guided:
            upper, missed = sigma, len(quotients)
        else:
            upper = sigma
        trial = None
    for _ in range(10):  # a shift this close converges in two or three steps
        u = None  # the last iterate goes before the next one is solved
        u, mu = step(factor, lower, mu)
        if abs(quotients[-2] - quotients[-1]) <= tol * quotients[-1]:
            break
    return Bracket(lower, slack, u, quotients, factorizations)


def minimize_rayleigh_p2(forms: P1Forms, floor: float = 0.0) -> MinimizationResult:
    """Smallest discrete eigenvalue of int B (u')^2 / int A u^2 on the
    quotient forms (A, B) by ``bottom_eigenpair`` from floor: converged
    means quotient - lower <= max(BRACKET_RTOL * quotient, slack);
    ``iterations`` counts factorizations plus back-solves, ``history`` the
    inverse steps' quotients; ``sums`` are L and E of the minimizer from one
    ``integrals`` pass.
    """
    forms.check_quotient()
    grid = forms.grid
    pair = bottom_eigenpair(*map(interior, forms.pencil()), floor)
    full = np.zeros(grid.n)  # made once the pencil and the slicing's vectors are gone
    full[1:-1] = pair.vector
    [(mass, energy)] = forms.integrals(full[None], (2.0, 2.0))
    quotient = energy / mass
    return MinimizationResult(
        quotient=quotient,
        minimizer=GridFunction(grid, full),
        iterations=pair.factorizations + len(pair.quotients),
        sums=(mass, energy),
        converged=quotient - pair.lower <= max(BRACKET_RTOL * quotient, pair.slack),
        history=list(enumerate(pair.quotients, 1)),
        lower=pair.lower,
    )


def minimize_quotient_p2(case: InequalityCase, grid: RadialGrid) -> MinimizationResult:
    """Best-constant estimate for a p = 2 case by spectrum slicing from the
    floor C' (1 - TOL_DISC), C' the constant the theorem puts under the
    quotient: ``formula_constant``, or its reciprocal for a kind with
    ``constant_on_rhs``.  So ``lower`` >= C' (1 - TOL_DISC) proves the
    case's inequality on the grid's P1 space, and a constant too strong
    for the grid never shows up in ``lower``."""
    if case.p != 2.0:
        raise InvalidArgumentError("minimize_quotient_p2 needs p = 2")
    c = case.formula_constant
    if KINDS[case.kind].constant_on_rhs:  # never trivial: c > 0
        c = 1.0 / c
    return minimize_rayleigh_p2(case_forms(case, grid), c * (1.0 - TOL_DISC))


def solve_flux(forms: P1Forms, p: float, f: np.ndarray, guess: float) -> np.ndarray:
    """The v, 0 at both ends, with interior grad E(v) = f for
    E(v) = int B |v'|^p, exact in O(n).  The flux of cell e at v's slope
    s_e, phi_e = p b_e |s_e|^(p-2) s_e / h_e (``P1Forms.evaluate``'
    ``dcell``), gives grad E(v)_i = phi_(i-1) - phi_i; so phi_e = c - (f_1
    + ... + f_e), each slope follows from its flux, and the first flux c is
    the root of the increasing sum of v's rises h_e s_e, which v's ends pin
    to 0.  Newton's method from ``guess``, or from the bracket's middle if
    guess is outside it, finds c to within an ulp, bisecting where a step
    leaves the bracket or fails to halve."""
    r = 1.0 / (p - 1.0)
    coef = forms.h / (p * forms.b_cell)
    partial = np.concatenate(([0.0], np.cumsum(f[1:-1])))

    def rises(c):
        # v's rise over each cell at flux c - partial, and |rise| / |flux|
        phi = c - partial
        mag = np.abs(phi)
        rise = forms.h * (mag * coef) ** r
        return np.copysign(rise, phi), rise / np.maximum(mag, 1e-300)

    lo, hi = float(np.min(partial)), float(np.max(partial))
    c = guess if lo < guess < hi else 0.5 * (lo + hi)
    dx_old = hi - lo
    for _ in range(200):
        rise, gain = rises(c)
        end = float(np.sum(rise))
        if end < 0.0:
            lo = c
        elif end > 0.0:
            hi = c
        else:  # the root, or a non-finite sum that no c mends
            break
        slope = r * float(np.sum(gain))  # d end / dc
        step = c - end / slope if slope > 0.0 else 0.5 * (lo + hi)
        if abs(step - c) <= np.spacing(abs(c)):  # a step of an ulp at most: c is the root
            break
        if not lo < step < hi or abs(2.0 * (c - step)) > abs(dx_old):
            step = 0.5 * (lo + hi)
            if not lo < step < hi:  # the bracket is two adjacent floats
                break
        c, dx_old = step, c - step
    else:  # out of steps: the rises at the last c
        rise, gain = rises(c)
    # summed in from both ends, v puts the end-sum's rounding on the cell whose flux it moves least
    k = int(np.argmax(gain))
    v = np.zeros(f.size)
    v[1:k + 1] = np.cumsum(rise[:k])
    v[k + 1:-1] = -np.cumsum(rise[:k:-1])[::-1]
    return v


def descend_quotient(
    forms: P1Forms, p: float, u0: np.ndarray, max_iter: int = MAX_ITER
) -> MinimizationResult:
    """Inverse power iteration on E(u)/L(u), E(u) = int B |u'|^p and
    L(u) = int A |u|^p, over u >= 0 with Dirichlet ends: from u, normalized
    to L(u) = 1, the next iterate is the v with grad E(v) = grad L(u)
    (``solve_flux``), which in exact arithmetic never raises the quotient
    (Hein & Buehler, NIPS 2010).  v is taken only if its quotient is
    strictly lower, so the history is monotone; else the iteration stops
    ("no-step"), as it does after max_iter steps ("max_iter").  Each step
    is one pass over the Gauss points (``P1Forms.evaluate``), whose
    gradients give the next right-hand side.  Converged means stationary:
    the ``residual`` at the last iterate is <= TOL_EIG_GENERAL."""
    forms.check_quotient()
    u = np.abs(np.asarray(u0, dtype=float))
    u[0] = u[-1] = 0.0
    energy, L, ge, gl = forms.evaluate(u, p)
    if L <= 0:
        raise ZeroDenominatorError("seed profile has zero mass")
    q = energy / L
    u = u / L ** (1.0 / p)
    history = [(0, q)]
    it, stop = 0, "max_iter"
    for it in range(1, max_iter + 1):
        # gradients at u = w / L(w)^(1/p), of degree p - 1, from the pass
        # over w; were u an eigenfunction, v = u / q^(1/(p-1)) would carry
        # u's fluxes over q
        scale = L ** (1.0 - 1.0 / p)
        v = solve_flux(forms, p, gl / scale, guess=-ge[0] / scale / q)
        energy, Lv, ge, gl = forms.evaluate(v, p)
        if not (Lv > 0 and energy / Lv < q):
            history.append((it, q))
            stop = "no-step"
            break
        u, q, L = v / Lv ** (1.0 / p), energy / Lv, Lv
        history.append((it, q))
    residual = forms.residual(u, q, p)
    return MinimizationResult(
        quotient=q,
        minimizer=GridFunction(forms.grid, u),
        iterations=it,
        converged=residual <= TOL_EIG_GENERAL,
        sums=(1.0, q),
        history=history,
        residual=residual,
        stop=stop,
    )


def minimize_quotient_general_p(
    case: InequalityCase, grid: RadialGrid, max_iter: int = MAX_ITER
) -> MinimizationResult:
    """Inverse power iteration on the discrete quotient for any p > 1,
    seeded with the formal ground state rho^((p-1)/p), zero at both ends;
    a weight not finite at an interior node raises InvalidArgumentError
    naming it."""
    p = case.p
    check_weight_finite(case.weight, grid)
    seed = np.zeros(grid.n)
    seed[1:-1] = case.weight.rho(grid.nodes[1:-1]) ** ((p - 1.0) / p)
    return descend_quotient(case_forms(case, grid), p, seed, max_iter=max_iter)


def minimize_quotient(case: InequalityCase, grid: RadialGrid, max_iter: int = MAX_ITER):
    """minimize_quotient_p2 at p = 2, else minimize_quotient_general_p."""
    if case.p == 2.0:
        return minimize_quotient_p2(case, grid)
    return minimize_quotient_general_p(case, grid, max_iter=max_iter)


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
    k < levels, and extrapolate each quotient by ``extrapolated``.  A
    level's gap is the margin of its minimizer, from the sums its solve
    made.  The levels share nothing but the case, so they run on every
    usable CPU, like the runner's cases (``workers.run_shared``, a level's
    cost its node count): the largest level runs first, in this process,
    and the results do not depend on the number of CPUs."""
    grids = [build_grid(CoordinateRange(10.0 ** (-2 - k), 10.0 ** (2 + k)), n0 * 2 ** k, LOG)
             for k in range(levels)]

    def solve(k):
        try:
            res = minimize_quotient(case, grids[k])
        except ToolkitError as exc:
            return exc
        res.minimizer.grid = None  # a worker sends no copy of a grid this process holds
        return res

    results = workers.run_shared(solve, [g.n for g in grids], range(levels), "level")
    for grid, res in zip(grids, results):
        res.minimizer.grid = grid
    return StudyResult(
        grids=grids,
        results=results,
        quotients=[res.quotient for res in results],
        gaps=[pair.margin for pair in side_pairs(case, [res.sums for res in results])],
        extrapolated=[extrapolated(case, res.quotient, g) for g, res in zip(grids, results)],
    )
