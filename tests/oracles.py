"""Independent numerical oracles and reference code for the tests.

The oracles deliberately avoid the package's own discretizations: the
eigenvalue oracle integrates the 1D p-Laplacian ODE by shooting, the
quadrature helpers use closed antiderivatives, the weak sign check is
redone one hat at a time with adaptive quadrature, and the smallest
eigenvalue of a tridiagonal pencil comes from LAPACK's dense
symmetric-definite solver.  The band kernels of ``phardy.forms`` that
write into buffers they are given have references here that allocate
their results: the band product, and LAPACK's public dpttrf on copies
of the band.
The capacity oracle minimizes the P1 p-energy of ``phardy.forms``
directly, so it checks the closed-form capacity without using the closed
form.

The rest is reference code that only tests run, built on the package's
public API: the weights of known sign the sign checker is scored
against, the two-sided sign classification, the chain-rule check, the
dyadic refinement of a grid, the first eigenvalue of a weighted
quotient with a natural end (the package's solves are Dirichlet at both),
the factorization count of plain bisection on a tridiagonal pencil, and
the margin sweep one function at a time: test functions (bumps and
tents) drawn by ``rng.uniform`` and evaluated on the whole grid, and the
side integrals of one row summed block by block.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh, lapack

from phardy.errors import NonFiniteIntegrandError, ZeroDenominatorError
from phardy.forms import (
    _CELL_BLOCK,
    P1Forms,
    TridiagFactor,
    model_densities,
)
from phardy.geometry import CoordinateRange, ModelManifold, euclidean_radial, interval
from phardy.grids import LOG, GridFunction, RadialGrid, build_grid, cell_gauss
from phardy.optimize import BRACKET_RTOL, bottom_eigenpair
from phardy.weights import WeightSpec, rho_catalog_entry, weak_superharmonicity_check


def plaplace_lambda1_shooting(p: float, length: float) -> float:
    """First Dirichlet eigenvalue of -(|u'|^(p-2) u')' = lam |u|^(p-2) u
    on (0, length), by shooting with the flux variable v = |u'|^(p-2) u'.

    Integrates once with lam = 1 from u(0) = 0, u'(0) = 1 until u returns
    to zero at X1; scaling gives lam1 = (X1/length)^p.
    """

    def rhs(x, y):
        u, v = y
        du = np.sign(v) * abs(v) ** (1.0 / (p - 1.0))
        dv = -np.sign(u) * abs(u) ** (p - 1.0)
        return [du, dv]

    def hit_zero(x, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    x0 = 1e-10
    sol = solve_ivp(
        rhs,
        (x0, 50.0),
        [x0, 1.0],
        events=hit_zero,
        rtol=1e-11,
        atol=1e-13,
        dense_output=False,
        max_step=0.05,
    )
    if not sol.t_events[0].size:
        raise RuntimeError("shooting never returned to zero")
    x1 = float(sol.t_events[0][0])
    return (x1 / length) ** p


def plaplace_lambda1_closed_form(p: float, length: float) -> float:
    """(p-1) (pi_p / L)^p with pi_p = 2 pi / (p sin(pi/p))."""
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


def euclidean_annulus_capacity(n_dim: int, p: float, a: float, b: float) -> float:
    """cap = (int_a^b (sigma t^(N-1))^(-1/(p-1)) dt)^(1-p), done analytically."""
    sigma = 2.0 * math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0)
    expo = -(n_dim - 1.0) / (p - 1.0)
    if abs(expo + 1.0) < 1e-14:
        integral = math.log(b / a)
    else:
        integral = (b ** (expo + 1.0) - a ** (expo + 1.0)) / (expo + 1.0)
    return (sigma ** (-1.0 / (p - 1.0)) * integral) ** (1.0 - p)


def dense(band) -> np.ndarray:
    """The dense matrix of a symmetric tridiagonal band (diag, off)."""
    diag, off = band
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def band_product(diag, off, x) -> np.ndarray:
    """The product of the symmetric tridiagonal band (diag, off) with x,
    in arrays allocated afresh."""
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def copied_factor(diag, off):
    """LDL^T of the band (diag, off) by the public dpttrf, which factors
    copies: (d, e, definite, solve).  A 1 x 1 band, which the LAPACK
    wrappers reject, is its own pivot."""
    if diag.size == 1:
        d, e, info = diag.copy(), off.copy(), int(diag[0] <= 0)
    else:
        d, e, info = lapack.dpttrf(diag, off)

    def solve(rhs):
        return rhs / d if d.size == 1 else lapack.dpttrs(d, e, rhs)[0]

    return d, e, info == 0, solve


def dense_lambda1(k_band, m_band) -> float:
    """Smallest eigenvalue of the pencil K u = lambda M u, by the dense
    symmetric-definite eigensolver."""
    return float(eigh(dense(k_band), dense(m_band), subset_by_index=[0, 0], eigvals_only=True)[0])


def bisection_factorizations(k_band, m_band, floor: float = 0.0) -> int:
    """Factorizations that plain bisection on whether K - sigma M factors
    takes to the bracket of ``optimize.bottom_eigenpair`` from floor: the
    same start, the same slack and the same stop rule, every further
    shift the midpoint of [lower, upper].  The start is one inverse step
    from u = 1, shifted to the floor when K - floor M factors, with the
    bracket [floor, quotient]; else unshifted with K, after the failed
    factorization, with the bracket [0, min(floor, quotient)].  As the
    reference, it takes that step's quotient by the direct formula v^T K v
    for the M-normalized v, not by the solver's sigma + v^T (M u) /
    v^T (M v)."""
    def shifted(sigma):
        return TridiagFactor(k_band[0] - sigma * m_band[0], k_band[1] - sigma * m_band[1])

    factor, lower, count = shifted(floor), floor, 1
    if not factor.definite:
        factor, lower, count = TridiagFactor(*k_band), 0.0, 2
    v = factor.solve(band_product(*m_band, np.ones(k_band[0].size)))
    v = v / math.sqrt(float(np.sum(v * band_product(*m_band, v))))
    upper = float(np.sum(v * band_product(*k_band, v)))
    if count == 2:
        upper = min(upper, floor)
    slack = float(np.finfo(float).eps * np.sum(v * (k_band[0] * v)))
    while upper - lower > 0.5 * max(BRACKET_RTOL * upper, slack):
        sigma = 0.5 * (lower + upper)
        count += 1
        if shifted(sigma).definite:
            lower = sigma
        else:
            upper = sigma
    return count


def capacity_by_minimization(
    model, p: float, a: float, b: float, n: int = 4000
) -> float:
    """Direct minimization oracle for the condenser energy.

    Minimizes the convex discrete P1 p-energy with boundary values
    u(a) = 1, u(b) = 0 by damped Newton steps on the interior values;
    validates the closed form without using it.  The Newton Hessian is
    its own: the tridiagonal second derivative p (p-1) b_e / h_e^2
    |s_e|^(p-2) of each cell's energy, the slope |s_e| floored at 1e-12
    of the largest.
    """
    grid = build_grid(CoordinateRange(a, b), n, LOG)
    forms = P1Forms(grid, lambda t: (np.zeros_like(t), np.exp(model.log_volume_density(t))))
    u = np.interp(np.log(grid.nodes), [math.log(a), math.log(b)], [1.0, 0.0])
    u[0], u[-1] = 1.0, 0.0
    inner = slice(1, n - 1)
    e = forms.evaluate(u, p)[0]
    for _ in range(200):
        slope = np.abs(forms.slopes(u))
        slope = np.maximum(slope, 1e-12 * np.max(slope))
        bw = p * (p - 1.0) * forms.b_cell / forms.h ** 2 * slope ** (p - 2.0)
        hessian = TridiagFactor(bw[:-1] + bw[1:], -bw[1:-1])
        step = np.zeros(n)
        step[inner] = hessian.solve(forms.evaluate(u, p)[2][inner])
        t = 1.0
        for _ in range(50):
            trial = u - t * step
            et = forms.evaluate(trial, p)[0]
            if et < e:
                u, e_prev, e = trial, e, et
                break
            t *= 0.5
        else:
            break
        if abs(e_prev - e) <= 1e-14 * e:
            break
    return e


def weight_flux(w: WeightSpec):
    """The flux s g^p |rho'|^(p-2) rho' of the weak functional, with the
    model's density s g^p in closed form; t a float or an array."""
    m, p = w.model, w.p
    sigma = 2.0 * math.pi ** (m.dim / 2.0) / math.gamma(m.dim / 2.0) if m.dim else 0.0
    density = {
        "euclidean": lambda t: sigma * t ** (m.dim - 1),
        "hyperbolic": lambda t: sigma * np.sinh(t) ** (m.dim - 1),
        "half_plane": lambda t: t ** (p - 2.0),
        "interval": lambda t: 1.0,
    }[m.kind]

    def flux(t):
        slope = w.rho_prime(t)
        return density(t) * np.sign(slope) * np.abs(slope) ** (p - 1.0)

    return flux


def weak_check_hat_loop(w: WeightSpec, grid: RadialGrid):
    """Reference weak sign check: one hat at a time, from integrals of
    ``weight_flux`` by ``scipy.integrate.quad`` on the hat's two cells.

    Hat i has slope 1/h on its left cell and -1/h on its right one; its
    weak integral and that of the absolute integrand (the normalizer of
    ``phardy.weights.weak_superharmonicity_check``) are returned, for
    sign = +1, as two lists over the interior nodes.
    """
    flux = weight_flux(w)

    def mean(f, a, b):
        return quad(f, a, b, epsabs=0.0, epsrel=1e-13)[0] / (b - a)

    cells = list(zip(grid.nodes[:-1], grid.nodes[1:]))
    f = [mean(flux, a, b) for a, b in cells]
    g = [mean(lambda t: abs(flux(t)), a, b) for a, b in cells]
    raw, norm = [], []
    for i in range(1, grid.n - 1):  # hat i: cells i - 1 and i
        raw.append(f[i - 1] - f[i])
        norm.append(g[i - 1] + g[i])
    return raw, norm


def cell_gauss_integrate(nodes: np.ndarray, fn) -> float:
    """High-order quadrature of a callable over the span of a node set."""
    pts, wts = cell_gauss(nodes)
    return float(np.sum(wts * fn(pts)))


def scaled(w: WeightSpec, lam: float) -> WeightSpec:
    """The weight lam * rho (same sign structure, scaled functional)."""
    return dataclasses.replace(
        w,
        name=f"{lam}*{w.name}",
        rho=lambda t, f=w.rho: lam * f(t),
        rho_prime=lambda t, f=w.rho_prime: lam * f(t),
        params=dict(w.params),
    )


def classify_weight_sign(w: WeightSpec, grid: RadialGrid) -> str:
    """Classify a weight as superharmonic / subharmonic / harmonic /
    indefinite from the two one-sided weak checks."""
    sup = weak_superharmonicity_check(w, grid, sign=+1).passed
    sub = weak_superharmonicity_check(w, grid, sign=-1).passed
    if sup or sub:
        return "harmonic" if sup and sub else "superharmonic" if sup else "subharmonic"
    return "indefinite"


def chain_rule_identity_check(w: WeightSpec, gamma: float, grid: RadialGrid) -> float:
    """Relative quadrature error in
    integral |grad rho^gamma|^p = gamma^p integral rho^(p(gamma-1)) |grad rho|^p.

    The left side is the P1 energy of the interpolant of rho^gamma, the
    right side the closed form integrated per cell with Gauss quadrature,
    so the error is that of P1 interpolation, O(n^-2).
    """
    p = w.p
    densities = model_densities(w.model, p, lambda t: (0.0, 1.0))
    lhs = P1Forms(grid, densities).evaluate(w.rho(grid.nodes) ** gamma, p)[0]
    rhs = abs(gamma) ** p * cell_gauss_integrate(
        grid.nodes,
        lambda t: w.rho(t) ** (p * (gamma - 1.0)) * np.abs(w.rho_prime(t)) ** p * densities(t)[1],
    )
    if rhs < 1e-300:
        # constant weights: both sides vanish
        if lhs < 1e-12:
            return 0.0
        raise ZeroDenominatorError("chain-rule reference integral vanished")
    return abs(lhs - rhs) / rhs


@dataclasses.dataclass
class SignedCatalogEntry:
    """Weight with a known analytic sign, for checker validation."""

    weight: WeightSpec
    grid: RadialGrid
    expected: str  # "superharmonic" | "subharmonic" | "harmonic"


def signed_catalog() -> list[SignedCatalogEntry]:
    """Eight weights of known sign: harmonic powers, a strict subharmonic
    and a strict superharmonic power, the interval distance kink, the two
    log weights on either side of 1, and the half-plane height."""
    e3, e4 = euclidean_radial(3), euclidean_radial(4)
    wide = build_grid(CoordinateRange(1e-2, 1e2), 900, LOG)
    ball = build_grid(CoordinateRange(1e-2, 0.99), 900, LOG)
    outer = build_grid(CoordinateRange(1.01, 1e2), 900, LOG)
    unit = build_grid(CoordinateRange(0.0, 1.0), 901, "linear")
    return [SignedCatalogEntry(*entry) for entry in (
        (rho_catalog_entry("power", e3, 2.0, beta=-1.0), wide, "harmonic"),
        (rho_catalog_entry("power", e4, 3.0, beta=-0.5), wide, "harmonic"),
        (rho_catalog_entry("power", e3, 2.0, beta=2.0), wide, "subharmonic"),
        (rho_catalog_entry("power", e4, 2.0, beta=-1.0), wide, "superharmonic"),
        (rho_catalog_entry("dist-boundary", interval(0.0, 1.0), 2.0), unit, "superharmonic"),
        (rho_catalog_entry("log", e3, 2.0, side="inner"), ball, "superharmonic"),
        (rho_catalog_entry("log", e3, 2.0, side="outer"), outer, "subharmonic"),
        (rho_catalog_entry("halfplane-y", ModelManifold("half_plane"), 2.0), wide, "harmonic"),
    )]


def refine(grid: RadialGrid) -> RadialGrid:
    """Dyadic refinement: insert midpoints in the grid coordinate
    (arithmetic for linear spacing, geometric for log).

    The original nodes are preserved exactly, so discrete P1 spaces nest.
    """
    x = grid.nodes
    if grid.spacing == LOG:
        mids = np.sqrt(x[:-1] * x[1:])
    else:
        mids = 0.5 * (x[:-1] + x[1:])
    nodes = np.empty(2 * x.size - 1)
    nodes[0::2] = x
    nodes[1::2] = mids
    return RadialGrid(nodes, grid.spacing)


def estimate_lambda1(
    model, weight, rng: CoordinateRange, n: int = 2000, spacing: str = LOG, *, natural_lo: bool
) -> float:
    """Smallest eigenvalue of int rho |grad u|^2 / int rho u^2 over the P1
    functions on a grid of rng that vanish at hi and, unless natural_lo,
    at lo.  A natural (free) end at lo stands for an excised singularity,
    as in the class that defines the remainder constant.
    """
    grid = build_grid(rng, n, spacing if rng.lo > 0 else "linear")
    forms = P1Forms(grid, model_densities(model, 2.0, lambda t: (weight.rho(t),) * 2))
    first = 0 if natural_lo else 1
    u = np.zeros(n)
    bands = [(diag[first:-1], off[first:-1]) for diag, off in forms.pencil()]
    u[first:-1] = bottom_eigenpair(*bands).vector
    energy, mass = forms.evaluate(u, 2.0)[:2]
    return energy / mass


def _bump_values(c, c_lo, c_hi):
    """The mollifier bump of (c_lo, c_hi) at every coordinate of c."""
    z = (2.0 * (c - c_lo) / (c_hi - c_lo)) - 1.0
    inside = np.abs(z) < 1.0
    vals = np.zeros_like(z)
    with np.errstate(divide="ignore"):
        vals[inside] = np.exp(-1.0 / (1.0 - z[inside] ** 2))
    return vals


def _tent_values(c, c_lo, c_hi):
    """The hat of (c_lo, c_hi), 1 at its midpoint, at every coordinate of c."""
    mid = 0.5 * (c_lo + c_hi)
    up = (c - c_lo) / (mid - c_lo)
    down = (c_hi - c) / (c_hi - mid)
    return np.clip(np.minimum(up, down), 0.0, None)


def _zero_ends(values):
    values[0] = values[-1] = 0.0
    return values


def bump(grid: RadialGrid, c_lo: float, c_hi: float) -> GridFunction:
    """Smooth bump supported on (c_lo, c_hi) in the grid coordinate,
    evaluated on the whole grid and set to 0 at its two ends."""
    return GridFunction(grid, _zero_ends(_bump_values(grid.coord, c_lo, c_hi)))


def tent(grid: RadialGrid, c_lo: float, c_hi: float) -> GridFunction:
    """Piecewise-linear hat peaking at the midpoint of (c_lo, c_hi)."""
    return GridFunction(grid, _zero_ends(_tent_values(grid.coord, c_lo, c_hi)))


def seeded_functions_one_by_one(grid: RadialGrid, count: int, rng) -> list[np.ndarray]:
    """The values of ``random_test_functions(grid, count, rng)`` built one
    function at a time: two ``rng.uniform`` draws, its width and its left
    end, then the mollifier bump (even entries) or the tent (odd ones)
    evaluated on the whole grid."""
    c = grid.coord
    span = c[-1] - c[0]
    pad = 0.01 * span
    out = []
    for i in range(count):
        width = rng.uniform(0.15, 0.6) * span
        c_lo = rng.uniform(c[0] + pad, c[-1] - pad - width)
        values = _bump_values if i % 2 == 0 else _tent_values
        out.append(_zero_ends(values(c, c_lo, c_lo + width)))
    return out


def side_integrals_one_row(forms: P1Forms, u: np.ndarray, qs) -> list:
    """int A_i |u|^q_i and int B |u'|^q of one row u, summed over u's live
    cells _CELL_BLOCK at a time, each block's Gauss-point products by one
    np.sum and the blocks in order; a non-finite density where u lives
    raises NonFiniteIntegrandError."""
    live = u != 0.0
    if np.any(forms.bad_nodes & live) or np.any(forms.bad_cells & (live[:-1] | live[1:])):
        raise NonFiniteIntegrandError("non-finite density where u does not vanish")
    nz = np.flatnonzero(u)
    sums = [0.0] * len(qs)
    if not nz.size:
        return sums
    start, stop = max(nz[0] - 1, 0), min(nz[-1] + 1, u.size - 1)
    for lo in range(start, stop, _CELL_BLOCK):
        cells = slice(lo, min(lo + _CELL_BLOCK, stop))
        ug = np.abs(forms.n1 * u[:-1][cells] + forms.n2 * u[1:][cells])
        for i, (a_wts, q) in enumerate(zip(forms.a_wts, qs)):
            sums[i] += float(np.sum(a_wts[:, cells] * ug ** q))
        slope = np.abs((u[1:][cells] - u[:-1][cells]) / forms.h[cells])
        sums[-1] += float(np.sum(forms.b_cell[cells] * slope ** qs[-1]))
    return sums
