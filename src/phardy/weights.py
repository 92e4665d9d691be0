"""Weight catalog with analytic gradients/p-Laplacians and the weak-form
sign checker.

The central sufficient criterion verified by this toolkit says: if a
nonnegative weight rho satisfies -Delta_p rho >= 0 in the weak sense,

    integral |grad rho|^(p-2) (grad rho . grad phi) dv_g >= 0

for every nonnegative compactly supported test phi, then a Hardy
inequality with the explicit constant ((p-1)/p)^p holds.  On the 1D
reductions used here the weak functional becomes

    integral s(t) g(t)^p |rho'|^(p-2) rho' phi' dt,

with s the volume density and g the gradient factor, which is what
``weak_superharmonicity_check`` evaluates over a family of bump test
functions.  ``sign=+1`` tests p-superharmonicity, ``sign=-1`` tests
p-subharmonicity (the Caccioppoli hypothesis).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InvalidArgumentError,
    ParabolicModelError,
    UnsupportedModelError,
    ZeroDenominatorError,
)
from .geometry import HALF_PLANE, INTERVAL, ModelManifold
from .grids import RadialGrid, cell_gauss, derivative_values

#: relative tolerance separating quadrature noise from a genuine sign
#: violation (calibrated for n >= 500 node grids)
TOL_WEAK = 1e-8

#: bump half-widths in grid cells used by the checker
BUMP_WIDTHS = (3, 9)


@dataclass
class WeightSpec:
    """A weight rho with closed-form value, coordinate derivative, and
    p-Laplacian where analytic.

    ``rho_prime`` is the signed derivative in the reduction coordinate;
    the Riemannian gradient norm is g(t) * |rho_prime(t)|.
    """

    name: str
    family: str
    model: ModelManifold
    p: float
    rho: Callable
    rho_prime: Callable
    plap: Callable | None = None
    params: dict = field(default_factory=dict)

    def grad_norm(self, t):
        return self.model.gradient_factor(t) * np.abs(self.rho_prime(t))

    def scaled(self, lam: float) -> "WeightSpec":
        """The weight lam * rho (same sign structure, scaled functional)."""
        return WeightSpec(
            name=f"{lam}*{self.name}",
            family=self.family,
            model=self.model,
            p=self.p,
            rho=lambda t, f=self.rho: lam * f(t),
            rho_prime=lambda t, f=self.rho_prime: lam * f(t),
            params=dict(self.params),
        )


def _power_weight(model: ModelManifold, p: float, beta: float) -> WeightSpec:
    if beta == 0:
        raise InvalidArgumentError("power weight needs beta != 0")

    def rho(t):
        return np.asarray(t, dtype=float) ** beta

    def rho_prime(t):
        return beta * np.asarray(t, dtype=float) ** (beta - 1.0)

    def plap(t):
        t = np.asarray(t, dtype=float)
        if model.kind == INTERVAL:
            t_lap = np.zeros_like(t)
        else:
            t_lap = t * model.laplacian_of_distance(t)
        bracket = (beta - 1.0) * (p - 1.0) + t_lap
        return (
            abs(beta) ** (p - 2.0)
            * beta
            * t ** ((beta - 1.0) * (p - 1.0) - 1.0)
            * bracket
        )

    return WeightSpec(
        name=f"power:beta={beta:g}",
        family="power",
        model=model,
        p=p,
        rho=rho,
        rho_prime=rho_prime,
        plap=plap,
        params={"beta": beta},
    )


def _log_weight(model: ModelManifold, p: float, side: str) -> WeightSpec:
    """rho = -ln t on (0, 1) (side="inner") or rho = ln t on (1, inf)."""
    if model.kind in (HALF_PLANE,):
        raise UnsupportedModelError("log weight defined on radial/interval models")
    if side not in ("inner", "outer"):
        raise InvalidArgumentError(f"log weight side must be inner or outer, got {side!r}")
    sgn = -1.0 if side == "inner" else 1.0

    def rho(t):
        return sgn * np.log(np.asarray(t, dtype=float))

    def rho_prime(t):
        return sgn / np.asarray(t, dtype=float)

    def plap(t):
        t = np.asarray(t, dtype=float)
        if model.kind == INTERVAL:
            t_lap = np.zeros_like(t)
        else:
            t_lap = t * model.laplacian_of_distance(t)
        # flux of sgn*ln t is sgn * s(t) t^(1-p); differentiate and divide by s
        return sgn * t ** (-p) * (t_lap - (p - 1.0))

    return WeightSpec(
        name=f"log:{side}",
        family="log",
        model=model,
        p=p,
        rho=rho,
        rho_prime=rho_prime,
        plap=plap,
        params={"side": side},
    )


def _rlogr_weight(model: ModelManifold, p: float) -> WeightSpec:
    """rho = -t ln t, positive on (0, 1); p-Laplacian sign is not constant."""

    def rho(t):
        t = np.asarray(t, dtype=float)
        return -t * np.log(t)

    def rho_prime(t):
        return -(np.log(np.asarray(t, dtype=float)) + 1.0)

    return WeightSpec(
        name="rlogr",
        family="rlogr",
        model=model,
        p=p,
        rho=rho,
        rho_prime=rho_prime,
    )


def _halfplane_height_weight(model: ModelManifold, p: float) -> WeightSpec:
    if model.kind != HALF_PLANE:
        raise UnsupportedModelError("height weight lives on the half-plane model")

    def rho(t):
        return np.asarray(t, dtype=float) * 1.0

    def rho_prime(t):
        return np.ones_like(np.asarray(t, dtype=float))

    def plap(t):
        # Delta_H of y is 0; for general p the flux s g^p |rho'|^(p-2) rho'
        # equals y^(p-2), giving (p-2) y^(p-1)
        t = np.asarray(t, dtype=float)
        return (p - 2.0) * t ** (p - 1.0)

    return WeightSpec(
        name="halfplane-y",
        family="halfplane-y",
        model=model,
        p=p,
        rho=rho,
        rho_prime=rho_prime,
        plap=plap,
    )


def _distance_to_boundary_weight(model: ModelManifold, p: float) -> WeightSpec:
    if model.kind != INTERVAL:
        raise UnsupportedModelError("distance-to-boundary weight needs an interval")
    a, b = model.a, model.b

    def rho(t):
        t = np.asarray(t, dtype=float)
        return np.minimum(t - a, b - t)

    def rho_prime(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.5 * (a + b), 1.0, -1.0)

    return WeightSpec(
        name="dist-boundary",
        family="dist-boundary",
        model=model,
        p=p,
        rho=rho,
        rho_prime=rho_prime,
    )


def _constant_weight(model: ModelManifold, p: float, c: float) -> WeightSpec:
    if c <= 0:
        raise InvalidArgumentError("constant weight needs c > 0")
    return WeightSpec(
        name=f"constant:c={c:g}",
        family="constant",
        model=model,
        p=p,
        rho=lambda t: np.full_like(np.asarray(t, dtype=float), c),
        rho_prime=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        plap=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        params={"c": c},
    )


def weight_from_samples(
    name: str, model: ModelManifold, p: float, grid: RadialGrid, values: np.ndarray
) -> WeightSpec:
    """Wrap a sampled weight (e.g. an eigenfunction) as a WeightSpec.

    Values and the finite-difference derivative are linearly interpolated
    between nodes; outside the grid the weight is frozen at its endpoint
    values.
    """
    values = np.asarray(values, dtype=float)
    dvals = derivative_values(grid.nodes, values)
    nodes = grid.nodes

    def rho(t):
        return np.interp(np.asarray(t, dtype=float), nodes, values)

    def rho_prime(t):
        return np.interp(np.asarray(t, dtype=float), nodes, dvals)

    return WeightSpec(
        name=name,
        family="sampled",
        model=model,
        p=p,
        rho=rho,
        rho_prime=rho_prime,
    )


def green_weight_radial(model: ModelManifold, p: float, grid: RadialGrid) -> WeightSpec:
    """Radial Green-type profile rho(t) = integral_t^hi s(tau)^(-1/(p-1)) dtau.

    Requires a p-hyperbolic model (the profile degenerates to the constant 0
    in the parabolic case); the pole sits at the radial origin.
    """
    from .capacity import classify_parabolicity, green_integrals  # local import, no cycle

    if not model.is_radial:
        raise UnsupportedModelError("Green profile defined on radial models")
    if grid.lo <= 0:
        raise InvalidArgumentError("Green profile needs grid.lo > 0")
    cls = classify_parabolicity(model, p, a=grid.lo)
    if cls.classification == "p_parabolic":
        raise ParabolicModelError(
            f"{model.kind}(N={model.dim}) is {p}-parabolic: Green integral diverges"
        )

    suffix = green_integrals(model, p, grid.nodes)[1]
    nodes = grid.nodes

    def rho(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, nodes, suffix)

    def rho_prime(t):
        return -np.exp(-model.log_volume_density(np.asarray(t, dtype=float)) / (p - 1.0))

    return WeightSpec(
        name="green",
        family="green",
        model=model,
        p=p,
        rho=rho,
        rho_prime=rho_prime,
        plap=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        params={"hi": grid.hi},
    )


#: catalog families: builder, and parameters with their defaults (None: required)
_FAMILIES = {
    "power": (_power_weight, {"beta": None}),
    "log": (_log_weight, {"side": "inner"}),
    "rlogr": (_rlogr_weight, {}),
    "dist-boundary": (_distance_to_boundary_weight, {}),
    "halfplane-y": (_halfplane_height_weight, {}),
    "constant": (_constant_weight, {"c": 1.0}),
}


def rho_catalog_entry(name: str, model: ModelManifold, p: float, **params) -> WeightSpec:
    """Resolve a catalog weight by family name; a missing or unknown
    parameter is an InvalidArgumentError.

    Green and eigenfunction weights are built by ``green_weight_radial``
    and ``weight_from_samples`` because they need a grid.
    """
    if name not in _FAMILIES:
        raise InvalidArgumentError(f"unknown weight family {name!r}")
    build, defaults = _FAMILIES[name]
    required = {key for key, default in defaults.items() if default is None}
    if params.keys() - defaults.keys() or required - params.keys():
        raise InvalidArgumentError(f"{name} weight takes {sorted(defaults)}, got {sorted(params)}")
    kw = {**defaults, **params}
    return build(model, p, **{k: v if k == "side" else float(v) for k, v in kw.items()})


def parse_weight(spec: str, model: ModelManifold, p: float) -> WeightSpec:
    """Parse config strings like "power:beta=-1" or "log:side=inner"."""
    family, _, rest = spec.partition(":")
    params: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _:
                # bare value shorthand, e.g. "log:inner"
                key, val = {"log": "side"}.get(family, "value"), key
            try:
                params[key] = float(val)
            except ValueError:
                params[key] = val
    return rho_catalog_entry(family, model, p, **params)


@dataclass
class CheckResult:
    """Outcome of the weak-form sign check; ``worst_center`` (in t) and
    ``worst_width`` (in cells) locate the bump that gave ``worst_value``."""

    passed: bool
    worst_value: float
    worst_raw: float
    n_bumps: int
    sign: int
    worst_center: float
    worst_width: int


#: bumps evaluated per numpy pass; caps the scratch arrays at
#: _BUMP_BLOCK * 2w * 8 doubles whatever the grid size
_BUMP_BLOCK = 256


def _cubic_bump(x, knots, piece, derivative: bool):
    """Cox-de Boor recursion for cubic B-splines on 5 knots, a batch at once.

    ``x`` has shape (bumps, L, q), ``knots`` shape (5, bumps, 1, 1) and
    ``piece[l]`` is the knot interval holding ``x[:, l]`` (4: right of the
    support).  Returns the spline values, or their derivatives.
    """
    b = [(piece == m)[:, None].astype(float) for m in range(4)]
    for d in (1, 2):
        b = [
            (x - knots[j]) / (knots[j + d] - knots[j]) * b[j]
            + (knots[j + d + 1] - x) / (knots[j + d + 1] - knots[j + 1]) * b[j + 1]
            for j in range(4 - d)
        ]
    left, right = b[0] / (knots[3] - knots[0]), b[1] / (knots[4] - knots[1])
    if derivative:
        return 3.0 * (left - right)
    return (x - knots[0]) * left + (knots[4] - x) * right


def _bump_ratios(w, grid: RadialGrid, sign: int, p, model):
    """Per-bump ``(ratio, raw, centre, width)``: raw = sign * weak integral,
    ratio = raw / the |.| integral (0 where that is 0 or not finite).

    Bumps are cubic B-splines on knots ``[c-w, c-half, c, c+half, c+w]``,
    width 3 before 9, centred so that adjacent supports overlap (a kink
    anywhere is straddled) and never fewer than 8 per width.  The
    flux is evaluated once: times the Gauss weights on all cells, shape
    (n-1, 8), for a WeightSpec; one piecewise-linear value per cell for
    samples.  Bumps of one width meet it ``_BUMP_BLOCK`` at a time: their
    derivatives at the Gauss points, or their exact increments per cell.
    """
    nodes = grid.nodes
    if isinstance(w, WeightSpec):
        model, p = w.model, w.p if p is None else p
        t, wts = cell_gauss(nodes, 8)
        slope = w.rho_prime(t)
    elif model is None or p is None:
        raise InvalidArgumentError("raw grid weights need model= and p=")
    else:
        t, wts = 0.5 * (nodes[:-1] + nodes[1:]), 1.0
        slope = np.diff(np.asarray(getattr(w, "values", w), float)) / np.diff(nodes)
    if grid.n < 2 * min(BUMP_WIDTHS) + 1:
        raise InvalidArgumentError("grid too coarse for any test bump")
    s_gp = np.exp(model.log_volume_density(t)) * model.gradient_factor(t) ** p
    flux = wts * (s_gp * np.sign(slope) * np.abs(slope) ** (p - 1.0))

    raw, norm, centre, width = [], [], [], []
    for bw in (bw for bw in BUMP_WIDTHS if 2 * bw + 1 <= grid.n):
        count = max(8, math.ceil((grid.n - 1) / bw) + 1)
        centres = np.unique(np.round(np.linspace(bw, grid.n - 1 - bw, count)).astype(int))
        offsets = np.array([-bw, -max(1, bw // 2), 0, max(1, bw // 2), bw])
        local = np.arange(2 * bw + (flux.ndim == 1))  # cells, or nodes if sampled
        piece = np.sum(local[:, None] >= offsets[1:] + bw, axis=1)
        for c in np.split(centres, range(_BUMP_BLOCK, centres.size, _BUMP_BLOCK)):
            knots = nodes[c + offsets[:, None]][..., None, None]
            span = c[:, None] - bw + local
            if flux.ndim == 2:
                terms = (flux[span] * _cubic_bump(t[span], knots, piece, True)).reshape(c.size, -1)
            else:
                phi = _cubic_bump(nodes[span][..., None], knots, piece, False)[..., 0]
                terms = flux[span[:, :-1]] * np.diff(phi, axis=1)
            raw.append(sign * terms.sum(axis=1))
            norm.append(np.abs(terms).sum(axis=1))
        centre.append(nodes[centres])
        width += [bw] * centres.size
    raw, norm = np.concatenate(raw), np.concatenate(norm)
    ratio = np.divide(raw, norm, out=np.zeros_like(raw), where=(norm > 0) & (norm < np.inf))
    return ratio, raw, np.concatenate(centre), width


def weak_superharmonicity_check(
    w,
    grid: RadialGrid,
    sign: int = 1,
    *,
    p: float | None = None,
    model: ModelManifold | None = None,
    tol: float = TOL_WEAK,
) -> CheckResult:
    """Test sign * (-Delta_p rho) >= 0 in the weak sense over bump functions.

    ``w`` is a WeightSpec (closed forms integrated per-cell with Gauss
    quadrature) or a GridFunction/ndarray of samples (piecewise-linear flux
    form, exact in the test function).  Each bump value is normalized by
    the same integral taken with absolute values, so ``worst_value`` is
    dimensionless and insensitive to scaling of rho and phi.
    """
    ratio, raw, centre, width = _bump_ratios(w, grid, sign, p, model)
    i = int(np.argmin(ratio))
    return CheckResult(
        passed=bool(ratio[i] >= -tol),
        worst_value=float(ratio[i]),
        worst_raw=float(raw[i]),
        n_bumps=ratio.size,
        sign=sign,
        worst_center=float(centre[i]),
        worst_width=width[i],
    )


def classify_weight_sign(
    w, grid: RadialGrid, *, p=None, model=None, tol: float = TOL_WEAK
) -> str:
    """Classify a weight as superharmonic / subharmonic / harmonic / indefinite
    from the two one-sided weak checks, both read off one scoring pass: the
    worst value for sign=-1 is -max(ratio)."""
    ratio = _bump_ratios(w, grid, +1, p, model)[0]
    sup, sub = ratio.min() >= -tol, -ratio.max() >= -tol
    if sup or sub:
        return "harmonic" if sup and sub else "superharmonic" if sup else "subharmonic"
    return "indefinite"


def chain_rule_identity_check(w: WeightSpec, gamma: float, grid: RadialGrid) -> float:
    """Relative quadrature error in
    integral |grad rho^gamma|^p = gamma^p integral rho^(p(gamma-1)) |grad rho|^p.

    Both sides are evaluated with the grid's trapezoid rule; the left side
    differentiates rho^gamma by finite differences, so the error is O(n^-2).
    """
    t = grid.nodes
    p = w.p
    s = np.exp(w.model.log_volume_density(t))
    g = w.model.gradient_factor(t)
    rho = w.rho(t)
    pow_rho = rho ** gamma
    lhs = grid.integrate((g * np.abs(derivative_values(t, pow_rho))) ** p * s)
    rhs = grid.integrate(
        rho ** (p * (gamma - 1.0)) * (g * np.abs(w.rho_prime(t))) ** p * s
    ) * abs(gamma) ** p
    if rhs < 1e-300:
        # constant weights: both sides vanish (lhs only to FD roundoff)
        if lhs < 1e-12:
            return 0.0
        raise ZeroDenominatorError("chain-rule reference integral vanished")
    return abs(lhs - rhs) / rhs


@dataclass
class SignedCatalogEntry:
    """Weight with a known analytic sign, for checker validation."""

    weight: WeightSpec
    grid: RadialGrid
    expected: str  # "superharmonic" | "subharmonic" | "harmonic"


def signed_catalog() -> list[SignedCatalogEntry]:
    """Eight weights of known sign: harmonic powers, a strict subharmonic
    and a strict superharmonic power, the interval distance kink, the two
    log weights on either side of 1, and the half-plane height."""
    from .geometry import (
        CoordinateRange,
        euclidean_radial,
        half_plane_poincare,
        interval,
    )
    from .grids import LOG, build_grid

    e3, e4 = euclidean_radial(3), euclidean_radial(4)
    ball = CoordinateRange(1e-2, 0.99, open_lo=True)
    outer = CoordinateRange(1.01, 1e2, open_hi=True)
    wide = CoordinateRange(1e-2, 1e2, open_lo=True, open_hi=True)
    unit = interval(0.0, 1.0)
    entries = [
        SignedCatalogEntry(
            _power_weight(e3, 2.0, -1.0), build_grid(wide, 900, LOG), "harmonic"
        ),
        SignedCatalogEntry(
            _power_weight(e4, 3.0, -0.5), build_grid(wide, 900, LOG), "harmonic"
        ),
        SignedCatalogEntry(
            _power_weight(e3, 2.0, 2.0), build_grid(wide, 900, LOG), "subharmonic"
        ),
        SignedCatalogEntry(
            _power_weight(e4, 2.0, -1.0), build_grid(wide, 900, LOG), "superharmonic"
        ),
        SignedCatalogEntry(
            _distance_to_boundary_weight(unit, 2.0),
            build_grid(CoordinateRange(0.0, 1.0), 901, "linear"),
            "superharmonic",
        ),
        SignedCatalogEntry(
            _log_weight(e3, 2.0, "inner"), build_grid(ball, 900, LOG), "superharmonic"
        ),
        SignedCatalogEntry(
            _log_weight(e3, 2.0, "outer"), build_grid(outer, 900, LOG), "subharmonic"
        ),
        SignedCatalogEntry(
            _halfplane_height_weight(half_plane_poincare(), 2.0),
            build_grid(CoordinateRange(1e-2, 1e2, open_lo=True), 900, LOG),
            "harmonic",
        ),
    ]
    return entries
