"""Weight catalog with analytic gradients and the weak-form sign checker.

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

from .errors import InvalidArgumentError, ParabolicModelError, UnsupportedModelError
from .geometry import EUCLIDEAN, HALF_PLANE, HYPERBOLIC, INTERVAL, ModelManifold
from .grids import RadialGrid, cell_gauss

#: relative tolerance separating quadrature noise from a genuine sign
#: violation (calibrated for n >= 500 node grids)
TOL_WEAK = 1e-8

#: bump half-widths in grid cells used by the checker
BUMP_WIDTHS = (3, 9)


@dataclass
class WeightSpec:
    """A weight rho with closed-form value and coordinate derivative.

    ``rho_prime`` is the signed derivative in the reduction coordinate;
    the Riemannian gradient norm is g(t) * |rho_prime(t)|.
    """

    name: str
    family: str
    model: ModelManifold
    p: float
    rho: Callable
    rho_prime: Callable
    params: dict = field(default_factory=dict)

    def grad_norm(self, t):
        return self.model.gradient_factor(t) * np.abs(self.rho_prime(t))


def _power_weight(model: ModelManifold, beta: float):
    if beta == 0:
        raise InvalidArgumentError("power weight needs beta != 0")
    return (
        lambda t: np.asarray(t, dtype=float) ** beta,
        lambda t: beta * np.asarray(t, dtype=float) ** (beta - 1.0),
    )


def _log_weight(model: ModelManifold, side: str):
    """rho = -ln t on (0, 1) (side="inner") or rho = ln t on (1, inf)."""
    if side not in ("inner", "outer"):
        raise InvalidArgumentError(f"log weight side must be inner or outer, got {side!r}")
    sgn = -1.0 if side == "inner" else 1.0
    return (
        lambda t: sgn * np.log(np.asarray(t, dtype=float)),
        lambda t: sgn / np.asarray(t, dtype=float),
    )


def _rlogr_weight(model: ModelManifold):
    """rho = -t ln t, positive on (0, 1); its p-Laplacian changes sign."""

    def rho(t):
        t = np.asarray(t, dtype=float)
        return -t * np.log(t)

    return rho, lambda t: -(np.log(np.asarray(t, dtype=float)) + 1.0)


def _halfplane_height_weight(model: ModelManifold):
    return (
        lambda t: np.asarray(t, dtype=float) * 1.0,
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
    )


def _distance_to_boundary_weight(model: ModelManifold):
    a, b = model.a, model.b

    def rho(t):
        t = np.asarray(t, dtype=float)
        return np.minimum(t - a, b - t)

    return rho, lambda t: np.where(np.asarray(t, dtype=float) < 0.5 * (a + b), 1.0, -1.0)


def _constant_weight(model: ModelManifold, c: float):
    if c <= 0:
        raise InvalidArgumentError("constant weight needs c > 0")
    return (
        lambda t: np.full_like(np.asarray(t, dtype=float), c),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def weight_from_samples(
    name: str, model: ModelManifold, p: float, grid: RadialGrid, values: np.ndarray
) -> WeightSpec:
    """Wrap a sampled weight (e.g. an eigenfunction) as a WeightSpec.

    The weight is the P1 interpolant of the samples, frozen at its endpoint
    values outside the grid; its derivative is the slope of the cell that
    holds t (the right one at a node), and 0 outside the grid.
    """
    values = np.asarray(values, dtype=float)
    nodes = grid.nodes
    slopes = np.concatenate(([0.0], np.diff(values) / np.diff(nodes), [0.0]))

    def rho(t):
        return np.interp(np.asarray(t, dtype=float), nodes, values)

    def rho_prime(t):
        return slopes[np.searchsorted(nodes, t, side="right")]

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
    )


_ALL_MODELS = (EUCLIDEAN, HYPERBOLIC, HALF_PLANE, INTERVAL)

#: catalog families: builder of (rho, rho'), parameters with their defaults
#: (None: required) and the model kinds the weight lives on
_FAMILIES = {
    "power": (_power_weight, {"beta": None}, _ALL_MODELS),
    "log": (_log_weight, {"side": "inner"}, (EUCLIDEAN, HYPERBOLIC, INTERVAL)),
    "rlogr": (_rlogr_weight, {}, _ALL_MODELS),
    "dist-boundary": (_distance_to_boundary_weight, {}, (INTERVAL,)),
    "halfplane-y": (_halfplane_height_weight, {}, (HALF_PLANE,)),
    "constant": (_constant_weight, {"c": 1.0}, _ALL_MODELS),
}


def rho_catalog_entry(name: str, model: ModelManifold, p: float, **params) -> WeightSpec:
    """Resolve a catalog weight by family name; a missing or unknown
    parameter is an InvalidArgumentError, a model the family does not live
    on an UnsupportedModelError.

    The weight is named after its family and parameters: a number as
    key=value, a string bare ("power:beta=-1", "log:inner", "rlogr").
    Green and eigenfunction weights are built by ``green_weight_radial``
    and ``weight_from_samples`` because they need a grid.
    """
    if name not in _FAMILIES:
        raise InvalidArgumentError(f"unknown weight family {name!r}")
    build, defaults, model_kinds = _FAMILIES[name]
    required = {key for key, default in defaults.items() if default is None}
    if params.keys() - defaults.keys() or required - params.keys():
        raise InvalidArgumentError(f"{name} weight takes {sorted(defaults)}, got {sorted(params)}")
    kw = {k: v if k == "side" else float(v) for k, v in {**defaults, **params}.items()}
    if model.kind not in model_kinds:
        raise UnsupportedModelError(f"{name} weight lives on {'/'.join(model_kinds)} models")
    rho, rho_prime = build(model, **kw)
    label = ",".join(v if isinstance(v, str) else f"{k}={v:g}" for k, v in kw.items())
    return WeightSpec(
        name=f"{name}:{label}" if label else name,
        family=name,
        model=model,
        p=p,
        rho=rho,
        rho_prime=rho_prime,
        params=kw,
    )


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
    worst_center: float
    worst_width: int


#: bumps evaluated per numpy pass; caps the scratch arrays at
#: _BUMP_BLOCK * 2w * 8 doubles whatever the grid size
_BUMP_BLOCK = 256


def _cubic_bump_slope(x, knots, piece):
    """Cox-de Boor recursion for the derivative of cubic B-splines on 5
    knots, a batch at once.

    ``x`` has shape (bumps, L, q), ``knots`` shape (5, bumps, 1, 1) and
    ``piece[l]`` is the knot interval holding ``x[:, l]`` (4: right of the
    support).
    """
    b = [(piece == m)[:, None].astype(float) for m in range(4)]
    for d in (1, 2):
        b = [
            (x - knots[j]) / (knots[j + d] - knots[j]) * b[j]
            + (knots[j + d + 1] - x) / (knots[j + d + 1] - knots[j + 1]) * b[j + 1]
            for j in range(4 - d)
        ]
    return 3.0 * (b[0] / (knots[3] - knots[0]) - b[1] / (knots[4] - knots[1]))


def check_bump_grid(grid: RadialGrid):
    """Raise unless grid is fine enough for the narrowest test bump."""
    if grid.n < 2 * min(BUMP_WIDTHS) + 1:
        raise InvalidArgumentError("grid too coarse for any test bump")


def weak_superharmonicity_check(w: WeightSpec, grid: RadialGrid, sign: int = 1) -> CheckResult:
    """Test sign * (-Delta_p rho) >= 0 in the weak sense over bump functions.

    Bumps are cubic B-splines on knots ``[c-w, c-half, c, c+half, c+w]``,
    width 3 before 9, centred so that adjacent supports overlap (a kink
    anywhere is straddled) and never fewer than 8 per width.  The flux of
    the weight ``w`` is evaluated once, times the Gauss weights on all
    cells, shape (n-1, 8); bumps of one width meet it ``_BUMP_BLOCK`` at a
    time through their derivatives at the Gauss points.  A sampled weight
    comes in as ``weight_from_samples``: on its own grid its flux is
    constant per cell and the 8-point rule is exact.  Each bump value,
    raw = sign * weak integral, is normalized by the same integral taken
    with absolute values (0 where that is 0 or not finite), so
    ``worst_value`` is dimensionless and insensitive to scaling of rho and
    phi.
    """
    check_bump_grid(grid)
    nodes, model, p = grid.nodes, w.model, w.p
    # (ncells, 8) views: the bumps gather the flux cell by cell
    t, wts = (a.T for a in cell_gauss(nodes))
    slope = w.rho_prime(t)
    s_gp = np.exp(model.log_volume_density(t)) * model.gradient_factor(t) ** p
    flux = wts * (s_gp * np.sign(slope) * np.abs(slope) ** (p - 1.0))

    raw, norm, centre, width = [], [], [], []
    for bw in (bw for bw in BUMP_WIDTHS if 2 * bw + 1 <= grid.n):
        count = max(8, math.ceil((grid.n - 1) / bw) + 1)
        centres = np.unique(np.round(np.linspace(bw, grid.n - 1 - bw, count)).astype(int))
        offsets = np.array([-bw, -max(1, bw // 2), 0, max(1, bw // 2), bw])
        local = np.arange(2 * bw)
        piece = np.sum(local[:, None] >= offsets[1:] + bw, axis=1)
        for c in np.split(centres, range(_BUMP_BLOCK, centres.size, _BUMP_BLOCK)):
            knots = nodes[c + offsets[:, None]][..., None, None]
            span = c[:, None] - bw + local
            terms = (flux[span] * _cubic_bump_slope(t[span], knots, piece)).reshape(c.size, -1)
            raw.append(sign * terms.sum(axis=1))
            norm.append(np.abs(terms).sum(axis=1))
        centre.append(nodes[centres])
        width += [bw] * centres.size
    raw, norm = np.concatenate(raw), np.concatenate(norm)
    ratio = np.divide(raw, norm, out=np.zeros_like(raw), where=(norm > 0) & (norm < np.inf))
    i = int(np.argmin(ratio))
    return CheckResult(
        passed=bool(ratio[i] >= -TOL_WEAK),
        worst_value=float(ratio[i]),
        worst_raw=float(raw[i]),
        n_bumps=ratio.size,
        worst_center=float(np.concatenate(centre)[i]),
        worst_width=width[i],
    )
