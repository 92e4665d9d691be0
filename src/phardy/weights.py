"""Weight catalog with analytic gradients and the weak-form sign checker.

The central sufficient criterion verified by this toolkit says: if a
nonnegative weight rho satisfies -Delta_p rho >= 0 in the weak sense,

    integral |grad rho|^(p-2) (grad rho . grad phi) dv_g >= 0

for every nonnegative compactly supported test phi, then a Hardy
inequality with the explicit constant ((p-1)/p)^p holds.  On the 1D
reductions used here the weak functional becomes

    integral s(t) g(t)^p |rho'|^(p-2) rho' phi' dt,

with s the volume density and g the gradient factor, which is what
``weak_superharmonicity_check`` evaluates on the hat functions of a P1
grid.  ``sign=+1`` tests p-superharmonicity, ``sign=-1`` tests
p-subharmonicity (the Caccioppoli hypothesis).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, ParabolicModelError, UnsupportedModelError
from .geometry import EUCLIDEAN, HALF_PLANE, HYPERBOLIC, INTERVAL, ModelManifold
from .grids import RadialGrid, cell_gauss

#: relative tolerance separating quadrature noise from a genuine sign
#: violation (calibrated for n >= 500 node grids)
TOL_WEAK = 1e-8


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

    A sampled weight of its suffix integrals at the grid nodes, with the
    exact slope -s^(-1/(p-1)) in place of the cell slopes.  Requires a
    p-hyperbolic model (the profile degenerates to the constant 0 in the
    parabolic case); the pole sits at the radial origin.
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
    return replace(
        weight_from_samples("green", model, p, grid, suffix),
        family="green",
        rho_prime=lambda t: -np.exp(-model.log_volume_density(t) / (p - 1.0)),
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
    """Outcome of the weak-form sign check; ``worst_center`` is the node
    (in t) of the hat that gave ``worst_value``, ``n_bumps`` the number of
    hats tested."""

    passed: bool
    worst_value: float
    worst_raw: float
    n_bumps: int
    worst_center: float


def check_weight_finite(w: WeightSpec, grid: RadialGrid):
    """Raise unless rho and rho' are finite at every interior node of grid."""
    t = grid.nodes[1:-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        finite = np.all(np.isfinite(w.rho(t))) and np.all(np.isfinite(w.rho_prime(t)))
    if not finite:
        raise InvalidArgumentError(f"weight {w.name} is not finite at every interior grid node")


def weak_superharmonicity_check(w: WeightSpec, grid: RadialGrid, sign: int = 1) -> CheckResult:
    """Test sign * (-Delta_p rho) >= 0 in the weak sense on the P1 hats.

    Every nonnegative P1 function on the grid that vanishes at its ends is
    a nonnegative combination of the hats of the interior nodes, so
    testing each hat once decides the sign on that whole cone.  With F_e
    the integral of the flux of ``w`` over cell e (8 Gauss points) and
    A_e that of its absolute value, hat i has the weak integral
    raw = sign * (F_{i-1}/h_{i-1} - F_i/h_i), normalized by
    A_{i-1}/h_{i-1} + A_i/h_i (0 where that is 0 or not finite), so
    ``worst_value`` is dimensionless and insensitive to scaling of rho.
    A sampled weight (``weight_from_samples``) has a constant slope on
    each cell of its own grid: its kinks sit at the nodes, between the
    cells the 8-point rule integrates over.  The rule is not exact on a
    cell that ends at a singularity of rho': for ``rlogr`` on the 3-node
    grid of [0, 1] the one hat scores 0.942051 against 0.942085 from
    ``scipy.integrate.quad``.  Only the hats next to such an end are
    affected.
    """
    nodes, model, p = grid.nodes, w.model, w.p
    t, wts = cell_gauss(nodes)
    slope = w.rho_prime(t)
    s_gp = np.exp(model.log_volume_density(t)) * model.gradient_factor(t) ** p
    flux = wts * (s_gp * np.sign(slope) * np.abs(slope) ** (p - 1.0))
    h = np.diff(nodes)
    f, a = flux.sum(axis=0) / h, np.abs(flux).sum(axis=0) / h
    raw = sign * (f[:-1] - f[1:])
    norm = a[:-1] + a[1:]
    ratio = np.divide(raw, norm, out=np.zeros_like(raw), where=(norm > 0) & (norm < np.inf))
    i = int(np.argmin(ratio))
    return CheckResult(
        passed=bool(ratio[i] >= -TOL_WEAK),
        worst_value=float(ratio[i]),
        worst_raw=float(raw[i]),
        n_bumps=ratio.size,
        worst_center=float(nodes[i + 1]),
    )
