"""Radial p-capacity and p-parabolic / p-hyperbolic classification.

For a radial condenser (B_a, B_b) the capacitary problem has the closed
form

    cap_p(a, b) = ( integral_a^b s(tau)^(-1/(p-1)) dtau )^(1-p),

and the tests validate it against direct minimization of the discrete P1
p-energy with boundary values {1, 0}.  A model is classified p-parabolic
when the capacities along an expanding schedule of outer radii decay to
zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NonFiniteIntegrandError, UnsupportedModelError
from .geometry import CoordinateRange, ModelManifold
from .grids import LOG, build_grid, cell_gauss


def green_integrals(model: ModelManifold, p: float, nodes: np.ndarray):
    """Per-cell Gauss integrals of s^(-1/(p-1)) and their suffix sums,
    suffix[i] = the integral from node i to the last node."""
    pts, wts = cell_gauss(nodes)
    # summed over a contiguous (ncells, 8) copy: numpy's pairwise order per cell
    integrand = (wts * np.exp(-model.log_volume_density(pts) / (p - 1.0))).T
    cell_ints = np.sum(np.ascontiguousarray(integrand), axis=1)
    return cell_ints, np.concatenate([np.cumsum(cell_ints[::-1])[::-1], [0.0]])


def radial_capacity(model: ModelManifold, p: float, a: float, b: float) -> float:
    """p-capacity of the condenser (B_a, B_b) on a radial model."""
    if not (0 < a < b):
        raise InvalidArgumentError("need 0 < a < b")
    if not model.is_radial:
        raise UnsupportedModelError("capacity defined on radial models")
    n = max(800, int(200 * math.log10(b / a)))
    grid = build_grid(CoordinateRange(a, b), n, LOG)
    total = float(np.sum(green_integrals(model, p, grid.nodes)[0]))
    if not np.isfinite(total) or total <= 0:
        raise NonFiniteIntegrandError("capacity integrand not integrable on (a, b)")
    try:
        cap = total ** (1.0 - p)
    except OverflowError:
        cap = math.inf
    if not 0.0 < cap < math.inf:
        raise NonFiniteIntegrandError(f"capacity of (a, b) = ({a:g}, {b:g}) is {cap} at p = {p:g}")
    return cap


@dataclass
class ClassificationResult:
    classification: str  # "p_parabolic" | "p_hyperbolic"
    inconclusive: bool
    schedule: list = field(default_factory=list)
    values: list = field(default_factory=list)
    liminf_estimate: float = 0.0
    steepest_slope: float = 0.0
    last_over_first: float = 0.0


def default_b_schedule(a: float, decades: int = 13) -> list[float]:
    return [a * 10.0 ** k for k in range(1, decades + 1)]


def classify_parabolicity(
    model: ModelManifold,
    p: float,
    a: float = 1.0,
    b_schedule: list[float] | None = None,
) -> ClassificationResult:
    """Classify a radial model by the decay of cap_p(B_a, B_b) in b.

    p_parabolic when the schedule shows a decreasing-to-zero trend (last
    value below 0.1 of the first and a consecutive log-log slope below
    -0.1 somewhere); otherwise p_hyperbolic with the last value as liminf
    estimate.  ``inconclusive`` is flagged when the values neither vanish
    nor level off (last slope below -0.05) by the end of the schedule.
    """
    if b_schedule is None:
        b_schedule = default_b_schedule(a)
    if len(b_schedule) < 4 or b_schedule[-1] / b_schedule[0] < 1e4:
        raise InvalidArgumentError("schedule needs >= 4 points spanning >= 4 decades")
    values = [radial_capacity(model, p, a, b) for b in b_schedule]
    logs = np.log(values)
    logb = np.log(b_schedule)
    secants = np.diff(logs) / np.diff(logb)
    steepest = float(np.min(secants))
    tail = float(secants[-1])
    ratio = values[-1] / values[0]
    parabolic = ratio < 0.1 and steepest < -0.1
    inconclusive = (not parabolic) and tail < -0.05
    return ClassificationResult(
        classification="p_parabolic" if parabolic else "p_hyperbolic",
        inconclusive=inconclusive,
        schedule=list(b_schedule),
        values=values,
        liminf_estimate=float(values[-1]),
        steepest_slope=steepest,
        last_over_first=float(ratio),
    )
