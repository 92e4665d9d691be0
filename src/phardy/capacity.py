"""Radial p-capacity and p-parabolic / p-hyperbolic classification.

For a radial condenser (B_a, B_b) the capacitary problem has the closed
form

    cap_p(a, b) = I(b)^(1-p),   I(b) = integral_a^b s(tau)^(-1/(p-1)) dtau,

and the tests validate it against direct minimization of the discrete P1
p-energy with boundary values {1, 0}.  A model is p-parabolic when I(b)
diverges as b grows: its capacities decay to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NonFiniteIntegrandError, UnsupportedModelError
from .geometry import ModelManifold
from .grids import cell_gauss

CELLS_PER_DECADE = 200  # log cells per decade of the capacity grid
VANISHED = 1e-12  # D_last/I_last at or below which I has stopped growing
PARABOLIC_GAP = 1e-3  # r = D_last/D_prev >= 1 - PARABOLIC_GAP reads p-parabolic


def green_integrals(model: ModelManifold, p: float, nodes: np.ndarray) -> np.ndarray:
    """Per-cell Gauss integrals of s^(-1/(p-1)) between the nodes."""
    pts, wts = cell_gauss(nodes)
    # summed over a contiguous (ncells, 8) copy: numpy's pairwise order per cell
    integrand = (wts * np.exp(-model.log_volume_density(pts) / (p - 1.0))).T
    return np.sum(np.ascontiguousarray(integrand), axis=1)


def _capacities(model: ModelManifold, p: float, a: float, bs: list, min_cells: int = 1):
    """The integrals of s^(-1/(p-1)) over [a, b_1], [b_1, b_2], ... for
    the increasing bs, and the capacities cap_p(a, b_k), from one
    ``green_integrals`` call: its log grid has a node at a and at each b,
    and each piece CELLS_PER_DECADE cells per decade, at least min_cells."""
    if not model.is_radial:
        raise UnsupportedModelError("capacity defined on radial models")
    edges = np.log([a, *bs])
    cells = np.maximum(min_cells, np.round(np.diff(edges) * CELLS_PER_DECADE / math.log(10.0)))
    starts = np.concatenate([[0], np.cumsum(cells.astype(int))])
    nodes = np.exp(np.interp(np.arange(starts[-1] + 1), starts, edges))
    nodes[starts] = [a, *bs]
    pieces = np.add.reduceat(green_integrals(model, p, nodes), starts[:-1])
    totals = np.cumsum(pieces)
    with np.errstate(over="ignore", divide="ignore"):
        caps = totals ** (1.0 - p)
    for total, cap, b in zip(totals, caps, bs):
        if not 0.0 < total < math.inf:
            raise NonFiniteIntegrandError("capacity integrand not integrable on (a, b)")
        if not 0.0 < cap < math.inf:
            raise NonFiniteIntegrandError(
                f"capacity of (a, b) = ({a:g}, {b:g}) is {cap} at p = {p:g}"
            )
    return pieces, caps.tolist()


def radial_capacity(model: ModelManifold, p: float, a: float, b: float) -> float:
    """p-capacity of the condenser (B_a, B_b) on a radial model, on at
    least max(800, 200 log10(b/a)) log nodes."""
    if not (0 < a < b):
        raise InvalidArgumentError("need 0 < a < b")
    return _capacities(model, p, a, [b], min_cells=799)[1][0]


@dataclass
class ClassificationResult:
    """The verdict of ``classify_parabolicity``, its inputs and the numbers
    its rule tests; ``resolution`` is the decay rate delta of a tail
    I(inf) - I(b) ~ b^(-delta) below which the rule reads p_parabolic."""

    classification: str  # "p_parabolic" | "p_hyperbolic"
    inconclusive: bool
    schedule: list
    values: list
    ratio: float | None
    tail_share: float | None
    resolution: float


def default_b_schedule(a: float, decades: int = 13) -> list[float]:
    return [a * 10.0 ** k for k in range(1, decades + 1)]


def classify_parabolicity(
    model: ModelManifold,
    p: float,
    a: float = 1.0,
    b_schedule: list[float] | None = None,
) -> ClassificationResult:
    """Classify a radial model by whether I(b) converges along the schedule.

    With D_last, D_prev the last two increments of I and ``ratio`` r their
    ratio (None when D_last <= VANISHED I_last), ``tail_share`` is the
    geometric tail D_last r/(1 - r) over I_last (D_last/I_last when D_last
    vanished, None when r >= 1).  The verdict is p_hyperbolic when
    tail_share <= 1, else p_parabolic when r >= 1 - PARABOLIC_GAP, else
    p_hyperbolic flagged ``inconclusive``: the increments shrink, but the
    schedule ends before I settles.
    """
    if b_schedule is None:
        b_schedule = default_b_schedule(a)
    if len(b_schedule) < 4 or b_schedule[-1] / b_schedule[0] < 1e4:
        raise InvalidArgumentError("schedule needs >= 4 points spanning >= 4 decades")
    if not (0 < a < b_schedule[0] and all(np.diff(b_schedule) > 0)):
        raise InvalidArgumentError("schedule needs 0 < a < b_1 < b_2 < ...")
    pieces, values = _capacities(model, p, a, b_schedule)
    d_prev, d_last = float(pieces[-2]), float(pieces[-1])
    i_last = float(np.sum(pieces))
    ratio = None
    if d_last <= VANISHED * i_last:
        tail_share = d_last / i_last
    else:
        ratio = d_last / d_prev
        tail_share = d_last * ratio / ((1.0 - ratio) * i_last) if ratio < 1.0 else None
    hyperbolic = tail_share is not None and tail_share <= 1.0
    parabolic = not hyperbolic and ratio >= 1.0 - PARABOLIC_GAP
    return ClassificationResult(
        classification="p_parabolic" if parabolic else "p_hyperbolic",
        inconclusive=not (hyperbolic or parabolic),
        schedule=list(b_schedule),
        values=values,
        ratio=ratio,
        tail_share=tail_share,
        resolution=-math.log1p(-PARABOLIC_GAP) / math.log(b_schedule[-1] / b_schedule[-2]),
    )
