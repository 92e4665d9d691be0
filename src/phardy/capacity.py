"""Radial p-capacity and p-parabolic / p-hyperbolic classification.

For a radial condenser (B_a, B_b) the capacitary problem has the closed
form

    cap_p(a, b) = ( integral_a^b s(tau)^(-1/(p-1)) dtau )^(1-p),

with extremal profile u(t) proportional to the tail of the same
integral.  The closed form is validated against direct minimization of
the discrete p-energy with boundary values {1, 0}
(``capacity_by_minimization``).  A model is classified p-parabolic when
the capacities along an expanding schedule of outer radii decay to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NonFiniteIntegrandError
from .forms import P1Forms, restrict, solve_tridiag_spd
from .geometry import CoordinateRange, ModelManifold
from .grids import GridFunction, LOG, build_grid, cell_gauss


def green_integrals(model: ModelManifold, p: float, nodes: np.ndarray):
    """Per-cell Gauss integrals of s^(-1/(p-1)) and their suffix sums,
    suffix[i] = the integral from node i to the last node."""
    pts, wts = cell_gauss(nodes)
    cell_ints = np.sum(wts * np.exp(-model.log_volume_density(pts) / (p - 1.0)), axis=1)
    return cell_ints, np.concatenate([np.cumsum(cell_ints[::-1])[::-1], [0.0]])


@dataclass
class CapacityResult:
    value: float
    inner_radius: float
    outer_radius: float
    extremal_profile: GridFunction
    classification_hint: str  # "vanishing" | "bounded_below"


def radial_capacity(
    model: ModelManifold, p: float, a: float, b: float, n: int | None = None
) -> CapacityResult:
    """p-capacity of the condenser (B_a, B_b) on a radial model."""
    if not (0 < a < b):
        raise InvalidArgumentError("need 0 < a < b")
    if model.kind == "interval" and (a < model.a or b > model.b):
        raise InvalidArgumentError("condenser outside interval model")
    if n is None:
        n = max(800, int(200 * math.log10(b / a)))
    grid = build_grid(CoordinateRange(a, b), n, LOG)
    cell_ints, suffix = green_integrals(model, p, grid.nodes)
    total = float(np.sum(cell_ints))
    if not np.isfinite(total) or total <= 0:
        raise NonFiniteIntegrandError("capacity integrand not integrable on (a, b)")
    profile = np.clip(suffix / total, 0.0, 1.0)
    value = total ** (1.0 - p)
    # hint: is the defining integral still growing near b?
    head = float(np.sum(cell_ints[: int(0.9 * len(cell_ints))]))
    hint = "vanishing" if total > 1.02 * head else "bounded_below"
    return CapacityResult(
        value=value,
        inner_radius=a,
        outer_radius=b,
        extremal_profile=GridFunction(grid, profile),
        classification_hint=hint,
    )


def capacity_by_minimization(
    model: ModelManifold, p: float, a: float, b: float, n: int = 4000
) -> float:
    """Direct minimization oracle for the condenser energy.

    Minimizes the convex discrete P1 p-energy with boundary values
    u(a) = 1, u(b) = 0 by damped Newton steps on the interior values;
    validates the closed form without using it.
    """
    grid = build_grid(CoordinateRange(a, b), n, LOG)
    forms = P1Forms(grid, lambda t: (np.zeros_like(t), np.exp(model.log_volume_density(t))))
    u = np.interp(np.log(grid.nodes), [math.log(a), math.log(b)], [1.0, 0.0])
    u[0], u[-1] = 1.0, 0.0
    inner = slice(1, n - 1)
    e = forms.energy(u, p)
    for _ in range(200):
        # Newton: the Hessian is p(p-1) times the stiffness reweighted at u
        k_diag, k_off = restrict(forms.pencil(u, p)[0], inner)
        step = np.zeros(n)
        step[inner] = solve_tridiag_spd(
            p * (p - 1.0) * k_diag, p * (p - 1.0) * k_off, forms.energy_grad(u, p)[inner]
        )
        t = 1.0
        for _ in range(50):
            trial = u - t * step
            et = forms.energy(trial, p)
            if et < e:
                u, e_prev, e = trial, e, et
                break
            t *= 0.5
        else:
            break
        if abs(e_prev - e) <= 1e-14 * e:
            break
    return e


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
    values = [radial_capacity(model, p, a, b).value for b in b_schedule]
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


@dataclass
class PunctureReport:
    eps_schedule: list
    quotients: list
    extrapolated: list
    predicted_limit: float | None
    max_deviation: float | None
    agrees: bool | None


def puncture_insensitivity_check(
    case,
    eps_schedule: list[float],
    R: float,
    n: int = 3000,
    predicted_limit: float | None = None,
    oracle_correction: bool = True,
) -> PunctureReport:
    """Shrink the inner truncation radius and track the minimized quotient.

    When the excised set has zero p-capacity the quotients (after removing
    the oracle-predicted logarithmic correction, where it applies) settle
    at the unpunctured prediction.
    """
    from .optimize import minimize_quotient_p2

    quotients = []
    extrapolated = []
    for eps in eps_schedule:
        grid = build_grid(CoordinateRange(eps, R, open_lo=True, open_hi=True), n, LOG)
        res = minimize_quotient_p2(case, grid)
        quotients.append(res.quotient)
        if oracle_correction:
            L = math.log(R / eps)
            extrapolated.append(res.quotient - (math.pi / L) ** 2)
        else:
            extrapolated.append(res.quotient)
    if predicted_limit is not None:
        dev = max(abs(e - predicted_limit) / predicted_limit for e in extrapolated)
        agrees = dev < 0.01
    else:
        dev = None
        agrees = None
    return PunctureReport(
        eps_schedule=list(eps_schedule),
        quotients=quotients,
        extrapolated=extrapolated,
        predicted_limit=predicted_limit,
        max_deviation=dev,
        agrees=agrees,
    )
