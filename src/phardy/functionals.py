"""The inequality kinds, their cases and the sides of each.

Every side evaluator reduces its inequality to 1D integrals of the test
function's P1 interpolant with the minimizers' Gauss cells (``P1Sides``):
volume elements become the model density s(t), Riemannian gradient norms
become g(t)|u'(t)|.  The returned SidePair carries the margin with the
source inequality's orientation, so an inequality holds iff margin >= 0
up to discretization tolerance.

``KINDS`` lists each kind once: its config parameters, case factory,
catalog formula, the factors of its side densities and, unless it is a
quotient kind, its side evaluator.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    HypothesisViolationError,
    InvalidArgumentError,
    RelationViolationError,
    UnsupportedModelError,
    ZeroDenominatorError,
)
from .forms import P1Sides, model_densities
from .geometry import CoordinateRange, EUCLIDEAN, HALF_PLANE, ModelManifold
from .grids import GridFunction, RadialGrid
from .weights import CheckResult, WeightSpec, weak_superharmonicity_check

#: discretization tolerance for margin/bound checks (n >= 2000 grids)
TOL_DISC = 1e-6


@dataclass
class SidePair:
    """Evaluated sides of one inequality for one test function.

    margin >= 0 means the inequality held; the constant is placed exactly
    where the source inequality puts it (on lhs for Hardy-type bounds, as
    a factor of rhs for the product-form interpolation bounds).
    """

    lhs: float
    rhs: float
    constant: float
    margin: float


@dataclass
class InequalityCase:
    """One configured inequality: weight, model, parameters and the
    constant evaluated from the closed-form formula."""

    kind: str
    model: ModelManifold
    weight: WeightSpec | None
    params: dict
    rng: CoordinateRange
    formula_constant: float
    case_id: str = ""
    hypothesis_mode: str | None = None  # "superharmonic" | "subharmonic" | None
    trivial: bool = False
    oracle_shift: float = 0.0  # (pi/L)^2 scale factor when the log oracle applies
    hypothesis_result: CheckResult | None = field(default=None, repr=False)
    _sweep: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.case_id:
            bits = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            wname = self.weight.name if self.weight else "-"
            self.case_id = f"{self.kind}[{self.model.kind}|{wname}|{bits}]"
        if self.formula_constant < 0 or (self.formula_constant == 0 and not self.trivial):
            raise InvalidArgumentError("inequality constant must be positive")

    @property
    def p(self) -> float:
        return float(self.params["p"])


@dataclass
class VectorFieldCase:
    """Radial vector field h with a candidate divergence lower bound A_h."""

    name: str
    model: ModelManifold
    h_mag: Callable
    a_h: Callable
    _sweep: tuple | None = field(default=None, init=False, repr=False, compare=False)


# ---------------------------------------------------------------------------
# P1 data of the sides

def _p1_sides(case, grid: RadialGrid, p: float) -> P1Sides:
    if isinstance(case, VectorFieldCase):
        factors = functools.partial(_field_factors, case, p)
    else:
        factors = functools.partial(KINDS[case.kind].densities, case)
    return P1Sides(grid, model_densities(case.model, p, factors))


@contextmanager
def margin_sweep(case, grid: RadialGrid, p: float):
    """Assemble the P1 data of the case's sides on grid once, kept on the
    case for a sweep of side calls over test functions on that grid and
    released on exit."""
    case._sweep = (p, _p1_sides(case, grid, p))
    try:
        yield
    finally:
        case._sweep = None


def _integrals(case, u: GridFunction, qs, p: float) -> list:
    """The integrals of the case's densities for the P1 interpolant of u,
    with the exponents qs (see ``P1Sides``)."""
    if case._sweep and case._sweep[0] == p and case._sweep[1].grid is u.grid:
        return case._sweep[1].integrals(u.values, qs)
    return _p1_sides(case, u.grid, p).integrals(u.values, qs)


def _require_hypothesis(case: InequalityCase):
    res = case.hypothesis_result
    if res is not None and not res.passed:
        raise HypothesisViolationError(
            f"{case.case_id}: weight failed its {case.hypothesis_mode} hypothesis "
            f"(worst normalized value {res.worst_value:.3e})"
        )


def validate_case_hypothesis(case: InequalityCase, grid: RadialGrid) -> CheckResult | None:
    """Run the weak-form check the case's hypothesis requires and cache it."""
    if case.hypothesis_mode is None or case.weight is None:
        return None
    sign = +1 if case.hypothesis_mode == "superharmonic" else -1
    res = weak_superharmonicity_check(case.weight, grid, sign=sign)
    case.hypothesis_result = res
    return res


# ---------------------------------------------------------------------------
# sides: each kind's factors (a_1, ..., a_k, b) and how its integrals combine

def quotient_sides(case: InequalityCase, u: GridFunction) -> SidePair:
    """Sides of a quotient kind, C int A |u|^p <= int B |u'|^p, with the
    densities (A, B) the minimizers integrate (``p_densities``)."""
    _require_hypothesis(case)
    lhs, rhs = _integrals(case, u, (case.p, case.p), case.p)
    c = case.formula_constant
    return SidePair(lhs=lhs, rhs=rhs, constant=c, margin=rhs - c * lhs)


def _field_factors(v: VectorFieldCase, p: float, t):
    a_vals = v.a_h(t)
    h_vals = v.h_mag(t)
    if np.any((a_vals <= 0) & (h_vals != 0)):
        raise InvalidArgumentError("A_h must be positive where h does not vanish")
    return a_vals, h_vals ** p / a_vals ** (p - 1.0)


def divergence_lemma_sides(v: VectorFieldCase, u: GridFunction, p: float) -> SidePair:
    """int |u|^p A_h <= p^p int |h|^p / A_h^(p-1) |grad u|^p."""
    lhs, rhs = _integrals(v, u, (p, p), p)
    rhs = p ** p * rhs
    return SidePair(lhs=lhs, rhs=rhs, constant=p ** p, margin=rhs - lhs)


def _gn_factors(case: InequalityCase, t):
    return t ** -(case.p - 1.0), 1.0, 1.0


def gn_sides(case: InequalityCase, u: GridFunction) -> SidePair:
    """Weighted Gagliardo-Nirenberg sides for rho = d^alpha, |grad d| = 1:
    int |u|^s d^-(p-1) <= C (int |grad u|^p)^(1/p') (int |u|^delta)^(1/p)."""
    _require_hypothesis(case)
    if case.model.kind == HALF_PLANE:
        raise UnsupportedModelError("GN form needs |grad d| = 1 (radial/interval)")
    p = case.p
    delta = float(case.params["delta"])
    s_exp = p - 1.0 + delta / p
    if "s" in case.params and abs(case.params["s"] - s_exp) > 1e-12:
        raise RelationViolationError("s = p-1+delta/p", f"got s={case.params['s']}")
    lhs, mass_term, grad_term = _integrals(case, u, (s_exp, delta, p), p)
    c = case.formula_constant
    rhs = c * grad_term ** (1.0 - 1.0 / p) * mass_term ** (1.0 / p)
    return SidePair(lhs=lhs, rhs=rhs, constant=c, margin=rhs - lhs)


def _uncertainty_factors(case: InequalityCase, t):
    return 1.0, t ** (case.p / (float(case.params["a"]) - 1.0)), 1.0


def uncertainty_sides(case: InequalityCase, u: GridFunction) -> SidePair:
    """Uncertainty-principle sides for rho = d^alpha, |grad d| = 1:
    int |u|^s <= C (int |grad u|^p)^(1/a) (int |u|^((as-p)/(a-1)) d^(p(a'-1)))^(1/a')."""
    _require_hypothesis(case)
    if case.model.kind == HALF_PLANE:
        raise UnsupportedModelError("uncertainty form needs |grad d| = 1")
    p = case.p
    s_exp = float(case.params["s"])
    a = float(case.params["a"])
    m_exp = (a * s_exp - p) / (a - 1.0)
    lhs, mixed_term, grad_term = _integrals(case, u, (s_exp, m_exp, p), p)
    c = case.formula_constant
    rhs = c * grad_term ** (1.0 / a) * mixed_term ** ((a - 1.0) / a)
    return SidePair(lhs=lhs, rhs=rhs, constant=c, margin=rhs - lhs)


def _hardy_sobolev_factors(case: InequalityCase, t):
    rho, theta = case.weight.rho(t), float(case.params["theta"])
    return rho ** (float(case.params["p_star"]) * theta), rho ** (case.p * theta)


def hardy_sobolev_sides(case: InequalityCase, u: GridFunction) -> SidePair:
    """C2 (int rho^(p* theta) |u|^p*)^(1/p*) <= (int rho^(p theta) |grad u|^p)^(1/p)."""
    _require_hypothesis(case)
    p = case.p
    p_star = float(case.params["p_star"])
    c2 = case.formula_constant
    lhs, rhs = _integrals(case, u, (p_star, p), p)
    lhs, rhs = lhs ** (1.0 / p_star), rhs ** (1.0 / p)
    return SidePair(lhs=lhs, rhs=rhs, constant=c2, margin=rhs - c2 * lhs)


def hardy_sobolev_constant(S_p: float, H_val: float, theta: float, p: float) -> float:
    """C2 = S(p) H^(1/p) / (|theta| + H^(1/p))."""
    hroot = H_val ** (1.0 / p)
    return S_p * hroot / (abs(theta) + hroot)


def _ckn_factors(case: InequalityCase, t):
    pr, p = case.params, case.p
    rho, grad_rho = case.weight.rho(t), case.weight.grad_norm(t)
    return (
        rho ** (-pr["gamma"] * pr["r"]) * grad_rho ** ((pr["gamma"] + pr["eps"]) * pr["r"]),
        grad_rho ** ((pr["delta"] + pr["sigma"]) * p) * rho ** (-pr["delta"] * p),
        rho ** (pr["theta"] * p),
    )


def ckn_sides(case: InequalityCase, u: GridFunction) -> SidePair:
    """First-order interpolation (CKN-type) sides; constants from the
    Hardy-Sobolev constant C2 and the weighted Hardy constant H."""
    _require_hypothesis(case)
    p = case.p
    r, a = float(case.params["r"]), float(case.params["a"])
    C3 = case.formula_constant
    lhs, mixed_term, grad_term = _integrals(case, u, (r, p, p), p)
    lhs = lhs ** (1.0 / r)
    rhs = grad_term ** (a / p) * mixed_term ** ((1.0 - a) / p)
    return SidePair(lhs=lhs, rhs=rhs, constant=C3, margin=rhs - C3 * lhs)


def sides_for(case: InequalityCase, u: GridFunction) -> SidePair:
    """Sides of any case whose kind has side densities."""
    kind = KINDS.get(case.kind)
    if kind is None or kind.densities is None:
        raise InvalidArgumentError(f"no sides evaluator for kind {case.kind!r}")
    return (kind.sides or quotient_sides)(case, u)


def rayleigh_quotient(case: InequalityCase, u: GridFunction) -> float:
    """rhs/lhs of the case's side pair, so the formula constant is a lower bound."""
    pair = sides_for(case, u)
    if pair.lhs <= 0.0:
        raise ZeroDenominatorError("Rayleigh quotient needs a nonzero lhs")
    return pair.rhs / pair.lhs


def hardy_gap(case: InequalityCase, u: GridFunction) -> float:
    """The nonnegative functional rhs - constant*lhs (I(u) for Hardy cases)."""
    return sides_for(case, u).margin


# ---------------------------------------------------------------------------
# case factories

def _hypothesis_mode_for_alpha(p: float, alpha: float) -> str | None:
    if alpha < p - 1.0:
        return "superharmonic"
    if alpha > p - 1.0:
        return "subharmonic"
    return None


def _oracle_shift(model: ModelManifold, weight: WeightSpec, p: float) -> float:
    """Scale of the (pi/L)^2 truncation correction predicted by the p = 2
    log-substitution oracle, or 0 when it does not apply."""
    if p != 2.0:
        return 0.0
    if model.kind == EUCLIDEAN and weight.family == "power":
        return 1.0 / weight.params["beta"] ** 2
    if model.kind == HALF_PLANE and weight.family == "halfplane-y":
        return 1.0
    return 0.0


def weighted_hardy_case(
    model: ModelManifold,
    weight: WeightSpec,
    alpha: float,
    rng: CoordinateRange | None = None,
    case_id: str = "",
) -> InequalityCase:
    p = weight.p
    const = (abs(p - 1.0 - alpha) / p) ** p
    kind = "hardy" if alpha == 0.0 else "weighted-hardy"
    return InequalityCase(
        kind=kind,
        model=model,
        weight=weight,
        params={"p": p, "alpha": alpha},
        rng=rng or model.natural_range(),
        formula_constant=const,
        case_id=case_id,
        hypothesis_mode=_hypothesis_mode_for_alpha(p, alpha),
        trivial=(const == 0.0),
        oracle_shift=_oracle_shift(model, weight, p),
    )


def hardy_case(
    model: ModelManifold,
    weight: WeightSpec,
    rng: CoordinateRange | None = None,
    case_id: str = "",
) -> InequalityCase:
    return weighted_hardy_case(model, weight, 0.0, rng, case_id)


def caccioppoli_case(
    model: ModelManifold,
    weight: WeightSpec,
    q: float,
    rng: CoordinateRange | None = None,
    case_id: str = "",
) -> InequalityCase:
    if q <= -1:
        raise InvalidArgumentError("Caccioppoli needs q > -1")
    p = weight.p
    return InequalityCase(
        kind="caccioppoli",
        model=model,
        weight=weight,
        params={"p": p, "q": q},
        rng=rng or model.natural_range(),
        formula_constant=((q + 1.0) / p) ** p,
        case_id=case_id,
        hypothesis_mode="subharmonic",
    )


def gn_case(
    model: ModelManifold,
    weight: WeightSpec,
    delta: float,
    rng: CoordinateRange | None = None,
    case_id: str = "",
) -> InequalityCase:
    if weight.family != "power":
        raise InvalidArgumentError("GN case needs a power-of-distance weight d^alpha")
    if delta <= 0:
        raise InvalidArgumentError("need delta > 0")
    p = weight.p
    alpha = weight.params["beta"]
    return InequalityCase(
        kind="gn",
        model=model,
        weight=weight,
        params={"p": p, "alpha": alpha, "delta": delta},
        rng=rng or model.natural_range(),
        formula_constant=(p / (abs(alpha) * (p - 1.0))) ** (p - 1.0),
        case_id=case_id,
        hypothesis_mode="superharmonic",
    )


def uncertainty_case(
    model: ModelManifold,
    weight: WeightSpec,
    s: float,
    a: float,
    rng: CoordinateRange | None = None,
    case_id: str = "",
) -> InequalityCase:
    if weight.family != "power":
        raise InvalidArgumentError("uncertainty case needs a power weight d^alpha")
    p = weight.p
    alpha = weight.params["beta"]
    if not (s > 0 and a > 1):
        raise InvalidArgumentError("need s > 0 and a > 1")
    if (a * s - p) / (a - 1.0) <= 0:
        raise InvalidArgumentError("exponent (as-p)/(a-1) must be positive")
    return InequalityCase(
        kind="uncertainty",
        model=model,
        weight=weight,
        params={"p": p, "alpha": alpha, "s": s, "a": a},
        rng=rng or model.natural_range(),
        formula_constant=(p / (abs(alpha) * (p - 1.0))) ** (p / a),
        case_id=case_id,
        hypothesis_mode="superharmonic",
    )


def hardy_sobolev_case(
    model: ModelManifold,
    weight: WeightSpec,
    theta: float,
    p_star: float,
    sobolev_constant: float,
    rng: CoordinateRange | None = None,
    case_id: str = "",
) -> InequalityCase:
    p = weight.p
    if p_star <= 0:
        raise InvalidArgumentError("need p* > 0")
    if sobolev_constant is None or sobolev_constant <= 0:
        raise InvalidArgumentError("missing Sobolev constant S_p")
    H = (abs(p - 1.0 - p * theta) / p) ** p
    if H <= 0:
        raise InvalidArgumentError("weighted Hardy constant degenerates at p*theta = p-1")
    return InequalityCase(
        kind="hardy-sobolev",
        model=model,
        weight=weight,
        params={
            "p": p,
            "theta": theta,
            "p_star": p_star,
            "sobolev_constant": sobolev_constant,
            "H_val": H,
        },
        rng=rng or model.natural_range(),
        formula_constant=hardy_sobolev_constant(sobolev_constant, H, theta, p),
        case_id=case_id,
        hypothesis_mode=_hypothesis_mode_for_alpha(p, p * theta),
    )


def ckn_case(
    model: ModelManifold,
    weight: WeightSpec,
    theta: float,
    p_star: float,
    r: float,
    a: float,
    gamma: float,
    delta: float,
    eps: float | None = None,
    sigma: float = 0.0,
    sobolev_constant: float = None,
    rng: CoordinateRange | None = None,
    case_id: str = "",
) -> InequalityCase:
    """Validate the three CKN parameter relations and evaluate C3."""
    p = weight.p
    if not (p_star > p):
        raise InvalidArgumentError("CKN needs p* > p")
    if sobolev_constant is None or sobolev_constant <= 0:
        raise InvalidArgumentError("missing Sobolev constant S_p")
    if not (0.0 <= a <= 1.0) or r <= 0:
        raise InvalidArgumentError("need r > 0 and 0 <= a <= 1")
    if eps is None:
        eps = theta * a + sigma * (1.0 - a)
    tol = 1e-12
    if not (1.0 / p >= 1.0 / r - tol and 1.0 / r >= (1 - a) / p + a / p_star - tol):
        raise RelationViolationError(
            "condr", f"1/p >= 1/r >= (1-a)/p + a/p* fails for r={r}, a={a}"
        )
    P = p_star * (r - p) / (r * (p_star - p))
    if abs(gamma + P - ((1.0 - theta) * a + delta * (1.0 - a))) > tol:
        raise RelationViolationError("cond1", "gamma relation fails")
    if abs(eps - (theta * a + sigma * (1.0 - a))) > tol:
        raise RelationViolationError("cond2", "eps relation fails")
    H = (abs(p - 1.0 - p * theta) / p) ** p
    c2 = hardy_sobolev_constant(sobolev_constant, H, theta, p)
    c3 = c2 ** P * H ** (a / p - P / p)
    return InequalityCase(
        kind="ckn",
        model=model,
        weight=weight,
        params={
            "p": p,
            "theta": theta,
            "p_star": p_star,
            "r": r,
            "a": a,
            "gamma": gamma,
            "delta": delta,
            "eps": eps,
            "sigma": sigma,
            "sobolev_constant": sobolev_constant,
            "H_val": H,
        },
        rng=rng or model.natural_range(),
        formula_constant=c3,
        case_id=case_id,
        hypothesis_mode=_hypothesis_mode_for_alpha(p, p * theta),
    )


def davies_hinz_field(model: ModelManifold) -> VectorFieldCase:
    """h = grad V for V = t^2; A_h = Delta V = 2 + 2 t Delta t."""
    if model.kind == HALF_PLANE:
        raise UnsupportedModelError("Davies-Hinz instance needs |grad t| = 1")

    def h_mag(t):
        return 2.0 * np.asarray(t, dtype=float)

    def a_h(t):
        t = np.asarray(t, dtype=float)
        if model.kind == "interval":
            return np.full_like(t, 2.0)
        return 2.0 + 2.0 * t * model.laplacian_of_distance(t)

    return VectorFieldCase("davies-hinz", model, h_mag, a_h)


def killing_field(model: ModelManifold, p: float) -> VectorFieldCase:
    """h = K/|K|^p for the Euclidean conformal Killing field K = x (p < N)."""
    if model.kind != EUCLIDEAN:
        raise UnsupportedModelError("Killing instance defined on Euclidean models")
    if p >= model.dim:
        raise InvalidArgumentError("Killing instance needs p < N")
    n = model.dim

    def h_mag(t):
        return np.asarray(t, dtype=float) ** (1.0 - p)

    def a_h(t):
        return (n - p) * np.asarray(t, dtype=float) ** (-p)

    return VectorFieldCase("killing", model, h_mag, a_h)


def vector_field(name: str, model: ModelManifold, p: float) -> VectorFieldCase:
    """The divergence-lemma field called ``name`` on a model."""
    if name == "davies-hinz":
        return davies_hinz_field(model)
    if name == "killing":
        return killing_field(model, p)
    raise InvalidArgumentError(f"unknown 'field' {name!r}")


# ---------------------------------------------------------------------------
# factors of the quotient kinds and the table of kinds

def _hardy_factors(case: InequalityCase, t):
    """rho^(alpha-p) |grad rho|^p and rho^alpha (alpha = 0 unless given)."""
    w, p = case.weight, case.p
    alpha = float(case.params.get("alpha", 0.0))
    rho = w.rho(t)
    return rho ** (alpha - p) * w.grad_norm(t) ** p, rho ** alpha


def _caccioppoli_factors(case: InequalityCase, t):
    w, p, q = case.weight, case.p, float(case.params["q"])
    rho = w.rho(t)
    return rho ** q * w.grad_norm(t) ** p, rho ** (p + q)


def _poincare_factors(case: InequalityCase, t):
    rho_s = case.weight.rho(t) ** float(case.params["s"])
    return rho_s, rho_s


def p_densities(case: InequalityCase):
    """t -> (A, B) with lhs = int A |u|^p and rhs = int B |u'|^p: the kind's
    factors (a, b) times s(t) and g(t)^p s(t)."""
    kind = KINDS.get(case.kind)
    if kind is None or kind.densities is None or kind.sides is not None:
        raise InvalidArgumentError(f"kind {case.kind!r} has no quotient densities")
    return model_densities(case.model, case.p, functools.partial(kind.densities, case))


@dataclass(frozen=True)
class Kind:
    """One inequality kind.

    ``params`` maps each config parameter to its type (required) or to its
    default (optional, of the default's type; None: an optional number).
    ``factory(model, weight, rng=, case_id=, **params)`` builds the case
    from a config, p coming with the weight; the CLI builds the other kinds
    from an eigenpair or a vector field, or runs them as checks.
    ``densities(case, t)`` gives the factors (a_1, ..., a_k, b) of the side
    integrals int a_i s |u|^q_i, int b g^p s |u'|^p; ``sides`` combines
    them, ``quotient_sides`` (a, b) when it is None.
    ``formula`` is the constant's catalog entry (None: not an inequality).
    """

    params: dict
    formula: str | None = None
    factory: Callable | None = None
    densities: Callable | None = None
    sides: Callable | None = None


KINDS = {
    "hardy": Kind({"p": float}, "((p-1)/p)^p", hardy_case, _hardy_factors),
    "weighted-hardy": Kind(
        {"p": float, "alpha": 0.0}, "(|p-1-alpha|/p)^p", weighted_hardy_case, _hardy_factors
    ),
    "caccioppoli": Kind(
        {"p": float, "q": float}, "((q+1)/p)^p", caccioppoli_case, _caccioppoli_factors
    ),
    "gn": Kind(
        {"p": float, "delta": float},
        "(p/(|alpha|(p-1)))^(p-1)",
        gn_case,
        _gn_factors,
        gn_sides,
    ),
    "uncertainty": Kind(
        {"p": float, "s": float, "a": float},
        "(p/(|alpha|(p-1)))^(p/a)",
        uncertainty_case,
        _uncertainty_factors,
        uncertainty_sides,
    ),
    "hardy-sobolev": Kind(
        {"p": float, "theta": float, "p_star": float, "sobolev_constant": float},
        "C2 = S(p) H^(1/p)/(|theta| + H^(1/p))",
        hardy_sobolev_case,
        _hardy_sobolev_factors,
        hardy_sobolev_sides,
    ),
    "ckn": Kind(
        {"p": float, "theta": float, "p_star": float, "r": float, "a": float,
         "gamma": float, "delta": float, "eps": None, "sigma": 0.0,
         "sobolev_constant": float},
        "C3 = C2^(p*(r-p)/(r(p*-p))) H^(a/p - p*(r-p)/(p r (p*-p)))",
        ckn_case,
        _ckn_factors,
        ckn_sides,
    ),
    "eigen-hardy": Kind({"p": float, "alpha": 0.0}, "((p-1-alpha)/p)^p"),
    "poincare-eigen": Kind(
        {"p": float, "s": float}, "lam1 (p-1-s)^(p-1)/p^p", densities=_poincare_factors
    ),
    "distance-hardy": Kind(
        {"p": float, "eps_split": 0.1},
        "min(((p-1)/p)^p b^p/L^p, lam1 (p-1-s)^(p-1)/p^p l^s eps^p)/2",
        densities=_hardy_factors,
    ),
    "divergence-lemma": Kind({"p": float, "field": "davies-hinz"}, "p^p"),
    "classification": Kind({"p": float, "a": 1.0, "decades": 13}),
}
