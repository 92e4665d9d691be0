"""The inequality kinds, their cases and the sides of each.

Every inequality reduces to 1D integrals of the test function's P1
interpolant on the P1 forms the minimizers use (``case_forms``): volume
elements become the model density s(t), Riemannian gradient norms become
g(t)|u'(t)|.  ``sides_for`` combines them into a SidePair whose margin has
the source inequality's orientation, so an inequality holds iff
margin >= 0 up to discretization tolerance.

``KINDS`` lists each kind once: its config parameters, case factory,
catalog formula, the factors of its side densities and, unless it is a
quotient kind, the exponents of its side integrals.
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
)
from .forms import P1Forms, model_densities
from .geometry import EUCLIDEAN, HALF_PLANE, ModelManifold
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
    constant evaluated from the closed-form formula.  It holds no range:
    it is checked on the grid it is handed, Dirichlet at both ends."""

    kind: str
    model: ModelManifold
    weight: WeightSpec | None
    params: dict
    formula_constant: float
    case_id: str = ""
    hypothesis_mode: str | None = None  # "superharmonic" | "subharmonic" | None
    trivial: bool = False
    oracle_shift: float = 0.0  # (pi/L)^2 scale factor when the log oracle applies
    hypothesis_result: CheckResult | None = field(default=None, repr=False)
    _assembled: P1Forms | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.case_id, str):
            raise InvalidArgumentError(f"case_id must be a string, got {self.case_id!r}")
        if not self.case_id:
            bits = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            wname = self.weight.name if self.weight else "-"
            self.case_id = f"{self.kind}[{self.model.kind}|{wname}|{bits}]"
        if self.formula_constant < 0 or (self.formula_constant == 0 and not self.trivial):
            raise InvalidArgumentError("inequality constant must be positive")

    @property
    def p(self) -> float:
        return float(self.params["p"])


# ---------------------------------------------------------------------------
# P1 forms of a case

def case_forms(case, grid: RadialGrid) -> P1Forms:
    """The P1 forms of the case's densities on grid: those held by an open
    ``assembled`` block for that grid, else assembled anew."""
    held = case._assembled
    if held is not None and held.grid is grid:
        return held
    factors = functools.partial(KINDS[case.kind].densities, case)
    return P1Forms(grid, model_densities(case.model, case.p, factors))


@contextmanager
def assembled(case, grid: RadialGrid):
    """Keep the case's P1 forms on grid for the block, so its side calls
    and minimizations on that grid share one assembly; released on exit."""
    outer = case._assembled
    case._assembled = case_forms(case, grid)
    try:
        yield
    finally:
        case._assembled = outer


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
# sides: each kind's factors (a_1, ..., a_k, b) and the exponents of its integrals

def sides_for(case: InequalityCase, u: GridFunction) -> SidePair:
    """Sides of any case whose kind has side densities: from the integrals
    I_1, ..., I_k, I_grad of its forms, lhs = I_1^e_1 and rhs = I_grad^e
    I_2^e_2 ... I_k^e_k with the exponents of its kind (see ``Kind``), the
    constant a factor of the side the kind names."""
    kind = KINDS.get(case.kind)
    if kind is None or kind.densities is None:
        raise InvalidArgumentError(f"no sides evaluator for kind {case.kind!r}")
    _require_hypothesis(case)
    qs, es = kind.exponents(case) if kind.exponents else ((case.p, case.p), (1, 1))
    first, *others, grad = case_forms(case, u.grid).integrals(u.values, qs)
    c = case.formula_constant
    lhs = first ** es[0]
    rhs = (c if kind.constant_on_rhs else 1.0) * grad ** es[-1]
    for term, e in zip(others, es[1:-1]):
        rhs *= term ** e
    margin = rhs - lhs if kind.constant_on_rhs else rhs - c * lhs
    return SidePair(lhs=lhs, rhs=rhs, constant=c, margin=margin)


#: no code calls this alias; it stays only because perfbench/tracer.py wraps
#: this name and the benchmark's files are not changed with the package
divergence_lemma_sides = sides_for


def _field_factors(case: InequalityCase, t):
    """A_h and |h|^p / A_h^(p-1) of the case's radial field h."""
    a_vals = case.params["a_h"](t)
    h_vals = case.params["h_mag"](t)
    if np.any((a_vals <= 0) & (h_vals != 0)):
        raise InvalidArgumentError("A_h must be positive where h does not vanish")
    return a_vals, h_vals ** case.p / a_vals ** (case.p - 1.0)


def _gn_factors(case: InequalityCase, t):
    return t ** -(case.p - 1.0), 1.0, 1.0


def _gn_exponents(case: InequalityCase):
    """Weighted Gagliardo-Nirenberg for rho = d^alpha, |grad d| = 1:
    int |u|^s d^-(p-1) <= C (int |grad u|^p)^(1/p') (int |u|^delta)^(1/p)."""
    p, delta = case.p, float(case.params["delta"])
    s_exp = p - 1.0 + delta / p
    if "s" in case.params and abs(case.params["s"] - s_exp) > 1e-12:
        raise RelationViolationError("s = p-1+delta/p", f"got s={case.params['s']}")
    return (s_exp, delta, p), (1, 1.0 / p, 1.0 - 1.0 / p)


def _uncertainty_factors(case: InequalityCase, t):
    return 1.0, t ** (case.p / (float(case.params["a"]) - 1.0)), 1.0


def _uncertainty_exponents(case: InequalityCase):
    """Uncertainty principle for rho = d^alpha, |grad d| = 1: int |u|^s
    <= C (int |grad u|^p)^(1/a) (int |u|^((as-p)/(a-1)) d^(p(a'-1)))^(1/a')."""
    p, s_exp, a = case.p, float(case.params["s"]), float(case.params["a"])
    return (s_exp, (a * s_exp - p) / (a - 1.0), p), (1, (a - 1.0) / a, 1.0 / a)


def _hardy_sobolev_factors(case: InequalityCase, t):
    rho, theta = case.weight.rho(t), float(case.params["theta"])
    return rho ** (float(case.params["p_star"]) * theta), rho ** (case.p * theta)


def _hardy_sobolev_exponents(case: InequalityCase):
    """C2 (int rho^(p* theta) |u|^p*)^(1/p*) <= (int rho^(p theta) |grad u|^p)^(1/p)."""
    p, p_star = case.p, float(case.params["p_star"])
    return (p_star, p), (1.0 / p_star, 1.0 / p)


def _hardy_sobolev_constants(S_p: float, theta: float, p: float):
    """(H, C2): the Hardy constant H of rho^(p theta) and the Hardy-Sobolev
    C2 = S(p) H^(1/p) / (|theta| + H^(1/p))."""
    H = _hardy_constant(p, p * theta)
    if H <= 0:
        raise InvalidArgumentError("weighted Hardy constant degenerates at p*theta = p-1")
    hroot = H ** (1.0 / p)
    return H, S_p * hroot / (abs(theta) + hroot)


def _ckn_factors(case: InequalityCase, t):
    pr, p = case.params, case.p
    rho, grad_rho = case.weight.rho(t), case.weight.grad_norm(t)
    return (
        rho ** (-pr["gamma"] * pr["r"]) * grad_rho ** ((pr["gamma"] + pr["eps"]) * pr["r"]),
        grad_rho ** ((pr["delta"] + pr["sigma"]) * p) * rho ** (-pr["delta"] * p),
        rho ** (pr["theta"] * p),
    )


def _ckn_exponents(case: InequalityCase):
    """First-order interpolation (CKN-type): C3 (int .. |u|^r)^(1/r) <=
    (int .. |grad u|^p)^(a/p) (int .. |u|^p)^((1-a)/p)."""
    p, r, a = case.p, float(case.params["r"]), float(case.params["a"])
    return (r, p, p), (1.0 / r, (1.0 - a) / p, a / p)


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


def weighted_case(
    kind: str,
    model: ModelManifold,
    weight: WeightSpec,
    constant: float,
    case_id: str = "",
    hypothesis_mode: str | None = None,
    **params,
) -> InequalityCase:
    """The case of a weighted kind with the given constant, p taken from
    the weight and put first in its params.  A Hardy kind's case is
    trivial at alpha = p - 1, where its constant is 0; a constant that
    underflows to 0 anywhere else is rejected.  Only a Hardy kind carries
    the log oracle's shift."""
    p = weight.p
    hardy = kind in ("hardy", "weighted-hardy")
    return InequalityCase(
        kind=kind,
        model=model,
        weight=weight,
        params={"p": p, **params},
        formula_constant=constant,
        case_id=case_id,
        hypothesis_mode=hypothesis_mode,
        trivial=hardy and params.get("alpha", 0.0) == p - 1.0,
        oracle_shift=_oracle_shift(model, weight, p) if hardy else 0.0,
    )


def _hardy_constant(p: float, alpha: float) -> float:
    """H = (|p-1-alpha|/p)^p, the Hardy constant of the weight rho^alpha."""
    return (abs(p - 1.0 - alpha) / p) ** p


def weighted_hardy_case(
    model: ModelManifold,
    weight: WeightSpec,
    alpha: float,
    case_id: str = "",
) -> InequalityCase:
    p = weight.p
    kind = "hardy" if alpha == 0.0 else "weighted-hardy"
    mode = _hypothesis_mode_for_alpha(p, alpha)
    return weighted_case(kind, model, weight, _hardy_constant(p, alpha), case_id, mode, alpha=alpha)


def hardy_case(
    model: ModelManifold,
    weight: WeightSpec,
    rng=None,  # unread: perfbench/workloads.py passes a range in this slot
    case_id: str = "",
) -> InequalityCase:
    return weighted_hardy_case(model, weight, 0.0, case_id)


def caccioppoli_case(
    model: ModelManifold,
    weight: WeightSpec,
    q: float,
    case_id: str = "",
) -> InequalityCase:
    if q <= -1:
        raise InvalidArgumentError("Caccioppoli needs q > -1")
    const = ((q + 1.0) / weight.p) ** weight.p
    return weighted_case("caccioppoli", model, weight, const, case_id, "subharmonic", q=q)


def _distance_power(kind: str, model: ModelManifold, weight: WeightSpec) -> float:
    """alpha of the case's weight d^alpha; the kind needs |grad d| = 1."""
    if model.kind == HALF_PLANE:
        raise UnsupportedModelError(f"{kind} form needs |grad d| = 1 (radial/interval)")
    if weight.family != "power":
        raise InvalidArgumentError(f"{kind} case needs a power-of-distance weight d^alpha")
    return weight.params["beta"]


def gn_case(
    model: ModelManifold,
    weight: WeightSpec,
    delta: float,
    case_id: str = "",
) -> InequalityCase:
    alpha = _distance_power("GN", model, weight)
    if delta <= 0:
        raise InvalidArgumentError("need delta > 0")
    p = weight.p
    const = (p / (abs(alpha) * (p - 1.0))) ** (p - 1.0)
    return weighted_case(
        "gn", model, weight, const, case_id, "superharmonic", alpha=alpha, delta=delta
    )


def uncertainty_case(
    model: ModelManifold,
    weight: WeightSpec,
    s: float,
    a: float,
    case_id: str = "",
) -> InequalityCase:
    alpha = _distance_power("uncertainty", model, weight)
    p = weight.p
    if not (s > 0 and a > 1):
        raise InvalidArgumentError("need s > 0 and a > 1")
    if (a * s - p) / (a - 1.0) <= 0:
        raise InvalidArgumentError("exponent (as-p)/(a-1) must be positive")
    const = (p / (abs(alpha) * (p - 1.0))) ** (p / a)
    return weighted_case(
        "uncertainty", model, weight, const, case_id, "superharmonic", alpha=alpha, s=s, a=a
    )


def hardy_sobolev_case(
    model: ModelManifold,
    weight: WeightSpec,
    theta: float,
    p_star: float,
    sobolev_constant: float,
    case_id: str = "",
) -> InequalityCase:
    p = weight.p
    if p_star <= 0:
        raise InvalidArgumentError("need p* > 0")
    if sobolev_constant is None or sobolev_constant <= 0:
        raise InvalidArgumentError("missing Sobolev constant S_p")
    return weighted_case(
        "hardy-sobolev",
        model,
        weight,
        _hardy_sobolev_constants(sobolev_constant, theta, p)[1],
        case_id,
        _hypothesis_mode_for_alpha(p, p * theta),
        theta=theta,
        p_star=p_star,
        sobolev_constant=sobolev_constant,
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
    H, c2 = _hardy_sobolev_constants(sobolev_constant, theta, p)
    return weighted_case(
        "ckn",
        model,
        weight,
        c2 ** P * H ** (a / p - P / p),
        case_id,
        _hypothesis_mode_for_alpha(p, p * theta),
        theta=theta,
        p_star=p_star,
        r=r,
        a=a,
        gamma=gamma,
        delta=delta,
        eps=eps,
        sigma=sigma,
        sobolev_constant=sobolev_constant,
    )


def davies_hinz_field(model: ModelManifold):
    """|h| and A_h of h = grad V for V = t^2: A_h = Delta V = 2 + 2 t Delta t."""
    if model.kind == HALF_PLANE:
        raise UnsupportedModelError("Davies-Hinz instance needs |grad t| = 1")

    def h_mag(t):
        return 2.0 * np.asarray(t, dtype=float)

    def a_h(t):
        t = np.asarray(t, dtype=float)
        if model.kind == "interval":
            return np.full_like(t, 2.0)
        return 2.0 + 2.0 * t * model.laplacian_of_distance(t)

    return h_mag, a_h


def killing_field(model: ModelManifold, p: float):
    """|h| and A_h of h = K/|K|^p for the Euclidean conformal Killing field
    K = x (p < N)."""
    if model.kind != EUCLIDEAN:
        raise UnsupportedModelError("Killing instance defined on Euclidean models")
    if p >= model.dim:
        raise InvalidArgumentError("Killing instance needs p < N")
    n = model.dim

    def h_mag(t):
        return np.asarray(t, dtype=float) ** (1.0 - p)

    def a_h(t):
        return (n - p) * np.asarray(t, dtype=float) ** (-p)

    return h_mag, a_h


def divergence_case(
    model: ModelManifold,
    field_name: str,
    p: float,
    case_id: str = "",
) -> InequalityCase:
    """int |u|^p A_h <= p^p int |h|^p / A_h^(p-1) |grad u|^p for the radial
    field called ``field_name``; no weight, |h| and A_h in the params."""
    if field_name == "davies-hinz":
        h_mag, a_h = davies_hinz_field(model)
    elif field_name == "killing":
        h_mag, a_h = killing_field(model, p)
    else:
        raise InvalidArgumentError(f"unknown 'field' {field_name!r}")
    return InequalityCase(
        kind="divergence-lemma",
        model=model,
        weight=None,
        params={"p": p, "field": field_name, "h_mag": h_mag, "a_h": a_h},
        formula_constant=p ** p,
        case_id=case_id or f"divergence-lemma[{model.kind}|{field_name}|p={p:g}]",
    )


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


@dataclass(frozen=True)
class Kind:
    """One inequality kind.

    ``params`` maps each config parameter to its type (required) or to its
    default (optional, of the default's type; None: an optional number).
    ``factory(model, weight, case_id=, **params)`` builds the case
    from a config, p coming with the weight; the CLI builds the other kinds
    from an eigenpair or a vector field, or runs them as checks.
    ``densities(case, t)`` gives the factors (a_1, ..., a_k, b) of the side
    integrals I_i = int a_i s |u|^q_i and I_grad = int b g^p s |u'|^q.
    ``exponents(case)`` gives ((q_1, ..., q_k, q), (e_1, ..., e_k, e)):
    lhs = I_1^e_1, rhs = I_grad^e I_2^e_2 ... I_k^e_k; None gives a
    quotient's ((p, p), (1, 1)).  The constant is a factor of rhs if
    ``constant_on_rhs``, else of lhs.
    ``formula`` is the constant's catalog entry (None: not an inequality).
    """

    params: dict
    formula: str | None = None
    factory: Callable | None = None
    densities: Callable | None = None
    exponents: Callable | None = None
    constant_on_rhs: bool = False


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
        _gn_exponents,
        constant_on_rhs=True,
    ),
    "uncertainty": Kind(
        {"p": float, "s": float, "a": float},
        "(p/(|alpha|(p-1)))^(p/a)",
        uncertainty_case,
        _uncertainty_factors,
        _uncertainty_exponents,
        constant_on_rhs=True,
    ),
    "hardy-sobolev": Kind(
        {"p": float, "theta": float, "p_star": float, "sobolev_constant": float},
        "C2 = S(p) H^(1/p)/(|theta| + H^(1/p))",
        hardy_sobolev_case,
        _hardy_sobolev_factors,
        _hardy_sobolev_exponents,
    ),
    "ckn": Kind(
        {"p": float, "theta": float, "p_star": float, "r": float, "a": float,
         "gamma": float, "delta": float, "eps": None, "sigma": 0.0,
         "sobolev_constant": float},
        "C3 = C2^(p*(r-p)/(r(p*-p))) H^(a/p - p*(r-p)/(p r (p*-p)))",
        ckn_case,
        _ckn_factors,
        _ckn_exponents,
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
    "divergence-lemma": Kind(
        {"p": float, "field": "davies-hinz"}, "p^p", densities=_field_factors,
        constant_on_rhs=True,
    ),
    "classification": Kind({"p": float, "a": 1.0, "decades": 13}),
}
