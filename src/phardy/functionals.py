"""The inequality kinds, their cases and the sides of each.

Every inequality reduces to 1D integrals of the test function's P1
interpolant on the P1 forms the minimizers use (``case_forms``): volume
elements become the model density s(t), Riemannian gradient norms become
g(t)|u'(t)|.  ``sides_for`` combines them into a SidePair whose margin has
the source inequality's orientation, so an inequality holds iff
margin >= 0 up to discretization tolerance.

``KINDS`` lists each kind once: its config parameters, case factory and
what the factory builds from, catalog formula, the factors of its side
densities and, unless it is a quotient kind, the exponents of its side
integrals.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CollarGradientError,
    InvalidArgumentError,
    NonFiniteIntegrandError,
    RelationViolationError,
    UnsupportedModelError,
)
from .forms import P1Forms, model_densities
from .geometry import EUCLIDEAN, HALF_PLANE, INTERVAL, ModelManifold
from .grids import FunctionBlock, GridFunction, RadialGrid
from .weights import (
    CheckResult, WeightSpec, rho_catalog_entry, weak_superharmonicity_check, weight_from_samples
)

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

_last = None  # (case, grid, forms) of the last assembly case_forms made


def case_forms(case, grid: RadialGrid) -> P1Forms:
    """The P1 forms of the case's densities on grid: the last ones made if
    they were for this case and grid, else new forms, made once the held
    ones are dropped, so no more than one set is alive."""
    global _last
    held = _last
    if held is not None and held[0] is case and held[1] is grid:
        return held[2]
    _last = held = None
    factors = functools.partial(KINDS[case.kind].densities, case)
    forms = P1Forms(grid, model_densities(case.model, case.p, factors))
    _last = (case, grid, forms)
    return forms


def validate_case_hypothesis(case: InequalityCase, grid: RadialGrid) -> CheckResult | None:
    """The weak-form check the case's hypothesis requires, None if it has none."""
    if case.hypothesis_mode is None or case.weight is None:
        return None
    sign = +1 if case.hypothesis_mode == "superharmonic" else -1
    return weak_superharmonicity_check(case.weight, grid, sign=sign)


# ---------------------------------------------------------------------------
# sides: each kind's factors (a_1, ..., a_k, b) and the exponents of its integrals

def sides_for(case: InequalityCase, u: GridFunction | FunctionBlock) -> SidePair | list[SidePair]:
    """Sides of any case whose kind has side densities: from the integrals
    I_1, ..., I_k, I_grad of its forms, lhs = I_1^e_1 and rhs = I_grad^e
    I_2^e_2 ... I_k^e_k with the exponents of its kind (see ``Kind``), the
    constant a factor of the side the kind names.  u is one GridFunction,
    or a FunctionBlock whose rows go to one ``P1Forms.integrals`` call,
    with a SidePair for each; a function gives the same pair alone and in
    a block.  An integral that overflows gives a pair that is not finite;
    a side whose outer power overflows raises NonFiniteIntegrandError."""
    kind = KINDS.get(case.kind)
    if kind is None or kind.densities is None:
        raise InvalidArgumentError(f"no sides evaluator for kind {case.kind!r}")
    block = isinstance(u, FunctionBlock)
    if not (block or isinstance(u, GridFunction)):
        raise InvalidArgumentError(f"sides_for takes a function or a block, got {type(u).__name__}")
    if block and not u:
        return []
    grid, rows = (u[0].grid, u.rows) if block else (u.grid, u.values[None])
    qs = kind.exponents(case)[0] if kind.exponents else (case.p, case.p)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = case_forms(case, grid).integrals(rows, qs)
    pairs = side_pairs(case, sums)
    return pairs[0] if isinstance(u, GridFunction) else pairs


def side_pairs(case: InequalityCase, sums) -> list[SidePair]:
    """The SidePair of each row (I_1, ..., I_k, I_grad) of side integrals,
    in the order and with the powers ``P1Forms.integrals`` takes them for
    the case's kind (see ``sides_for``)."""
    kind = KINDS[case.kind]
    es = kind.exponents(case)[1] if kind.exponents else (1, 1)
    c = case.formula_constant
    pairs = []
    for first, *others, grad in sums:
        try:
            lhs = first ** es[0]
            rhs = (c if kind.constant_on_rhs else 1.0) * grad ** es[-1]
            for term, e in zip(others, es[1:-1]):
                rhs *= term ** e
        except OverflowError:
            raise NonFiniteIntegrandError("a side integral overflows under its power") from None
        margin = rhs - lhs if kind.constant_on_rhs else rhs - c * lhs
        pairs.append(SidePair(lhs=lhs, rhs=rhs, constant=c, margin=margin))
    return pairs


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
    return (p - 1.0 + delta / p, delta, p), (1, 1.0 / p, 1.0 - 1.0 / p)


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
    the log oracle's shift.  The weight must live on the case's model,
    where its sign check and the sides are both taken."""
    if weight.model != model:
        raise InvalidArgumentError(f"weight {weight.name} is built on another model than the case")
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
    field: str,
    p: float,
    case_id: str = "",
) -> InequalityCase:
    """int |u|^p A_h <= p^p int |h|^p / A_h^(p-1) |grad u|^p for the radial
    field called ``field``; no weight, |h| and A_h in the params."""
    if field == "davies-hinz":
        h_mag, a_h = davies_hinz_field(model)
    elif field == "killing":
        h_mag, a_h = killing_field(model, p)
    else:
        raise InvalidArgumentError(f"unknown 'field' {field!r}")
    return InequalityCase(
        kind="divergence-lemma",
        model=model,
        weight=None,
        params={"p": p, "field": field, "h_mag": h_mag, "a_h": a_h},
        formula_constant=p ** p,
        case_id=case_id or f"divergence-lemma[{model.kind}|{field}|p={p:g}]",
    )


# ---------------------------------------------------------------------------
# eigenfunction case factories: each takes the first eigenpair ``pair`` of
# eigen.first_eigenpair, whose grid is the one the case is checked on

def eigen_weight(pair):
    """The first eigenfunction as a catalog weight."""
    return weight_from_samples(
        "eigenfunction", pair.model, pair.p, pair.phi1.grid, pair.phi1.values
    )


def eigen_hardy_case(pair, alpha: float = 0.0, case_id: str = "") -> InequalityCase:
    if alpha >= pair.p - 1.0:
        raise InvalidArgumentError("eigenfunction Hardy needs 'alpha' < p-1")
    return weighted_hardy_case(
        pair.model,
        eigen_weight(pair),
        alpha,
        case_id or f"eigen-hardy[{pair.model.kind}|p={pair.p:g}|alpha={alpha:g}]",
    )


def poincare_eigen_constant(pair, s: float) -> float:
    p = pair.p
    return pair.lambda1 * (p - 1.0 - s) ** (p - 1.0) / p ** p


def poincare_eigen_case(pair, s: float, case_id: str = "") -> InequalityCase:
    """lambda1 (p-1-s)^(p-1)/p^p  int phi1^s |u|^p  <=  int phi1^s |grad u|^p."""
    if not (0.0 < s < pair.p - 1.0):
        raise InvalidArgumentError("need 0 < 's' < p-1")
    case_id = case_id or f"poincare-eigen[{pair.model.kind}|p={pair.p:g}|s={s:g}]"
    const = poincare_eigen_constant(pair, s)
    return weighted_case("poincare-eigen", pair.model, eigen_weight(pair), const, case_id, s=s)


def collar_split(model: ModelManifold, grid: RadialGrid, eps_split: float):
    """The nodes within eps_split of the interval's ends (the collar) and
    the cells between two such nodes; both it and the rest must be nonempty."""
    if model.kind != INTERVAL:
        raise InvalidArgumentError("composite constant implemented on intervals")
    collar = np.minimum(grid.nodes - model.a, model.b - grid.nodes) < eps_split
    collar_cells = collar[:-1] & collar[1:]
    if not np.any(collar_cells) or not np.any(~collar):
        raise InvalidArgumentError("'eps_split' leaves an empty collar or interior")
    return collar, collar_cells


def distance_hardy_constant(pair, eps_split: float) -> float:
    """Composite constant for the distance-from-boundary Hardy inequality.

    Splits the interval into a boundary collar (where the eigenfunction
    Hardy inequality controls 1/d^p through the collar gradient bound) and
    the interior (where the Poincare-type inequality does, at s = (p-1)/2),
    and takes half the worse of the two explicit constants.  The gradient
    bounds are the cell slopes of phi1: the least over cells inside the
    collar, the largest over all cells.
    """
    p = pair.p
    s = 0.5 * (p - 1.0)
    collar, collar_cells = collar_split(pair.model, pair.phi1.grid, eps_split)
    slope = np.abs(np.diff(pair.phi1.values) / np.diff(pair.phi1.grid.nodes))
    b_min = float(np.min(slope[collar_cells]))
    if b_min <= 0:
        raise CollarGradientError("eigenfunction gradient vanishes on the collar")
    lip = float(np.max(slope))
    l_eps = float(np.min(pair.phi1.values[~collar]))
    c_collar = ((p - 1.0) / p) ** p * b_min ** p / lip ** p
    c_inner = poincare_eigen_constant(pair, s) * l_eps ** s * eps_split ** p
    return 0.5 * min(c_collar, c_inner)


def distance_hardy_case(pair, eps_split: float = 0.1, case_id: str = "") -> InequalityCase:
    """c int |u|^p / d^p <= int |grad u|^p with the composite constant c:
    the Hardy quotient of rho = d, under a smaller constant."""
    weight = rho_catalog_entry("dist-boundary", pair.model, pair.p)
    const = distance_hardy_constant(pair, eps_split)
    case_id = case_id or f"distance-hardy[{pair.model.kind}|p={pair.p:g}|eps={eps_split:g}]"
    return weighted_case("distance-hardy", pair.model, weight, const, case_id, eps_split=eps_split)


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
    ``source`` says what ``factory`` builds a case from, given ``case_id=``
    and the params: ``"weight"``, ``factory(model, weight, **params)``;
    ``"field"``, ``factory(model, **params)``; ``"eigenpair"``,
    ``factory(pair, **params)`` (weight and pair bring p); ``"model"``: no
    factory, the kind is a check on the model, not an inequality case.
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
    source: str = "weight"


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
    "eigen-hardy": Kind(
        {"p": float, "alpha": 0.0}, "((p-1-alpha)/p)^p", eigen_hardy_case, source="eigenpair"
    ),
    "poincare-eigen": Kind(
        {"p": float, "s": float}, "lam1 (p-1-s)^(p-1)/p^p", poincare_eigen_case,
        _poincare_factors, source="eigenpair",
    ),
    "distance-hardy": Kind(
        {"p": float, "eps_split": 0.1},
        "min(((p-1)/p)^p b^p/L^p, lam1 (p-1-s)^(p-1)/p^p l^s eps^p)/2",
        distance_hardy_case, _hardy_factors, source="eigenpair",
    ),
    "divergence-lemma": Kind(
        {"p": float, "field": "davies-hinz"}, "p^p", divergence_case, _field_factors,
        constant_on_rhs=True, source="field",
    ),
    "classification": Kind({"p": float, "a": 1.0, "decades": 13}, source="model"),
}
