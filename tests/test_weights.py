import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    chain_rule_identity_check,
    classify_weight_sign,
    scaled,
    signed_catalog,
    weak_check_hat_loop,
    weight_flux,
)

from phardy import weights
from phardy.errors import InvalidArgumentError, UnsupportedModelError
from phardy.geometry import (
    CoordinateRange,
    ModelManifold,
    euclidean_radial,
    hyperbolic_radial,
    interval,
)
from phardy.grids import build_grid
from phardy.weights import (
    parse_weight,
    rho_catalog_entry,
    weak_superharmonicity_check,
    weight_from_samples,
)

E3 = euclidean_radial(3)
WIDE = CoordinateRange(1e-2, 1e2)


def wide_grid(n=900):
    return build_grid(WIDE, n, "log")


def test_halfplane_height_harmonic():
    w = rho_catalog_entry("halfplane-y", ModelManifold("half_plane"), 2.0)
    t = np.geomspace(0.1, 10, 20)
    assert np.all(w.grad_norm(t) == t)


def test_weak_check_harmonic_near_zero():
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    res = weak_superharmonicity_check(w, wide_grid())
    assert res.passed
    assert abs(res.worst_value) < 1e-6


def test_weak_check_detects_subharmonic():
    w = rho_catalog_entry("power", E3, 2.0, beta=2.0)
    res = weak_superharmonicity_check(w, wide_grid(), sign=+1)
    assert not res.passed and res.worst_value < 0
    res_sub = weak_superharmonicity_check(w, wide_grid(), sign=-1)
    assert res_sub.passed


def test_weak_check_interval_kink_superharmonic():
    m = interval(0.0, 1.0)
    w = rho_catalog_entry("dist-boundary", m, 2.0)
    grid = build_grid(CoordinateRange(0, 1), 901, "linear")
    assert weak_superharmonicity_check(w, grid, sign=+1).passed
    assert not weak_superharmonicity_check(w, grid, sign=-1).passed


def test_weak_check_sampled_matches_distributional_oracle():
    # flux form with rho = min(x, 1-x): functional = 2 phi(1/2) exactly
    m = interval(0.0, 1.0)
    grid = build_grid(CoordinateRange(0, 1), 101, "linear")
    w = weight_from_samples("kink", m, 2.0, grid, np.minimum(grid.nodes, 1 - grid.nodes))
    res = weak_superharmonicity_check(w, grid, sign=+1)
    assert res.passed


def test_harmonic_powers_across_dims_and_p():
    # rho = r^((p-N)/(p-1)) is p-harmonic: |worst| < 1e-6 for the grid family
    for n in (2, 3, 4, 5):
        for p in (1.5, 2.0, 3.0):
            if p == n:
                continue
            beta = (p - n) / (p - 1.0)
            w = rho_catalog_entry("power", euclidean_radial(n), p, beta=beta)
            res = weak_superharmonicity_check(w, wide_grid(600))
            assert abs(res.worst_value) < 1e-6, (n, p, res.worst_value)


@given(lam=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=20, deadline=None)
def test_weak_functional_scaling(lam):
    p = 3.0
    w = rho_catalog_entry("power", E3, p, beta=2.0)
    grid = wide_grid(300)
    base = weak_superharmonicity_check(w, grid, sign=-1)
    res = weak_superharmonicity_check(scaled(w, lam), grid, sign=-1)
    assert res.passed == base.passed
    assert res.worst_raw == pytest.approx(
        base.worst_raw * lam ** (p - 1.0), rel=1e-10
    )


def test_catalog_sign_agreement():
    for entry in signed_catalog():
        assert classify_weight_sign(entry.weight, entry.grid) == entry.expected


def _catalog_weights():
    """Each signed-catalog weight in closed form and as its node samples."""
    for e in signed_catalog():
        w = e.weight
        yield w, e.grid
        yield weight_from_samples(w.name, w.model, w.p, e.grid, w.rho(e.grid.nodes)), e.grid


CATALOG_WEIGHTS = list(_catalog_weights())


@functools.lru_cache(maxsize=None)
def _catalog_hats(k):
    """The hat-loop oracle's (raw, norm) lists of CATALOG_WEIGHTS[k]."""
    return weak_check_hat_loop(*CATALOG_WEIGHTS[k])


def _oracle_worst(raw, norm, sign):
    return min(sign * r / a if 0.0 < a < math.inf else 0.0 for r, a in zip(raw, norm))


def test_weak_check_matches_hat_loop_oracle():
    # absolute agreement: on harmonic entries worst_value is ~1e-15 roundoff
    for k, (w, grid) in enumerate(CATALOG_WEIGHTS):
        raw, norm = _catalog_hats(k)
        for sign in (+1, -1):
            res = weak_superharmonicity_check(w, grid, sign=sign)
            worst = _oracle_worst(raw, norm, sign)
            assert res.passed == (worst >= -weights.TOL_WEAK)
            assert res.n_bumps == len(raw) == grid.n - 2
            assert abs(res.worst_value - worst) <= 1e-12, (sign, res.worst_value, worst)


@given(
    pick=st.sampled_from([(k, sign) for k in range(len(CATALOG_WEIGHTS)) for sign in (1, -1)]),
    seed=st.integers(0, 2**32 - 1),
    support=st.floats(0.0, 1.0),
)
@settings(max_examples=25, deadline=None)
def test_passing_weight_holds_on_every_nonnegative_p1_function(pick, seed, support):
    # the hats span the cone of nonnegative P1 functions: when each passes,
    # sign * l(u) >= -TOL_WEAK * sum_i u_i N_i with N_i hat i's normalizer;
    # l(u) = int flux u' is integrated directly, 12 Gauss points per cell
    k, sign = pick
    w, grid = CATALOG_WEIGHTS[k]
    assume(weak_superharmonicity_check(w, grid, sign=sign).passed)
    rng = np.random.default_rng(seed)
    u = rng.exponential(size=grid.n - 2) * (rng.random(grid.n - 2) < support)
    slope = np.diff(np.concatenate(([0.0], u, [0.0]))) / np.diff(grid.nodes)
    z, gw = np.polynomial.legendre.leggauss(12)
    a, b = grid.nodes[:-1, None], grid.nodes[1:, None]
    flux = weight_flux(w)(0.5 * (a + b) + 0.5 * (b - a) * z)
    ell = float(np.sum(0.5 * (b - a) * gw * flux * slope[:, None]))
    assert sign * ell >= -weights.TOL_WEAK * float(np.dot(u, _catalog_hats(k)[1]))


def test_classify_matches_both_one_sided_checks():
    for w, grid in CATALOG_WEIGHTS:
        sup = weak_superharmonicity_check(w, grid, sign=+1).passed
        sub = weak_superharmonicity_check(w, grid, sign=-1).passed
        expected = {(True, True): "harmonic", (True, False): "superharmonic",
                    (False, True): "subharmonic", (False, False): "indefinite"}[sup, sub]
        assert classify_weight_sign(w, grid) == expected


@pytest.mark.parametrize("n", range(3, 19))
def test_weak_check_tests_every_interior_node(n):
    # no grid is too coarse: each of its n - 2 interior nodes has a hat
    w = rho_catalog_entry("power", E3, 2.0, beta=2.0)
    grid = wide_grid(n)
    res = weak_superharmonicity_check(w, grid)
    raw, norm = weak_check_hat_loop(w, grid)
    assert res.n_bumps == len(raw) == n - 2
    assert abs(res.worst_value - _oracle_worst(raw, norm, 1)) <= 1e-12
    assert res.worst_center in grid.nodes[1:-1]


def test_weak_check_three_nodes_test_one_hat():
    # one interior node, 1/2: its hat alone decides.  For rho = min(x, 1-x)
    # the flux is 1 then -1, for rho = x^2 it is 2x (means 1/2 and 3/2)
    m = interval(0.0, 1.0)
    grid = build_grid(CoordinateRange(0.0, 1.0), 3, "linear")
    for w, worst in ((rho_catalog_entry("dist-boundary", m, 2.0), 1.0),
                     (rho_catalog_entry("power", m, 2.0, beta=2.0), -0.5)):
        res = weak_superharmonicity_check(w, grid)
        assert (res.n_bumps, res.worst_center) == (1, 0.5)
        assert res.worst_value == pytest.approx(worst, abs=1e-15)


def test_weak_check_zero_flux_bumps_score_zero():
    # a constant weight has zero flux: every hat is 0/0 and scores +0.0
    w = rho_catalog_entry("constant", interval(0, 1), 2.0, c=2.5)
    grid = build_grid(CoordinateRange(0.0, 1.0), 101, "linear")
    for sign in (+1, -1):
        res = weak_superharmonicity_check(w, grid, sign=sign)
        assert res.passed and math.copysign(1.0, res.worst_value) == 1.0
        assert (res.worst_value, res.worst_center, res.n_bumps) == (0.0, grid.nodes[1], 99)
    assert classify_weight_sign(w, grid) == "harmonic"


def test_weak_check_locates_the_kink():
    # rho = min(x, 1-x) is p-superharmonic with a point mass at the kink 1/2:
    # the subharmonic check fails worst on the hat of the node there
    m = interval(0.0, 1.0)
    grid = build_grid(CoordinateRange(0, 1), 901, "linear")
    res = weak_superharmonicity_check(rho_catalog_entry("dist-boundary", m, 2.0), grid, sign=-1)
    assert res.worst_value == pytest.approx(-1.0)
    assert res.worst_center == 0.5


def test_chain_rule_constant_weight_guarded():
    w = rho_catalog_entry("constant", interval(0, 1), 2.0, c=2.5)
    grid = build_grid(CoordinateRange(0.1, 1), 101, "linear")
    assert chain_rule_identity_check(w, 0.5, grid) == 0.0


def test_chain_rule_identity_map():
    m = interval(0.0, 1.0)
    w = rho_catalog_entry("power", m, 2.0, beta=1.0)
    grid = build_grid(CoordinateRange(0.1, 1.0), 201, "linear")
    assert chain_rule_identity_check(w, 1.0, grid) < 1e-12


def test_chain_rule_sqrt_case():
    # both sides equal (1/4) ln 10 analytically; quadrature error < 1e-4
    m = interval(0.0, 1.0)
    w = rho_catalog_entry("power", m, 2.0, beta=1.0)
    grid = build_grid(CoordinateRange(0.1, 1.0), 1001, "linear")
    assert chain_rule_identity_check(w, 0.5, grid) < 1e-4


def test_parse_weight_strings():
    w = parse_weight("power:beta=-1", E3, 2.0)
    assert w.family == "power" and w.params["beta"] == -1.0
    w2 = parse_weight("log:side=inner", E3, 2.0)
    assert w2.params["side"] == "inner"
    w3 = parse_weight("log:outer", E3, 2.0)
    assert w3.params["side"] == "outer"
    with pytest.raises(InvalidArgumentError):
        parse_weight("mystery", E3, 2.0)
    with pytest.raises(InvalidArgumentError):
        parse_weight("power:beta=0", E3, 2.0)


#: each catalog family: its parameters, the weight's documented name and
#: params, and the model kinds it lives on
CATALOG = {
    "power": ({"beta": -1}, "power:beta=-1", {"beta": -1.0}, "EHPI"),
    "log": ({}, "log:inner", {"side": "inner"}, "EHI"),
    "rlogr": ({}, "rlogr", {}, "EHPI"),
    "dist-boundary": ({}, "dist-boundary", {}, "I"),
    "halfplane-y": ({}, "halfplane-y", {}, "P"),
    "constant": ({}, "constant:c=1", {"c": 1.0}, "EHPI"),
}
MODEL_KINDS = {
    "E": euclidean_radial(3), "H": hyperbolic_radial(3), "P": ModelManifold("half_plane"),
    "I": interval(0.0, 1.0),
}


@pytest.mark.parametrize("model_key", sorted(MODEL_KINDS))
@pytest.mark.parametrize("family", sorted(weights._FAMILIES))
def test_catalog_family_on_each_model_kind(family, model_key):
    assert CATALOG.keys() == weights._FAMILIES.keys()
    params, name, weight_params, lives_on = CATALOG[family]
    model = MODEL_KINDS[model_key]
    if model_key not in lives_on:
        with pytest.raises(UnsupportedModelError):
            rho_catalog_entry(family, model, 2.0, **params)
        return
    w = rho_catalog_entry(family, model, 2.0, **params)
    assert (w.name, w.family, w.params, w.model, w.p) == (name, family, weight_params, model, 2.0)
    assert parse_weight(name, model, 2.0).params == weight_params


def test_weight_from_samples_interpolates():
    grid = build_grid(CoordinateRange(0, 1), 101, "linear")
    w = weight_from_samples("phi", interval(0, 1), 2.0, grid, np.sin(np.pi * grid.nodes))
    assert w.rho(np.array([0.5]))[0] == pytest.approx(1.0, abs=1e-4)
    expected = math.pi * math.cos(0.505 * math.pi)
    assert w.rho_prime(np.array([0.505]))[0] == pytest.approx(expected, abs=1e-4)


def test_weight_from_samples_is_p1():
    # on a nonuniform grid rho' is the chord slope of rho inside each cell
    # and 0 outside the grid, where rho is frozen
    grid = build_grid(CoordinateRange(0.1, 10.0), 40, "log")
    w = weight_from_samples("s", E3, 2.0, grid, np.cos(grid.nodes))
    x, h = grid.nodes, np.diff(grid.nodes)
    a, b = x[:-1] + 0.1 * h, x[:-1] + 0.9 * h
    chord = (w.rho(b) - w.rho(a)) / (b - a)
    for theta in (0.1, 0.5, 0.9):
        np.testing.assert_allclose(w.rho_prime(x[:-1] + theta * h), chord, rtol=0, atol=1e-12)
    outside = np.array([0.01, 0.09, 10.5, 1e3])
    assert np.all(w.rho_prime(outside) == 0.0)
    np.testing.assert_array_equal(w.rho(outside), np.cos(x[[0, 0, -1, -1]]))
