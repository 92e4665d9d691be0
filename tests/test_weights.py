import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chain_rule_identity_check,
    classify_weight_sign,
    scaled,
    signed_catalog,
    weak_check_bspline_loop,
)

from phardy import weights
from phardy.capacity import green_integrals
from phardy.errors import InvalidArgumentError, ParabolicModelError, UnsupportedModelError
from phardy.geometry import (
    CoordinateRange,
    ModelManifold,
    euclidean_radial,
    hyperbolic_radial,
    interval,
)
from phardy.grids import build_grid
from phardy.weights import (
    green_weight_radial,
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


def test_weak_check_matches_bspline_loop_oracle():
    # absolute agreement: on harmonic entries worst_value is ~1e-14 roundoff
    for w, grid in _catalog_weights():
        for sign in (+1, -1):
            res = weak_superharmonicity_check(w, grid, sign=sign)
            worst, _, n_bumps = weak_check_bspline_loop(w, grid, sign=sign)
            assert res.passed == (worst >= -weights.TOL_WEAK)
            assert res.n_bumps == n_bumps
            assert abs(res.worst_value - worst) <= 1e-12, (sign, res.worst_value, worst)


def test_classify_matches_both_one_sided_checks():
    for w, grid in _catalog_weights():
        sup = weak_superharmonicity_check(w, grid, sign=+1).passed
        sub = weak_superharmonicity_check(w, grid, sign=-1).passed
        expected = {(True, True): "harmonic", (True, False): "superharmonic",
                    (False, True): "subharmonic", (False, False): "indefinite"}[sup, sub]
        assert classify_weight_sign(w, grid) == expected


@pytest.mark.parametrize("n", range(3, 7))
def test_weak_check_rejects_grid_without_bumps(n):
    w = rho_catalog_entry("power", E3, 2.0, beta=-1.0)
    with pytest.raises(InvalidArgumentError, match="too coarse"):
        weak_superharmonicity_check(w, wide_grid(n))


@pytest.mark.parametrize("n", range(7, 19))
def test_weak_check_small_grids_use_width_3_only(n):
    # width 9 needs 19 nodes; width-3 centres are the integers 3..n-4, 8 at most
    w = rho_catalog_entry("power", E3, 2.0, beta=2.0)
    res = weak_superharmonicity_check(w, wide_grid(n))
    assert res.n_bumps == min(8, n - 6) == weak_check_bspline_loop(w, wide_grid(n))[2]
    assert res.worst_width == 3


def test_weak_check_block_size_is_invisible(monkeypatch):
    cases = list(_catalog_weights())
    before = [weak_superharmonicity_check(w, g, sign=s) for w, g in cases for s in (1, -1)]
    monkeypatch.setattr(weights, "_BUMP_BLOCK", 7)
    after = [weak_superharmonicity_check(w, g, sign=s) for w, g in cases for s in (1, -1)]
    assert after == before


def test_weak_check_zero_flux_bumps_score_zero():
    # a constant weight has zero flux: every bump is 0/0 and scores +0.0
    w = rho_catalog_entry("constant", interval(0, 1), 2.0, c=2.5)
    grid = build_grid(CoordinateRange(0.0, 1.0), 101, "linear")
    for sign in (+1, -1):
        res = weak_superharmonicity_check(w, grid, sign=sign)
        assert res.passed and math.copysign(1.0, res.worst_value) == 1.0
        assert res.worst_value == 0.0 and (res.worst_center, res.worst_width) == (grid.nodes[3], 3)
    assert classify_weight_sign(w, grid) == "harmonic"


def test_weak_check_locates_the_kink():
    # rho = min(x, 1-x) is p-superharmonic with a point mass at the kink 1/2:
    # the subharmonic check fails worst on the width-3 bump centred there
    m = interval(0.0, 1.0)
    grid = build_grid(CoordinateRange(0, 1), 901, "linear")
    res = weak_superharmonicity_check(rho_catalog_entry("dist-boundary", m, 2.0), grid, sign=-1)
    assert res.worst_value == pytest.approx(-1.0)
    assert (res.worst_center, res.worst_width) == (0.5, 3)


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


def test_green_euclidean3_profile_shape():
    grid = build_grid(CoordinateRange(0.1, 50.0), 1500, "log")
    w = green_weight_radial(E3, 2.0, grid)
    t = grid.nodes[[100, 500, 900, 1300]]
    expected = (1.0 / t - 1.0 / grid.hi) / (4 * math.pi)
    np.testing.assert_allclose(w.rho(t), expected, rtol=1e-10)


def test_green_is_sampled_suffix_with_exact_slope():
    # E3, p = 2: s = 4 pi t^2, so rho' = -1/(4 pi t^2) between the nodes too
    grid = build_grid(CoordinateRange(0.1, 50.0), 300, "log")
    w = green_weight_radial(E3, 2.0, grid)
    assert w.name == w.family == "green"
    suffix = green_integrals(E3, 2.0, grid.nodes)[1]
    assert np.array_equal(w.rho(grid.nodes), suffix)
    mid = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    np.testing.assert_allclose(w.rho_prime(mid), -1.0 / (4 * math.pi * mid**2), rtol=1e-13)
    cell_slopes = np.diff(suffix) / np.diff(grid.nodes)
    assert np.all(np.abs(w.rho_prime(mid) - cell_slopes) > 1e-6 * np.abs(cell_slopes))


def test_green_parabolic_rejected():
    grid = build_grid(CoordinateRange(0.1, 50.0), 500, "log")
    with pytest.raises(ParabolicModelError):
        green_weight_radial(euclidean_radial(2), 2.0, grid)


def test_green_hyperbolic_value():
    # integral_1^inf csch = -ln tanh(1/2) = 0.7719368... (closed antiderivative)
    grid = build_grid(CoordinateRange(1.0, 60.0), 2500, "log")
    w = green_weight_radial(hyperbolic_radial(2), 2.0, grid)
    val = w.rho(grid.nodes[:1])[0] * 2 * math.pi
    assert val == pytest.approx(0.7719368329053048, abs=1e-9)


def test_green_passes_superharmonicity():
    grid = build_grid(CoordinateRange(0.1, 50.0), 1200, "log")
    w = green_weight_radial(E3, 2.0, grid)
    sub = build_grid(CoordinateRange(0.2, 20.0), 800, "log")
    res = weak_superharmonicity_check(w, sub)
    assert res.passed and abs(res.worst_value) < 1e-6


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
