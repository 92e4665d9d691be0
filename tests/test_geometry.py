import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phardy.errors import DomainError, InvalidArgumentError, UnsupportedModelError
from phardy.geometry import (
    CoordinateRange,
    ModelManifold,
    euclidean_radial,
    hyperbolic_radial,
    interval,
    model_from_config,
    sphere_area,
)


def test_euclidean_density_unit_circle():
    m = euclidean_radial(2)
    assert m.volume_density(1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_half_plane_density():
    m = ModelManifold("half_plane")
    assert m.volume_density(2.0) == pytest.approx(0.25, rel=1e-15)


def test_hyperbolic_density_matches_library_sinh():
    m = hyperbolic_radial(2)
    assert m.volume_density(1.0) == pytest.approx(2 * math.pi * math.sinh(1.0), rel=1e-14)
    assert m.volume_density(1.0) == pytest.approx(7.3840069, rel=1e-7)


def test_gradient_factors():
    assert interval(0, 1).gradient_factor(0.5) == 1.0
    assert ModelManifold("half_plane").gradient_factor(3.0) == 3.0
    assert euclidean_radial(3).gradient_factor(7.0) == 1.0


def test_distance_laplacian():
    assert euclidean_radial(3).laplacian_of_distance(2.0) == pytest.approx(1.0)
    assert hyperbolic_radial(2).laplacian_of_distance(1.0) == pytest.approx(
        1.0 / math.tanh(1.0), rel=1e-14
    )
    assert euclidean_radial(2).laplacian_of_distance(0.5) == pytest.approx(2.0)
    with pytest.raises(UnsupportedModelError):
        ModelManifold("half_plane").laplacian_of_distance(1.0)
    with pytest.raises(UnsupportedModelError):
        interval(0, 1).laplacian_of_distance(0.5)


def test_domain_errors():
    with pytest.raises(DomainError):
        euclidean_radial(3).volume_density(-1.0)
    with pytest.raises(DomainError):
        ModelManifold("half_plane").gradient_factor(0.0)
    with pytest.raises(DomainError):
        interval(0, 1).volume_density(1.5)


def test_positivity_on_range():
    t = np.geomspace(1e-6, 1e2, 200)
    for m in (euclidean_radial(2), hyperbolic_radial(4), ModelManifold("half_plane")):
        assert np.all(m.volume_density(t) > 0)
        assert np.all(m.gradient_factor(t) > 0)


@given(
    lam=st.floats(min_value=0.01, max_value=100.0),
    t=st.floats(min_value=0.01, max_value=50.0),
    n=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_euclidean_density_homogeneity(lam, t, n):
    m = euclidean_radial(n)
    ratio = m.volume_density(lam * t) / m.volume_density(t)
    assert ratio == pytest.approx(lam ** (n - 1), rel=1e-12)


def test_hyperbolic_dominates_euclidean():
    t = np.geomspace(1e-3, 20.0, 100)
    for n in (2, 3, 5):
        assert np.all(
            hyperbolic_radial(n).volume_density(t)
            >= euclidean_radial(n).volume_density(t)
        )


def test_log_density_consistent_and_stable():
    t = np.geomspace(0.1, 50.0, 50)
    for m in (euclidean_radial(3), hyperbolic_radial(3), ModelManifold("half_plane")):
        np.testing.assert_allclose(
            m.log_volume_density(t), np.log(m.volume_density(t)), rtol=1e-12
        )
    # far beyond sinh overflow the log form stays finite
    big = hyperbolic_radial(2).log_volume_density(np.array([1e6]))
    assert np.isfinite(big).all() and big[0] > 1e5


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi ** 2)


def test_coordinate_range_validation():
    with pytest.raises(InvalidArgumentError):
        CoordinateRange(1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        CoordinateRange(-1.0, 1.0)
    r = CoordinateRange(0.5, 2.0)
    assert (r.lo, r.hi) == (0.5, 2.0)


def test_model_from_config():
    assert model_from_config({"kind": "euclidean", "dim": 3}).dim == 3
    assert model_from_config({"kind": "half_plane"}).kind == "half_plane"
    m = model_from_config({"kind": "interval", "a": 0.0, "b": 2.0})
    assert (m.a, m.b) == (0.0, 2.0)
    with pytest.raises(InvalidArgumentError):
        model_from_config({"kind": "torus"})
    with pytest.raises(InvalidArgumentError):
        model_from_config({"kind": "euclidean", "dim": 1})
    with pytest.raises(InvalidArgumentError):
        model_from_config({"kind": "euclidean"})
