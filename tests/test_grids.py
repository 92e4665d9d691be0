import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phardy.errors import InvalidArgumentError, NonFiniteIntegrandError
from phardy.geometry import CoordinateRange
from phardy.grids import (
    GridFunction,
    build_grid,
    cell_gauss_integrate,
    derivative_values,
    refine,
    trapezoid_weights,
)


def test_uniform_three_node_weights():
    g = build_grid(CoordinateRange(0, 1), 3, "linear")
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(g.quad_weights, [0.25, 0.5, 0.25])


def test_log_three_node_weights():
    g = build_grid(CoordinateRange(1e-2, 1.0), 3, "log")
    np.testing.assert_allclose(g.nodes, [1e-2, 1e-1, 1.0], rtol=1e-14)
    np.testing.assert_allclose(g.quad_weights, [0.045, 0.495, 0.45], rtol=1e-13)


@given(
    lo=st.floats(min_value=1e-3, max_value=1.0),
    width=st.floats(min_value=0.1, max_value=100.0),
    n=st.integers(min_value=3, max_value=200),
    spacing=st.sampled_from(["linear", "log"]),
)
@settings(max_examples=50, deadline=None)
def test_weights_sum_to_range_width(lo, width, n, spacing):
    g = build_grid(CoordinateRange(lo, lo + width), n, spacing)
    assert np.sum(g.quad_weights) == pytest.approx(width, rel=1e-12)


def test_integrate_constant_linear_quadratic():
    g1 = build_grid(CoordinateRange(0, 1), 7, "linear")
    assert g1.integrate(np.ones(7)) == pytest.approx(1.0, abs=1e-14)
    g2 = build_grid(CoordinateRange(0, 1), 101, "linear")
    assert g2.integrate(g2.nodes) == pytest.approx(0.5, abs=1e-12)
    g3 = build_grid(CoordinateRange(0, 1), 1001, "linear")
    assert g3.integrate(g3.nodes ** 2) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_integrate_rejects_non_finite():
    g = build_grid(CoordinateRange(0, 1), 5, "linear")
    vals = np.ones(5)
    vals[2] = np.inf
    with pytest.raises(NonFiniteIntegrandError):
        g.integrate(vals)


def test_build_grid_validation():
    with pytest.raises(InvalidArgumentError):
        build_grid(CoordinateRange(0, 1), 2, "linear")
    with pytest.raises(InvalidArgumentError):
        build_grid(CoordinateRange(0, 1), 10, "log")
    with pytest.raises(InvalidArgumentError):
        build_grid(CoordinateRange(0, 1), 10, "chebyshev")


def test_logarithmic_spelling_accepted():
    g = build_grid(CoordinateRange(0.1, 1), 5, "logarithmic")
    assert g.spacing == "log"


def test_derivative_exactness():
    g = build_grid(CoordinateRange(0.5, 2.0), 41, "log")
    np.testing.assert_allclose(derivative_values(g.nodes, np.full(41, 3.0)), 0.0, atol=1e-13)
    np.testing.assert_allclose(
        derivative_values(g.nodes, 2.0 * g.nodes - 1.0), 2.0, rtol=1e-11
    )
    gu = build_grid(CoordinateRange(0, 1), 21, "linear")
    d = derivative_values(gu.nodes, gu.nodes ** 2)
    np.testing.assert_allclose(d, 2.0 * gu.nodes, atol=1e-12)


def test_refine_nesting_and_midpoints():
    g = build_grid(CoordinateRange(0, 1), 3, "linear")
    f = refine(g)
    np.testing.assert_allclose(f.nodes, [0, 0.25, 0.5, 0.75, 1.0])
    gl = build_grid(CoordinateRange(1e-2, 1e2), 9, "log")
    fl = refine(gl)
    assert set(gl.nodes).issubset(set(fl.nodes))
    mids = fl.nodes[1::2]
    np.testing.assert_allclose(mids, np.sqrt(gl.nodes[:-1] * gl.nodes[1:]), rtol=1e-14)


@given(
    n=st.integers(min_value=3, max_value=60),
    spacing=st.sampled_from(["linear", "log"]),
)
@settings(max_examples=30, deadline=None)
def test_refine_preserves_nodes(n, spacing):
    g = build_grid(CoordinateRange(0.3, 7.0), n, spacing)
    f = refine(g)
    assert f.n == 2 * n - 1
    np.testing.assert_array_equal(f.nodes[0::2], g.nodes)


def test_quadrature_convergence_order():
    # trapezoid on exp: error ratio between n and 2n-1 gives slope >= 1.9
    exact = math.e - 1.0
    errs = []
    g = build_grid(CoordinateRange(0, 1), 33, "linear")
    for _ in range(3):
        errs.append(abs(g.integrate(np.exp(g.nodes)) - exact))
        g = refine(g)
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(slopes) >= 1.9


def test_grid_function_dirichlet_validation():
    g = build_grid(CoordinateRange(0, 1), 5, "linear")
    GridFunction(g, np.array([0, 1, 2, 1, 0.0]), dirichlet_zero=True)
    with pytest.raises(InvalidArgumentError):
        GridFunction(g, np.ones(5), dirichlet_zero=True)
    with pytest.raises(InvalidArgumentError):
        GridFunction(g, np.ones(4))


def test_grid_function_helpers(tmp_path):
    g = build_grid(CoordinateRange(0, 1), 11, "linear")
    f = GridFunction(g, g.nodes * (1 - g.nodes))
    assert f.integrate() == pytest.approx(1.0 / 6.0, abs=2e-3)
    np.testing.assert_allclose(f.derivative(), 1.0 - 2.0 * g.nodes, atol=1e-12)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,value"
    assert len(lines) == 12


def test_cell_gauss_integrate_polynomial_exact():
    nodes = np.geomspace(0.1, 3.0, 7)
    val = cell_gauss_integrate(nodes, lambda t: t ** 5)
    assert val == pytest.approx((3.0 ** 6 - 0.1 ** 6) / 6.0, rel=1e-14)


def test_trapezoid_weights_nonuniform():
    nodes = np.array([0.0, 0.1, 0.4, 1.0])
    w = trapezoid_weights(nodes)
    np.testing.assert_allclose(w, [0.05, 0.2, 0.45, 0.3])
