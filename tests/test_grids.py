import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cell_gauss_integrate, refine

from phardy.errors import InvalidArgumentError, NonFiniteIntegrandError
from phardy.forms import P1Forms
from phardy.geometry import CoordinateRange
from phardy.grids import GridFunction, build_grid, cell_gauss


def p1_integral(grid, values):
    """int |u| of the P1 interpolant of values."""
    return P1Forms(grid, lambda t: (np.ones_like(t), np.ones_like(t))).evaluate(values, 1.0)[1]


def test_uniform_three_node_weights():
    g = build_grid(CoordinateRange(0, 1), 3, "linear")
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(cell_gauss(g.nodes)[1].sum(axis=0), [0.5, 0.5])


def test_log_three_node_weights():
    g = build_grid(CoordinateRange(1e-2, 1.0), 3, "log")
    np.testing.assert_allclose(g.nodes, [1e-2, 1e-1, 1.0], rtol=1e-14)
    np.testing.assert_allclose(cell_gauss(g.nodes)[1].sum(axis=0), [0.09, 0.9], rtol=1e-13)


@given(
    lo=st.floats(min_value=1e-3, max_value=1.0),
    width=st.floats(min_value=0.1, max_value=100.0),
    n=st.integers(min_value=3, max_value=200),
    spacing=st.sampled_from(["linear", "log"]),
)
@settings(max_examples=50, deadline=None)
def test_weights_sum_to_range_width(lo, width, n, spacing):
    g = build_grid(CoordinateRange(lo, lo + width), n, spacing)
    assert np.sum(cell_gauss(g.nodes)[1]) == pytest.approx(width, rel=1e-12)


def test_integrate_constant_linear_quadratic():
    g1 = build_grid(CoordinateRange(0, 1), 7, "linear")
    assert p1_integral(g1, np.ones(7)) == pytest.approx(1.0, abs=1e-14)
    g2 = build_grid(CoordinateRange(0, 1), 101, "linear")
    assert p1_integral(g2, g2.nodes) == pytest.approx(0.5, abs=1e-12)
    g3 = build_grid(CoordinateRange(0, 1), 1001, "linear")
    assert p1_integral(g3, g3.nodes ** 2) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_integrate_rejects_non_finite():
    # the density is infinite at the node 1/2: that counts only where the
    # interpolant does not vanish
    g = build_grid(CoordinateRange(0, 1), 5, "linear")
    sides = P1Forms(g, lambda t: (1.0 / np.abs(t - 0.5), np.ones_like(t)))
    with pytest.raises(NonFiniteIntegrandError):
        sides.integrals(np.ones((1, 5)), (1.0, 1.0))
    [(lhs, rhs)] = sides.integrals(np.array([[1.0, 0.0, 0.0, 0.0, 1.0]]), (1.0, 1.0))
    assert np.isfinite(lhs) and rhs == pytest.approx(2.0)


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
    # P1 interpolant of exp: error ratio between n and 2n-1 gives slope >= 1.9
    exact = math.e - 1.0
    errs = []
    g = build_grid(CoordinateRange(0, 1), 33, "linear")
    for _ in range(3):
        errs.append(abs(p1_integral(g, np.exp(g.nodes)) - exact))
        g = refine(g)
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(slopes) >= 1.9


def test_grid_function_dirichlet_validation():
    g = build_grid(CoordinateRange(0, 1), 5, "linear")
    GridFunction(g, np.array([0, 1, 2, 1, 0.0]))
    for values in ([1, 1, 2, 1, 0.0], [0, 1, 2, 1, 1.0], np.ones(5)):
        with pytest.raises(InvalidArgumentError):
            GridFunction(g, np.array(values))
    with pytest.raises(InvalidArgumentError):
        GridFunction(g, np.ones(4))


def test_cell_gauss_integrate_polynomial_exact():
    nodes = np.geomspace(0.1, 3.0, 7)
    val = cell_gauss_integrate(nodes, lambda t: t ** 5)
    assert val == pytest.approx((3.0 ** 6 - 0.1 ** 6) / 6.0, rel=1e-14)
