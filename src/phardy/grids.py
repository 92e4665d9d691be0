"""Nonuniform 1D grids, trapezoid quadrature and finite differences.

Grids carry composite trapezoid weights on an arbitrary strictly
increasing node set; functions sampled on a grid can be differentiated
with second-order accuracy and refined by inserting midpoints in the
grid coordinate (arithmetic for linear spacing, geometric for log).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NonFiniteIntegrandError
from .geometry import CoordinateRange

LINEAR = "linear"
LOG = "log"

_SPACING_ALIASES = {"linear": LINEAR, "log": LOG, "logarithmic": LOG}


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for an increasing node set."""
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[0] = 0.5 * d[0]
    w[-1] = 0.5 * d[-1]
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return w


@dataclass
class RadialGrid:
    """Strictly increasing node set with trapezoid quadrature weights.

    Treated as immutable after construction; refinement returns a new grid.
    """

    nodes: np.ndarray
    spacing: str
    quad_weights: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.size < 3:
            raise InvalidArgumentError("grids need at least 3 nodes")
        if np.any(np.diff(self.nodes) <= 0):
            raise InvalidArgumentError("grid nodes must be strictly increasing")
        self.spacing = _SPACING_ALIASES.get(self.spacing, self.spacing)
        if self.spacing not in (LINEAR, LOG):
            raise InvalidArgumentError(f"unknown spacing {self.spacing!r}")
        if self.spacing == LOG and self.nodes[0] <= 0:
            raise InvalidArgumentError("log spacing needs positive nodes")
        if self.quad_weights is None:
            self.quad_weights = trapezoid_weights(self.nodes)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    def to_coord(self, t):
        """Map to the spacing coordinate (identity or log)."""
        return np.log(t) if self.spacing == LOG else np.asarray(t, dtype=float)

    def from_coord(self, c):
        return np.exp(c) if self.spacing == LOG else np.asarray(c, dtype=float)

    def integrate(self, values) -> float:
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise NonFiniteIntegrandError("non-finite value in integrand")
        return float(np.dot(self.quad_weights, values))


def build_grid(rng: CoordinateRange, n: int, spacing: str = LINEAR) -> RadialGrid:
    """Fill a coordinate range with n nodes, linearly or logarithmically."""
    spacing = _SPACING_ALIASES.get(spacing, spacing)
    if n < 3:
        raise InvalidArgumentError("need n >= 3")
    if spacing == LOG:
        if rng.lo <= 0:
            raise InvalidArgumentError("log spacing needs lo > 0")
        nodes = np.exp(np.linspace(np.log(rng.lo), np.log(rng.hi), n))
        nodes[0], nodes[-1] = rng.lo, rng.hi
    elif spacing == LINEAR:
        nodes = np.linspace(rng.lo, rng.hi, n)
    else:
        raise InvalidArgumentError(f"unknown spacing {spacing!r}")
    return RadialGrid(nodes, spacing)


def refine(grid: RadialGrid) -> RadialGrid:
    """Dyadic refinement: insert midpoints in the grid coordinate.

    The original nodes are preserved exactly, so discrete P1 spaces nest.
    """
    x = grid.nodes
    if grid.spacing == LOG:
        mids = np.sqrt(x[:-1] * x[1:])
    else:
        mids = 0.5 * (x[:-1] + x[1:])
    nodes = np.empty(2 * x.size - 1)
    nodes[0::2] = x
    nodes[1::2] = mids
    return RadialGrid(nodes, grid.spacing)


def _three_point_weights(xs, xe):
    """Derivative weights at xe for the quadratic through (x0, x1, x2)."""
    x0, x1, x2 = xs
    w0 = (2 * xe - x1 - x2) / ((x0 - x1) * (x0 - x2))
    w1 = (2 * xe - x0 - x2) / ((x1 - x0) * (x1 - x2))
    w2 = (2 * xe - x0 - x1) / ((x2 - x0) * (x2 - x1))
    return w0, w1, w2


def derivative_values(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order finite differences on a nonuniform node set."""
    x, f = nodes, np.asarray(values, dtype=float)
    out = np.empty_like(f)
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    out[1:-1] = (
        -h2 / (h1 * (h1 + h2)) * f[:-2]
        + (h2 - h1) / (h1 * h2) * f[1:-1]
        + h1 / (h2 * (h1 + h2)) * f[2:]
    )
    w0, w1, w2 = _three_point_weights(x[:3], x[0])
    out[0] = w0 * f[0] + w1 * f[1] + w2 * f[2]
    w0, w1, w2 = _three_point_weights(x[-3:], x[-1])
    out[-1] = w0 * f[-3] + w1 * f[-2] + w2 * f[-1]
    return out


@dataclass
class GridFunction:
    """Function sampled on a grid; dirichlet_zero models compact support
    (extension by zero outside the truncated range)."""

    grid: RadialGrid
    values: np.ndarray
    dirichlet_zero: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise InvalidArgumentError("values and grid nodes must align")
        if self.dirichlet_zero and (self.values[0] != 0.0 or self.values[-1] != 0.0):
            raise InvalidArgumentError("dirichlet_zero requires zero endpoint values")
        self._deriv = None

    def derivative(self) -> np.ndarray:
        if self._deriv is None:
            self._deriv = derivative_values(self.grid.nodes, self.values)
        return self._deriv

    def integrate(self) -> float:
        return self.grid.integrate(self.values)

    def to_csv(self, path) -> None:
        """Two-column CSV export (node, value)."""
        with open(path, "w") as fh:
            fh.write("node,value\n")
            for t, v in zip(self.grid.nodes, self.values):
                fh.write(f"{t!r},{v!r}\n")


_GAUSS_CACHE: dict = {}


def gauss_rule(npts: int):
    if npts not in _GAUSS_CACHE:
        _GAUSS_CACHE[npts] = np.polynomial.legendre.leggauss(npts)
    return _GAUSS_CACHE[npts]


def cell_gauss(nodes: np.ndarray, npts: int = 8):
    """Per-cell Gauss points and weights mapped from [-1, 1].

    Returns arrays of shape (ncells, npts).
    """
    z, w = gauss_rule(npts)
    xl = nodes[:-1, None]
    xr = nodes[1:, None]
    pts = 0.5 * (xr + xl) + 0.5 * (xr - xl) * z[None, :]
    wts = 0.5 * (xr - xl) * w[None, :]
    return pts, wts


def cell_gauss_integrate(nodes: np.ndarray, fn, npts: int = 8) -> float:
    """High-order quadrature of a callable over the span of a node set."""
    pts, wts = cell_gauss(nodes, npts)
    return float(np.sum(wts * fn(pts)))
