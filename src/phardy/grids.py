"""Nonuniform 1D grids and per-cell Gauss quadrature.

Grids are arbitrary strictly increasing node sets; they are integrated
cell by cell with an 8-point Gauss rule, a function sampled on a grid is
its P1 (piecewise-linear) interpolant, and grids are refined by
inserting midpoints in the grid coordinate (arithmetic for linear
spacing, geometric for log).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .geometry import CoordinateRange

LINEAR = "linear"
LOG = "log"

_SPACING_ALIASES = {"linear": LINEAR, "log": LOG, "logarithmic": LOG}


@dataclass
class RadialGrid:
    """Strictly increasing node set.

    Treated as immutable after construction; refinement returns a new grid.
    """

    nodes: np.ndarray
    spacing: str

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

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    @functools.cached_property
    def coord(self) -> np.ndarray:
        """The nodes in the spacing coordinate (identity or log)."""
        return np.log(self.nodes) if self.spacing == LOG else self.nodes


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

    def to_csv(self, path) -> None:
        """Two-column CSV export (node, value)."""
        with open(path, "w") as fh:
            fh.write("node,value\n")
            for t, v in zip(self.grid.nodes, self.values):
                fh.write(f"{t!r},{v!r}\n")


@functools.cache
def _gauss8():
    return np.polynomial.legendre.leggauss(8)


def cell_gauss(nodes: np.ndarray):
    """Per-cell 8-point Gauss points and weights mapped from [-1, 1].

    Returns arrays of shape (ncells, 8).
    """
    z, w = _gauss8()
    xl = nodes[:-1, None]
    xr = nodes[1:, None]
    pts = 0.5 * (xr + xl) + 0.5 * (xr - xl) * z[None, :]
    wts = 0.5 * (xr - xl) * w[None, :]
    return pts, wts


def cell_gauss_integrate(nodes: np.ndarray, fn) -> float:
    """High-order quadrature of a callable over the span of a node set."""
    pts, wts = cell_gauss(nodes)
    return float(np.sum(wts * fn(pts)))
