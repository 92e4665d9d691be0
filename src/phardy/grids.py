"""Nonuniform 1D grids and per-cell Gauss quadrature.

Grids are arbitrary strictly increasing node sets; they are integrated
cell by cell with an 8-point Gauss rule, a function sampled on a grid is
its P1 (piecewise-linear) interpolant.
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

    Treated as immutable after construction.
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


@dataclass
class GridFunction:
    """Function sampled on a grid, zero at both ends: compact support
    (extension by zero outside the truncated range)."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise InvalidArgumentError("values and grid nodes must align")
        if self.values[0] != 0.0 or self.values[-1] != 0.0:
            raise InvalidArgumentError("a grid function vanishes at both ends")


class FunctionBlock(tuple):
    """GridFunctions on one grid whose values are the rows of ``rows``, a
    (count, n) array, so a side integral over the block reads that array
    as it stands.  A tuple, so the functions and their rows stay in step."""

    rows: np.ndarray

    def __new__(cls, grid: RadialGrid, rows: np.ndarray):
        block = super().__new__(cls, (GridFunction(grid, row) for row in rows))
        block.rows = rows
        return block


@functools.cache
def _gauss8():
    return np.polynomial.legendre.leggauss(8)


def p1_basis():
    """The two P1 hats of a cell at its 8 Gauss points, (1 - z)/2 and
    (1 + z)/2 for the Gauss nodes z on [-1, 1]: the same in every cell,
    so each is an (8, 1) column that broadcasts over the cells."""
    z, _ = _gauss8()
    return 0.5 * (1.0 - z[:, None]), 0.5 * (1.0 + z[:, None])


def cell_gauss(nodes: np.ndarray):
    """Per-cell 8-point Gauss points and weights mapped from [-1, 1].

    Returns arrays of shape (8, ncells): one row per Gauss point, so that
    products stream along the cells and a sum over a cell's points adds
    8 rows.
    """
    z, w = _gauss8()
    xl = nodes[:-1]
    xr = nodes[1:]
    pts = 0.5 * (xr + xl) + 0.5 * (xr - xl) * z[:, None]
    wts = 0.5 * (xr - xl) * w[:, None]
    return pts, wts
