"""P1 finite-element forms of the 1D weighted quotient.

Every inequality reduces to R(u) = int B |u'|^p against L(u) = int A |u|^p
on a grid.  For a continuous piecewise-linear u both are exact in u once
the densities are integrated with per-cell Gauss quadrature; ``P1Forms``
holds that cell data, the two functionals with their gradients, and the
tridiagonal pencil of the quotient linearized at an iterate; ``P1Sides``
integrates the densities of any inequality's sides the same way.  The banded
SPD solve and the Dirichlet restriction of a pencil live here too, so the
minimizers, the eigen solver and the capacity oracle share one assembly.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solveh_banded

from .errors import InvalidArgumentError, NonFiniteIntegrandError
from .grids import RadialGrid, cell_gauss


def model_densities(model, p: float, factors):
    """t -> the densities of factors(t) = (a_1, ..., a_k, b) on a model:
    each a_i times s(t), and b times g(t)^p s(t), for |grad u|^p."""

    def densities(t):
        *a, b = factors(t)
        s = np.exp(model.log_volume_density(t))
        return (*(f * s for f in a), b * model.gradient_factor(t) ** p * s)

    return densities


class P1Cells:
    """The P1 interpolant of nodal values u: ``values(u)`` at the 8 Gauss
    points of each cell, shape (n-1, 8), and ``slopes(u)`` per cell."""

    def __init__(self, grid: RadialGrid, pts: np.ndarray):
        self.grid = grid
        self.h = np.diff(grid.nodes)
        self.n1 = (grid.nodes[1:, None] - pts) / self.h[:, None]
        self.n2 = (pts - grid.nodes[:-1, None]) / self.h[:, None]

    def values(self, u: np.ndarray, cells=slice(None)) -> np.ndarray:
        return self.n1[cells] * u[:-1][cells, None] + self.n2[cells] * u[1:][cells, None]

    def slopes(self, u: np.ndarray, cells=slice(None)) -> np.ndarray:
        return np.diff(u)[cells] / self.h[cells]


class P1Forms(P1Cells):
    """Cellwise data for the P1 energy R(u) = int B |u'|^p and mass
    L(u) = int A |u|^p; ``densities(t)`` returns (A, B), integrated by
    8-point Gauss quadrature per cell."""

    def __init__(self, grid: RadialGrid, densities):
        pts, wts = cell_gauss(grid.nodes)
        a_vals, b_vals = densities(pts)
        self.b_cell = np.sum(wts * b_vals, axis=1)
        if np.any(self.b_cell <= 0) or not np.all(np.isfinite(self.b_cell)):
            raise InvalidArgumentError("rhs density must be positive and finite")
        if not np.all(np.isfinite(a_vals)) or np.any(a_vals < 0):
            raise InvalidArgumentError("lhs density must be finite and nonnegative")
        self.a_wts = wts * a_vals
        super().__init__(grid, pts)

    def pencil(self, u: np.ndarray, p: float):
        """Tridiagonal pencil ((k_diag, k_off), (m_diag, m_off)) of the
        quotient linearized at u: the p-forms with |u'|^(p-2) and |u|^(p-2)
        frozen at u.  At p = 2 every frozen factor is exactly 1, so this is
        the stiffness/mass pencil whatever u is."""
        n = self.grid.n
        slope = self.slopes(u)
        floor_s = 1e-300 + np.max(np.abs(slope))
        bw = self.b_cell / self.h ** 2 * np.maximum(np.abs(slope), 1e-12 * floor_s) ** (p - 2.0)
        k_diag = np.zeros(n)
        k_off = np.zeros(n - 1)
        k_diag[:-1] += bw
        k_diag[1:] += bw
        k_off -= bw
        ug = self.values(u)
        floor_u = 1e-300 + np.max(np.abs(ug))
        aw = self.a_wts * np.maximum(np.abs(ug), 1e-12 * floor_u) ** (p - 2.0)
        m_diag = np.zeros(n)
        m_off = np.zeros(n - 1)
        m_diag[:-1] += np.sum(aw * self.n1 ** 2, axis=1)
        m_diag[1:] += np.sum(aw * self.n2 ** 2, axis=1)
        m_off += np.sum(aw * self.n1 * self.n2, axis=1)
        return (k_diag, k_off), (m_diag, m_off)

    def energy(self, u: np.ndarray, p: float) -> float:
        return float(np.dot(self.b_cell, np.abs(self.slopes(u)) ** p))

    def energy_grad(self, u: np.ndarray, p: float) -> np.ndarray:
        slope = self.slopes(u)
        dcell = self.b_cell * p * np.sign(slope) * np.abs(slope) ** (p - 1.0) / self.h
        g = np.zeros_like(u)
        g[1:] += dcell
        g[:-1] -= dcell
        return g

    def mass(self, u: np.ndarray, p: float) -> float:
        return float(np.sum(self.a_wts * np.abs(self.values(u)) ** p))

    def mass_grad(self, u: np.ndarray, p: float) -> np.ndarray:
        ug = self.values(u)
        core = self.a_wts * p * np.sign(ug) * np.abs(ug) ** (p - 1.0)
        g = np.zeros_like(u)
        g[:-1] += np.sum(core * self.n1, axis=1)
        g[1:] += np.sum(core * self.n2, axis=1)
        return g


class P1Sides(P1Cells):
    """``integrals(u, qs)``: int A_i |u|^q_i and, last, int B |u'|^q for the
    P1 interpolant u and ``densities(t)`` = (A_1, ..., A_k, B), summed like
    P1Forms.mass and .energy over the cells where u is not 0.  A density
    not finite at a node where u != 0, or at a Gauss point of such a cell,
    raises NonFiniteIntegrandError; elsewhere it counts as 0."""

    def __init__(self, grid: RadialGrid, densities):
        pts, wts = cell_gauss(grid.nodes)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.bad_nodes = ~np.all(np.isfinite(densities(grid.nodes)), axis=0)
            weighted = list(densities(pts))
        self.bad_cells = np.zeros(grid.n - 1, dtype=bool)
        for i, f in enumerate(weighted):
            finite = np.isfinite(f)
            self.bad_cells |= ~finite.all(axis=1)
            weighted[i] = np.multiply(wts, f, out=np.zeros_like(f), where=finite)
        self.b_cell = np.sum(weighted.pop(), axis=1)
        self.a_wts = weighted
        super().__init__(grid, pts)

    def integrals(self, u: np.ndarray, qs) -> list:
        live = u != 0.0
        if np.any(self.bad_nodes & live) or np.any(self.bad_cells & (live[:-1] | live[1:])):
            raise NonFiniteIntegrandError("non-finite density where u does not vanish")
        nz = np.flatnonzero(live)
        cells = slice(max(nz[0] - 1, 0), nz[-1] + 1) if nz.size else slice(0, 0)
        ug = np.abs(self.values(u, cells))
        out = [float(np.sum(a_wts[cells] * ug ** q)) for a_wts, q in zip(self.a_wts, qs)]
        return out + [float(np.dot(self.b_cell[cells], np.abs(self.slopes(u, cells)) ** qs[-1]))]


def apply_tridiag(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def solve_tridiag_spd(diag, off, rhs):
    if diag.size == 1:  # scipy's banded solver rejects a 1 x 1 system
        return rhs / diag
    ab = np.zeros((2, diag.size))
    ab[0, 1:] = off
    ab[1] = diag
    return solveh_banded(ab, rhs)


def dirichlet_slice(n: int, dirichlet: tuple) -> slice:
    """The nodes left free by Dirichlet conditions at (lo, hi)."""
    return slice(1 if dirichlet[0] else 0, n - 1 if dirichlet[1] else n)


def restrict(band, keep: slice):
    """A (diag, off) tridiagonal band restricted to the nodes in ``keep``."""
    diag, off = band
    return diag[keep], off[keep.start:keep.stop - 1]
