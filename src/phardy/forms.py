"""P1 finite-element forms of the 1D weighted quotient.

Every inequality reduces to R(u) = int B |u'|^p against L(u) = int A |u|^p
on a grid.  For a continuous piecewise-linear u both are exact in u once
the densities are integrated with per-cell Gauss quadrature; ``P1Forms``
holds that cell data, the two functionals with their gradients, and the
tridiagonal pencil of the quotient linearized at an iterate.  The banded
SPD solve and the Dirichlet restriction of a pencil live here too, so the
minimizers, the eigen solver and the capacity oracle share one assembly.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solveh_banded

from .errors import InvalidArgumentError
from .grids import RadialGrid, cell_gauss


class P1Forms:
    """Cellwise data for the P1 energy R(u) = int B |u'|^p and mass
    L(u) = int A |u|^p; ``densities(t)`` returns (A, B), integrated by
    8-point Gauss quadrature per cell."""

    def __init__(self, grid: RadialGrid, densities):
        self.grid = grid
        self.h = np.diff(grid.nodes)
        pts, wts = cell_gauss(grid.nodes, 8)
        a_vals, b_vals = densities(pts)
        self.b_cell = np.sum(wts * b_vals, axis=1)
        if np.any(self.b_cell <= 0) or not np.all(np.isfinite(self.b_cell)):
            raise InvalidArgumentError("rhs density must be positive and finite")
        if not np.all(np.isfinite(a_vals)) or np.any(a_vals < 0):
            raise InvalidArgumentError("lhs density must be finite and nonnegative")
        self.a_wts = wts * a_vals
        xl = grid.nodes[:-1, None]
        self.n1 = (grid.nodes[1:, None] - pts) / self.h[:, None]
        self.n2 = (pts - xl) / self.h[:, None]

    def pencil(self, u: np.ndarray, p: float):
        """Tridiagonal pencil ((k_diag, k_off), (m_diag, m_off)) of the
        quotient linearized at u: the p-forms with |u'|^(p-2) and |u|^(p-2)
        frozen at u.  At p = 2 every frozen factor is exactly 1, so this is
        the stiffness/mass pencil whatever u is."""
        n = self.grid.n
        slope = np.diff(u) / self.h
        floor_s = 1e-300 + np.max(np.abs(slope))
        bw = self.b_cell / self.h ** 2 * np.maximum(np.abs(slope), 1e-12 * floor_s) ** (p - 2.0)
        k_diag = np.zeros(n)
        k_off = np.zeros(n - 1)
        k_diag[:-1] += bw
        k_diag[1:] += bw
        k_off -= bw
        ug = self.n1 * u[:-1, None] + self.n2 * u[1:, None]
        floor_u = 1e-300 + np.max(np.abs(ug))
        aw = self.a_wts * np.maximum(np.abs(ug), 1e-12 * floor_u) ** (p - 2.0)
        m_diag = np.zeros(n)
        m_off = np.zeros(n - 1)
        m_diag[:-1] += np.sum(aw * self.n1 ** 2, axis=1)
        m_diag[1:] += np.sum(aw * self.n2 ** 2, axis=1)
        m_off += np.sum(aw * self.n1 * self.n2, axis=1)
        return (k_diag, k_off), (m_diag, m_off)

    def energy(self, u: np.ndarray, p: float) -> float:
        slope = np.diff(u) / self.h
        return float(np.dot(self.b_cell, np.abs(slope) ** p))

    def energy_grad(self, u: np.ndarray, p: float) -> np.ndarray:
        slope = np.diff(u) / self.h
        dcell = self.b_cell * p * np.sign(slope) * np.abs(slope) ** (p - 1.0) / self.h
        g = np.zeros_like(u)
        g[1:] += dcell
        g[:-1] -= dcell
        return g

    def mass(self, u: np.ndarray, p: float) -> float:
        ug = self.n1 * u[:-1, None] + self.n2 * u[1:, None]
        return float(np.sum(self.a_wts * np.abs(ug) ** p))

    def mass_grad(self, u: np.ndarray, p: float) -> np.ndarray:
        ug = self.n1 * u[:-1, None] + self.n2 * u[1:, None]
        core = self.a_wts * p * np.sign(ug) * np.abs(ug) ** (p - 1.0)
        g = np.zeros_like(u)
        g[:-1] += np.sum(core * self.n1, axis=1)
        g[1:] += np.sum(core * self.n2, axis=1)
        return g


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
