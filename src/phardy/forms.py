"""P1 finite-element forms of the 1D weighted quotient and of the sides.

Every inequality reduces to integrals int A_i |u|^q_i and int B |u'|^q on
a grid; a quotient kind to R(u) = int B |u'|^p against L(u) = int A |u|^p.
For a continuous piecewise-linear u these are exact in u once the
densities are integrated with per-cell Gauss quadrature.  ``P1Forms``
holds that cell data once per grid and densities: the side integrals, the
two functionals of the quotient with their gradients, and the tridiagonal
pencil of the quotient linearized at an iterate.  The factored
tridiagonal kernel and the interior block of a pencil live here too,
so the sides, the minimizers and the eigen solver share one assembly.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy

from .errors import IndefiniteBandError, InvalidArgumentError, NonFiniteIntegrandError
from .grids import RadialGrid, cell_gauss, p1_basis


def load_lapack(root):
    """scipy's LAPACK extension, loaded from ``root/linalg`` under its own
    name ``scipy.linalg._flapack``, so that a later ``import scipy.linalg``
    shares it; without that file, the public ``scipy.linalg.lapack``.
    Loading the file skips the ``scipy.linalg`` package init, which imports
    scipy's array-API layer, ``numpy.testing`` and ``unittest``: about
    0.25 s of startup for the two routines used here."""
    name = "scipy.linalg._flapack"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(root, "linalg", "_flapack" + suffix)
        if path.is_file():
            if name not in sys.modules:
                spec = importlib.util.spec_from_file_location(name, path)
                sys.modules[name] = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(sys.modules[name])
            return sys.modules[name]
    from scipy.linalg import lapack

    return lapack


_LAPACK = load_lapack(Path(scipy.__file__).parent)
dpttrf, dpttrs = _LAPACK.dpttrf, _LAPACK.dpttrs

#: cells a Gauss-point pass takes at a time; caps its scratch arrays at
#: _CELL_BLOCK * 8 doubles whatever the grid size
_CELL_BLOCK = 4096


def _cell_blocks(start: int, stop: int) -> list:
    """Slices of _CELL_BLOCK cells that cover cells start..stop-1; the last
    also takes a single leftover cell, since numpy sums the 8 rows of a
    one-cell block in another order than those of a wider block."""
    bounds = [*range(start, max(stop - 1, start + 1), _CELL_BLOCK), stop]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def model_densities(model, p: float, factors):
    """t -> the densities of factors(t) = (a_1, ..., a_k, b) on a model:
    each a_i times s(t), and b times g(t)^p s(t), for |grad u|^p."""

    def densities(t):
        *a, b = factors(t)
        s = np.exp(model.log_volume_density(t))
        return (*(f * s for f in a), b * model.gradient_factor(t) ** p * s)

    return densities


class P1Forms:
    """Cellwise data of ``densities(t)`` = (A_1, ..., A_k, B) for the P1
    interpolant of nodal values u, integrated by 8-point Gauss quadrature
    per cell.

    ``integrals(u, qs)`` gives every side integral.  A density not finite
    at a node where u != 0, or at a Gauss point of such a cell, raises
    NonFiniteIntegrandError there; elsewhere it counts as 0.  The quotient
    R(u) = int B |u'|^p over L(u) = int A_1 |u|^p has ``pencil``, and for
    the general-p solve both functionals and the data of their
    ``gradients`` from one pass (``evaluate``) and ``residual``, valid once
    ``check_quotient`` passed.  The forms keep the weighted A's per Gauss
    point and nothing else of that size.  The assembly, ``integrals`` and
    ``pencil`` take ``_CELL_BLOCK`` cells at a time, so their scratch does
    not grow with the grid; ``evaluate`` keeps whole-grid Gauss data,
    which ``gradients`` reads back, as the general-p solve runs on small
    grids.
    Gauss-point arrays have shape (8, cells), one row per point: products
    stream along the cells and a sum over a cell's points adds 8 rows.
    ``n1`` and ``n2`` are the two P1 hats at the Gauss points, (8, 1)
    columns that are the same in every cell.
    """

    def __init__(self, grid: RadialGrid, densities):
        nodes, ncells = grid.nodes, grid.n - 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            finite_at_nodes = np.isfinite(densities(nodes))
            self.bad_nodes = ~np.all(finite_at_nodes, axis=0)
            self.a_wts = [np.zeros((8, ncells)) for _ in finite_at_nodes[1:]]
            self.b_cell = np.zeros(ncells)
            self.bad_cells = np.zeros(ncells, dtype=bool)
            for cells in _cell_blocks(0, ncells):
                pts, wts = cell_gauss(nodes[cells.start:cells.stop + 1])
                *a, b = densities(pts)
                weighted = [a_wts[:, cells] for a_wts in self.a_wts] + [np.zeros(b.shape)]
                for f, out in zip((*a, b), weighted):
                    finite = np.isfinite(f)
                    self.bad_cells[cells] |= ~finite.all(axis=0)
                    np.multiply(wts, f, out=out, where=finite)
                self.b_cell[cells] = np.sum(weighted[-1], axis=0)
        # whether a density is non-finite anywhere: only then do the sides
        # have to look where their u lives
        self.nonfinite = bool(np.any(self.bad_nodes) or np.any(self.bad_cells))
        self.grid = grid
        self.h = np.diff(nodes)
        self.n1, self.n2 = p1_basis()

    def check_quotient(self):
        """Raise unless the densities are (A, B) of a quotient: finite on
        every cell, A >= 0 and B > 0 per cell."""
        if len(self.a_wts) != 1:
            raise InvalidArgumentError("a quotient needs the densities (A, B)")
        if np.any(self.bad_cells) or np.any(self.b_cell <= 0) or np.any(self.a_wts[0] < 0):
            raise InvalidArgumentError("quotient densities must be finite, A >= 0 and B > 0")

    def values(self, u: np.ndarray, cells=slice(None)) -> np.ndarray:
        """u at the 8 Gauss points of each of the cells, shape (8, cells)."""
        ug = self.n1 * u[:-1][cells]
        ug += self.n2 * u[1:][cells]
        return ug

    def slopes(self, u: np.ndarray, cells=slice(None)) -> np.ndarray:
        """u' on each of the cells, from the nodes of those cells only."""
        return (u[1:][cells] - u[:-1][cells]) / self.h[cells]

    def integrals(self, u: np.ndarray, qs) -> list:
        """int A_i |u|^q_i and, last, int B |u'|^q, summed block by block
        over the cells where u is not 0."""
        if self.nonfinite:
            live = u != 0.0
            if np.any(self.bad_nodes & live) or np.any(self.bad_cells & (live[:-1] | live[1:])):
                raise NonFiniteIntegrandError("non-finite density where u does not vanish")
        nz = np.flatnonzero(u)
        blocks = _cell_blocks(max(nz[0] - 1, 0), min(nz[-1] + 1, u.size - 1)) if nz.size else []
        sums = [0.0] * len(qs)
        for cells in blocks:
            ug = np.abs(self.values(u, cells))
            for i, (a_wts, q) in enumerate(zip(self.a_wts, qs)):
                sums[i] += float(np.sum(a_wts[:, cells] * ug ** q))
            sums[-1] += float(np.sum(self.b_cell[cells] * np.abs(self.slopes(u, cells)) ** qs[-1]))
        return sums

    def pencil(self, u: np.ndarray, p: float):
        """Tridiagonal pencil ((k_diag, k_off), (m_diag, m_off)) of the
        quotient linearized at u: the p-forms with |u'|^(p-2) and |u|^(p-2)
        frozen at u, each floored at 1e-12 of its largest value.  At p = 2
        every frozen factor is exactly 1, so this is the stiffness/mass
        pencil whatever u is; the package solves only that one, and the
        p != 2 pencil serves the tests' reference solvers."""
        n = self.grid.n
        bw = self.b_cell / self.h ** 2
        blocks = _cell_blocks(0, n - 1)
        if p != 2.0:
            slope = np.abs(self.slopes(u))
            bw = bw * np.maximum(slope, 1e-12 * (1e-300 + np.max(slope))) ** (p - 2.0)
            # |u| at the Gauss points, kept per block: the floor needs its maximum
            frozen = [np.abs(self.values(u, cells)) for cells in blocks]
            floor = 1e-12 * (1e-300 + max(np.max(ug) for ug in frozen))
        k_diag = np.zeros(n)
        k_off = np.zeros(n - 1)
        k_diag[:-1] += bw
        k_diag[1:] += bw
        k_off -= bw
        m_diag = np.zeros(n)
        m_off = np.zeros(n - 1)
        hats = ((self.n1 ** 2, m_diag[:-1]), (self.n2 ** 2, m_diag[1:]),
                (self.n1 * self.n2, m_off))
        for i, cells in enumerate(blocks):
            aw = self.a_wts[0][:, cells]
            if p != 2.0:
                ug = np.maximum(frozen[i], floor, out=frozen[i])
                ug **= p - 2.0
                aw = np.multiply(ug, aw, out=ug)
            scratch = np.empty(aw.shape)
            for hat, out in hats:
                out[cells] += np.sum(np.multiply(aw, hat, out=scratch), axis=0)
        return (k_diag, k_off), (m_diag, m_off)

    def evaluate(self, u: np.ndarray, p: float):
        """E(u), L(u) and the Gauss data of their gradients from one pass:
        u' with |u'|^(p-1) per cell, u with A |u|^(p-1) per Gauss point."""
        slope, ug = self.slopes(u), self.values(u)
        slope_abs, ug_abs = np.abs(slope), np.abs(ug)
        slope_pow = slope_abs ** (p - 1.0)
        a_pow = ug_abs ** (p - 1.0)
        a_pow *= self.a_wts[0]
        energy = float(np.sum(self.b_cell * (slope_pow * slope_abs)))
        # A |u|^p into |u|'s buffer: one (8, n-1) array fewer at the peak
        mass = float(np.sum(np.multiply(a_pow, ug_abs, out=ug_abs)))
        return energy, mass, (slope, slope_pow, ug, a_pow)

    def gradients(self, gauss, p: float):
        """grad E and grad L from the Gauss data of ``evaluate``."""
        slope, slope_pow, ug, a_pow = gauss
        dcell = self.b_cell * p * np.sign(slope) * slope_pow / self.h
        core = np.sign(ug)
        core *= a_pow
        core *= p
        scratch = np.multiply(core, self.n1)
        ge, gl = np.zeros(self.grid.n), np.zeros(self.grid.n)
        ge[1:] += dcell
        ge[:-1] -= dcell
        gl[:-1] += np.sum(scratch, axis=0)
        gl[1:] += np.sum(np.multiply(core, self.n2, out=scratch), axis=0)
        return ge, gl

    def residual(self, u: np.ndarray, lam: float, p: float) -> float:
        """Stationarity residual of the quotient at u with value lam: the
        relative norm, over the interior nodes, of the discrete form of
        -div(B |u'|^(p-2) u') - lam A |u|^(p-2) u."""
        kp, mp = (g / p for g in self.gradients(self.evaluate(u, p)[2], p))
        r = (kp - lam * mp)[1:-1]
        scale = np.sqrt(np.sum(kp[1:-1] ** 2))
        return float(np.sqrt(np.sum(r ** 2)) / scale) if scale > 0 else 0.0


def apply_tridiag(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


class TridiagFactor:
    """LDL^T of the symmetric tridiagonal band (diag, off) by LAPACK's
    dpttrf, factored once for any number of solves.  ``definite`` says
    whether every pivot is positive: for K - sigma M with M >= 0, whether
    sigma lies below the pencil's smallest eigenvalue (Sylvester's law of
    inertia).  A non-finite band or right-hand side raises
    InvalidArgumentError, a ValueError; ``solve`` on a band that is not
    definite raises IndefiniteBandError, a LinAlgError.
    """

    def __init__(self, diag, off):
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise InvalidArgumentError("tridiagonal band must be finite")
        if diag.size == 1:  # the LAPACK wrappers reject a 1 x 1 band
            self.d, self.e, info = diag, off, int(diag[0] <= 0)
        else:
            self.d, self.e, info = dpttrf(diag, off)
        self.definite = info == 0

    def solve(self, rhs):
        if not self.definite:
            raise IndefiniteBandError("tridiagonal band is not positive definite")
        if not np.isfinite(rhs).all():
            raise InvalidArgumentError("right-hand side must be finite")
        if self.d.size == 1:
            return rhs / self.d
        return dpttrs(self.d, self.e, rhs)[0]


def interior(band):
    """The block of a (diag, off) tridiagonal band on the interior nodes,
    the ones both Dirichlet ends leave free."""
    diag, off = band
    return diag[1:-1], off[1:-1]
