"""P1 finite-element forms of the 1D weighted quotient and of the sides.

Every inequality reduces to integrals int A_i |u|^q_i and int B |u'|^q on
a grid; a quotient kind to R(u) = int B |u'|^p against L(u) = int A |u|^p.
For a continuous piecewise-linear u these are exact in u once the
densities are integrated with per-cell Gauss quadrature.  ``P1Forms``
holds that cell data once per grid and densities: the side integrals, the
two functionals of the quotient with their gradients, and the p = 2
stiffness/mass pencil.  The factored
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


def _cell_sums(g):
    """The sums over the 8 Gauss points of each cell of g, (8, cells),
    adding its rows in order whatever the width: numpy's own sum over
    axis 0 adds the rows of an (8, 1) array pairwise."""
    total = g[0] + g[1]
    for row in g[2:]:
        total += row
    return total


def _power(x, q, out):
    """x ** q into out; at q = 2 one multiply, the bits of numpy's x ** 2."""
    if q == 2:
        return np.multiply(x, x, out=out)
    return np.power(x, q, out=out)


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

    ``integrals(us, qs)`` gives every side integral of each row of a stack
    of nodal values.  A density not finite at a node where a row u != 0, or
    at a Gauss point of such a cell, raises NonFiniteIntegrandError there;
    elsewhere it counts as 0.  The quotient
    R(u) = int B |u'|^p over L(u) = int A_1 |u|^p has, once
    ``check_quotient`` passed, the p = 2 ``pencil`` and, for the general-p
    solve, both functionals with their gradients from one pass
    (``evaluate``) and ``residual``.  The forms keep the weighted A's per
    Gauss point and nothing else of that size.  The assembly, ``integrals``
    and ``pencil`` take ``_CELL_BLOCK`` cells at a time, so their scratch
    does not grow with the grid; ``evaluate`` passes over the whole grid
    at once, as the general-p solve runs on small grids.
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

    def values(self, u: np.ndarray) -> np.ndarray:
        """u at the 8 Gauss points of each cell, shape (8, n - 1)."""
        ug = self.n1 * u[:-1]
        ug += self.n2 * u[1:]
        return ug

    def slopes(self, u: np.ndarray) -> np.ndarray:
        """u' on each cell."""
        return (u[1:] - u[:-1]) / self.h

    def integrals(self, us: np.ndarray, qs) -> list:
        """For each row u of the stack us, shape (rows, n): the list of
        int A_i |u|^q_i and, last, int B |u'|^q, as Python floats.

        A row lives on the cells from the one before its first nonzero node
        to the one after its last: one segment if they fit in _CELL_BLOCK
        cells, else the segments of ``_cell_blocks``.  The segments of all
        rows are packed in order into passes of at most _CELL_BLOCK cells
        (a segment of _CELL_BLOCK + 1 takes a pass alone).  A pass adds
        each cell's 8 Gauss points row by row, each segment's cells by
        ``np.add.reduceat``, and each row adds its segments in cell order:
        a row gives the same bits alone and in any stack.  A power q = 2 is
        one multiply, which needs no ``abs`` first."""
        rows, n = us.shape
        live = us != 0.0
        if self.nonfinite:
            bad = np.any(live & self.bad_nodes, axis=1)
            bad |= np.any((live[:, :-1] | live[:, 1:]) & self.bad_cells, axis=1)
            if np.any(bad):
                raise NonFiniteIntegrandError(
                    f"non-finite density where row {int(np.argmax(bad))} does not vanish")
        first = np.argmax(live, axis=1).tolist()
        last = (n - 1 - np.argmax(live[:, ::-1], axis=1)).tolist()
        passes, width = [], 0  # segments (row, first cell, cells, offset)
        for r in np.flatnonzero(np.any(live, axis=1)).tolist():
            start, stop = max(first[r] - 1, 0), min(last[r] + 1, n - 1)
            for cells in ((slice(start, stop),) if stop - start <= _CELL_BLOCK
                          else _cell_blocks(start, stop)):
                size = cells.stop - cells.start
                if not passes or width + size > _CELL_BLOCK:
                    passes.append([])
                    width = 0
                passes[-1].append((r, cells.start, size, width))
                width += size
        widths = [segments[-1][3] + segments[-1][2] for segments in passes]
        sums = np.zeros((len(qs), rows))
        squares = all(q == 2 for q in qs[:-1])
        # every pass copies its cells into the same scratch: an array of
        # this size made afresh per pass costs page faults
        cap = max(widths, default=0)
        gauss, nodal = np.empty((3, 8 * cap)), np.empty((4, cap))
        for segments, width in zip(passes, widths):
            ul, ur, b, h = nodal[:, :width]
            ug, power, term = (buf[:8 * width].reshape(8, width) for buf in gauss)
            for r, start, size, at in segments:
                ul[at:at + size] = us[r, start:start + size]
                ur[at:at + size] = us[r, start + 1:start + size + 1]
                b[at:at + size] = self.b_cell[start:start + size]
                h[at:at + size] = self.h[start:start + size]
            seg_rows, offsets = np.array([(r, at) for r, _, _, at in segments]).T
            np.multiply(self.n1, ul, out=ug)
            ug += np.multiply(self.n2, ur, out=power)
            if not squares:
                np.abs(ug, out=ug)
            for total, a_wts, q in zip(sums, self.a_wts, qs):
                for _, start, size, at in segments:
                    term[:, at:at + size] = a_wts[:, start:start + size]
                term *= _power(ug, q, power)
                np.add.at(total, seg_rows, np.add.reduceat(_cell_sums(term), offsets))
            # u' in the spent nodal buffers
            slope = np.subtract(ur, ul, out=ur)
            slope /= h
            if qs[-1] != 2:
                np.abs(slope, out=slope)
            grad = _power(slope, qs[-1], slope)
            grad *= b
            np.add.at(sums[-1], seg_rows, np.add.reduceat(grad, offsets))
        return sums.T.tolist()

    def pencil(self):
        """The p = 2 tridiagonal pencil ((k_diag, k_off), (m_diag, m_off)):
        the stiffness of int B (u')^2 and the mass of int A u^2."""
        n = self.grid.n
        bw = self.b_cell / self.h ** 2
        k_diag = np.zeros(n)
        k_off = np.zeros(n - 1)
        k_diag[:-1] += bw
        k_diag[1:] += bw
        k_off -= bw
        m_diag = np.zeros(n)
        m_off = np.zeros(n - 1)
        hats = ((self.n1 ** 2, m_diag[:-1]), (self.n2 ** 2, m_diag[1:]),
                (self.n1 * self.n2, m_off))
        for cells in _cell_blocks(0, n - 1):
            aw = self.a_wts[0][:, cells]
            scratch = np.empty(aw.shape)
            for hat, out in hats:
                out[cells] += np.sum(np.multiply(aw, hat, out=scratch), axis=0)
        return (k_diag, k_off), (m_diag, m_off)

    def evaluate(self, u: np.ndarray, p: float):
        """E(u), L(u), grad E(u) and grad L(u) from one pass over the Gauss
        points."""
        slope, ug = self.slopes(u), self.values(u)
        slope_abs, ug_abs = np.abs(slope), np.abs(ug)
        slope_pow = slope_abs ** (p - 1.0)
        a_pow = ug_abs ** (p - 1.0)
        a_pow *= self.a_wts[0]
        energy = float(np.sum(self.b_cell * (slope_pow * slope_abs)))
        # each later product reuses a spent buffer (|u|, u, A |u|^(p-1)):
        # the pass holds three (8, n-1) arrays at its peak
        mass = float(np.sum(np.multiply(a_pow, ug_abs, out=ug_abs)))
        dcell = self.b_cell * p * np.sign(slope) * slope_pow / self.h
        core = np.sign(ug, out=ug)
        core *= a_pow
        core *= p
        ge, gl = np.zeros(self.grid.n), np.zeros(self.grid.n)
        ge[1:] += dcell
        ge[:-1] -= dcell
        gl[:-1] += np.sum(np.multiply(core, self.n1, out=a_pow), axis=0)
        gl[1:] += np.sum(np.multiply(core, self.n2, out=a_pow), axis=0)
        return energy, mass, ge, gl

    def residual(self, u: np.ndarray, lam: float, p: float) -> float:
        """Stationarity residual of the quotient at u with value lam: the
        relative norm, over the interior nodes, of the discrete form of
        -div(B |u'|^(p-2) u') - lam A |u|^(p-2) u."""
        kp, mp = (g / p for g in self.evaluate(u, p)[2:])
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
