"""Seeded families of compactly supported test functions.

Smooth bumps are the classical mollifier profile exp(-1/(1-z^2)) on a
random subinterval of the grid coordinate (so log grids get bumps near
the singular end too); tents are piecewise-linear hats.  All functions
vanish at the grid endpoints and qualify as Dirichlet data.
"""
from __future__ import annotations

import numpy as np

from .grids import GridFunction, RadialGrid


def mollifier(z: np.ndarray) -> np.ndarray:
    """exp(-1/(1-z^2)) inside |z| < 1, zero outside."""
    z = np.asarray(z, dtype=float)
    inside = np.abs(z) < 1.0
    out = np.zeros_like(z)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - z[inside] ** 2))
    return out


def bump(grid: RadialGrid, c_lo: float, c_hi: float) -> GridFunction:
    """Smooth bump supported on (c_lo, c_hi) in the grid coordinate."""
    c = grid.coord
    z = (2.0 * (c - c_lo) / (c_hi - c_lo)) - 1.0
    vals = mollifier(z)
    vals[0] = vals[-1] = 0.0
    return GridFunction(grid, vals)


def tent(grid: RadialGrid, c_lo: float, c_hi: float) -> GridFunction:
    """Piecewise-linear hat peaking at the midpoint of (c_lo, c_hi)."""
    c = grid.coord
    mid = 0.5 * (c_lo + c_hi)
    up = (c - c_lo) / (mid - c_lo)
    down = (c_hi - c) / (c_hi - mid)
    vals = np.clip(np.minimum(up, down), 0.0, None)
    vals[0] = vals[-1] = 0.0
    return GridFunction(grid, vals)


def random_test_functions(grid: RadialGrid, count: int, seed) -> list[GridFunction]:
    """Deterministic list of test functions on random interior subintervals,
    smooth bumps and tents in turn, each 15-60% of the grid's span wide."""
    rng = np.random.default_rng(seed)
    c = grid.coord
    span = c[-1] - c[0]
    pad = 0.01 * span
    out = []
    for i in range(count):
        width = rng.uniform(0.15, 0.6) * span
        left = rng.uniform(c[0] + pad, c[-1] - pad - width)
        fn = bump if i % 2 == 0 else tent
        out.append(fn(grid, left, left + width))
    return out
