"""Seeded families of compactly supported test functions.

Smooth bumps are the classical mollifier profile exp(-1/(1-z^2)) on a
random subinterval of the grid coordinate (so log grids get bumps near
the singular end too); tents are piecewise-linear hats.  All functions
vanish at the grid endpoints and qualify as Dirichlet data.
"""
from __future__ import annotations

import numpy as np

from .grids import GridFunction, RadialGrid


def _bump_profile(c, c_lo, c_hi):
    """exp(-1/(1-z^2)) for z = 2 (c - c_lo)/(c_hi - c_lo) - 1 at nodes c
    strictly inside (c_lo, c_hi), where |z| <= 1 after rounding too; where
    |z| or z^2 rounds to 1, -1/0 = -inf makes the bump 0, as outside."""
    z = (2.0 * (c - c_lo) / (c_hi - c_lo)) - 1.0
    with np.errstate(divide="ignore"):
        return np.exp(-1.0 / (1.0 - z ** 2))


def _tent_profile(c, c_lo, c_hi):
    mid = 0.5 * (c_lo + c_hi)
    up = (c - c_lo) / (mid - c_lo)
    down = (c_hi - c) / (c_hi - mid)
    return np.clip(np.minimum(up, down), 0.0, None)


def _supported(grid: RadialGrid, c_lo: float, c_hi: float, profile) -> GridFunction:
    """profile at the interior nodes strictly inside (c_lo, c_hi) in the
    grid coordinate, 0.0 at every other node."""
    c = grid.coord
    inside = slice(max(c.searchsorted(c_lo, "right"), 1),
                   min(c.searchsorted(c_hi, "left"), c.size - 1))
    vals = np.zeros(grid.n)
    vals[inside] = profile(c[inside], c_lo, c_hi)
    return GridFunction(grid, vals)


def bump(grid: RadialGrid, c_lo: float, c_hi: float) -> GridFunction:
    """Smooth bump supported on (c_lo, c_hi) in the grid coordinate."""
    return _supported(grid, c_lo, c_hi, _bump_profile)


def tent(grid: RadialGrid, c_lo: float, c_hi: float) -> GridFunction:
    """Piecewise-linear hat peaking at the midpoint of (c_lo, c_hi)."""
    return _supported(grid, c_lo, c_hi, _tent_profile)


def random_test_functions(grid: RadialGrid, count: int, seed) -> list[GridFunction]:
    """Deterministic list of test functions on random interior subintervals,
    smooth bumps and tents in turn, each 15-60% of the grid's span wide.
    Each takes two uniform draws, its width and then its left end, from
    one ``rng.random(2 * count)`` call: a draw d on [lo, hi) is
    lo + (hi - lo) * d, as ``rng.uniform(lo, hi)`` makes it."""
    rng = np.random.default_rng(seed)
    c = grid.coord
    span = c[-1] - c[0]
    pad = 0.01 * span
    lo = c[0] + pad
    out = []
    for i, (d_width, d_left) in enumerate(rng.random(2 * count).reshape(count, 2).tolist()):
        width = (0.15 + (0.6 - 0.15) * d_width) * span
        hi = c[-1] - pad - width
        left = lo + (hi - lo) * d_left
        fn = bump if i % 2 == 0 else tent
        out.append(fn(grid, left, left + width))
    return out
