"""Seeded families of compactly supported test functions.

Smooth bumps are the classical mollifier profile exp(-1/(1-z^2)) on a
random subinterval of the grid coordinate (so log grids get bumps near
the singular end too); tents are piecewise-linear hats.  All functions
vanish at the grid endpoints and qualify as Dirichlet data.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .grids import FunctionBlock, RadialGrid


def _bump_profile(c, c_lo, c_hi, out):
    """exp(-1/(1-z^2)) for z = 2 (c - c_lo)/(c_hi - c_lo) - 1 at nodes c
    strictly inside (c_lo, c_hi), where |z| <= 1 after rounding too; where
    |z| or z^2 rounds to 1, -1/0 = -inf makes the bump 0, as outside.
    Written into out step by step, each step rounded as in that formula."""
    z = np.subtract(c, c_lo, out=out)
    z *= 2.0
    z /= c_hi - c_lo
    z -= 1.0
    np.multiply(z, z, out=out)
    np.subtract(1.0, out, out=out)
    np.divide(-1.0, out, out=out)
    np.exp(out, out=out)


def _tent_profile(c, c_lo, c_hi, out):
    """max(min(up, down), 0) for the hat of (c_lo, c_hi), written into out."""
    mid = 0.5 * (c_lo + c_hi)
    up = np.subtract(c, c_lo, out=out)
    up /= mid - c_lo
    down = np.subtract(c_hi, c)
    down /= c_hi - mid
    np.maximum(np.minimum(up, down, out=out), 0.0, out=out)


def random_test_functions(grid: RadialGrid, count: int, seed) -> FunctionBlock:
    """Deterministic block of test functions on random interior subintervals,
    smooth bumps and tents in turn, each 15-60% of the grid's span wide.
    Each takes two uniform draws, its width and then its left end, from
    one ``rng.random(2 * count)`` call: a draw d on [lo, hi) is
    lo + (hi - lo) * d, as ``rng.uniform(lo, hi)`` makes it.  Function i
    is nonzero only at the interior nodes strictly inside its support, and
    its values are row i of the block's (count, n) array."""
    if count < 0:
        raise InvalidArgumentError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    c = grid.coord
    span = c[-1] - c[0]
    pad = 0.01 * span
    lo = c[0] + pad
    draws = rng.random(2 * count)
    width = (0.15 + (0.6 - 0.15) * draws[0::2]) * span
    left = lo + (c[-1] - pad - width - lo) * draws[1::2]
    right = left + width
    starts = np.maximum(c.searchsorted(left, "right"), 1).tolist()
    stops = np.minimum(c.searchsorted(right, "left"), c.size - 1).tolist()
    rows = np.zeros((count, grid.n))
    with np.errstate(divide="ignore"):  # a bump's -1/0 where z^2 rounds to 1
        for i, (c_lo, c_hi, a, b) in enumerate(zip(left.tolist(), right.tolist(), starts, stops)):
            profile = _bump_profile if i % 2 == 0 else _tent_profile
            profile(c[a:b], c_lo, c_hi, rows[i, a:b])
    return FunctionBlock(grid, rows)
