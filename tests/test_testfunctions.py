"""The seeded test functions: the margin sweep's generator draws a block's
uniforms at once and writes each function, only where it lives, into its
row of one array, and is value for value the one-function-at-a-time
construction it replaced."""
import numpy as np
import pytest

from oracles import bump, seeded_functions_one_by_one, tent

from phardy.errors import InvalidArgumentError
from phardy.geometry import CoordinateRange
from phardy.grids import RadialGrid, build_grid
from phardy.testfunctions import random_test_functions

GRIDS = [
    (CoordinateRange(1e-2, 1e2), "log"),
    (CoordinateRange(0.0, 1.0), "linear"),
    (CoordinateRange(0.5, 3.0), "log"),
    (CoordinateRange(2.0, 7.0), "linear"),
]


def _same_bytes(funcs, values):
    return len(funcs) == len(values) and all(
        u.values.tobytes() == v.tobytes() for u, v in zip(funcs, values)
    )


@pytest.mark.parametrize("rng, spacing", GRIDS)
@pytest.mark.parametrize("n", [3, 7, 50, 2000])
def test_blocks_from_one_stream_match_one_by_one(rng, spacing, n):
    # blocks of 1, 7 and 64 from one generator, against the per-function
    # uniform draws from another generator on the same seed
    grid = build_grid(rng, n, spacing)
    for seed in range(3):
        ours, theirs = (np.random.default_rng([seed, n]) for _ in range(2))
        for count in (1, 7, 64, 7, 1):
            assert _same_bytes(random_test_functions(grid, count, ours),
                               seeded_functions_one_by_one(grid, count, theirs))


def test_support_ends_on_nodes_match_one_by_one():
    # the draws depend only on the grid's two ends, so a grid that keeps
    # them and adds the drawn support ends as nodes has supports that start
    # and stop exactly on nodes
    base = build_grid(CoordinateRange(0.0, 1.0), 41, "linear")
    count = 8
    span = 1.0
    rng = np.random.default_rng(11)
    ends = []
    for _ in range(count):
        width = rng.uniform(0.15, 0.6) * span
        left = rng.uniform(0.01 * span, 1.0 - 0.01 * span - width)
        ends += [left, left + width]
    grid = RadialGrid(np.unique(np.concatenate([base.nodes, ends])), "linear")
    assert np.isin(ends, grid.coord).all()
    funcs = random_test_functions(grid, count, np.random.default_rng(11))
    assert _same_bytes(funcs, seeded_functions_one_by_one(grid, count, np.random.default_rng(11)))
    for u, (c_lo, c_hi) in zip(funcs, zip(ends[::2], ends[1::2])):
        live = grid.coord[u.values != 0.0]
        assert live.min() > c_lo and live.max() < c_hi


def test_bump_and_tent_vanish_off_their_support_and_at_the_ends():
    grid = build_grid(CoordinateRange(0.0, 1.0), 11, "linear")
    for make in (bump, tent):
        wide = make(grid, -1.0, 2.0).values  # wider than the grid
        assert wide[0] == wide[-1] == 0.0 and np.all(wide[1:-1] > 0.0)
        inner = make(grid, grid.coord[3], grid.coord[7]).values  # ends on nodes
        assert np.flatnonzero(inner).tolist() == [4, 5, 6]


def test_a_block_is_one_array_of_rows():
    grid = build_grid(CoordinateRange(1e-2, 1e2), 300, "log")
    block = random_test_functions(grid, 9, seed=4)
    assert len(block) == 9 and block.rows.shape == (9, 300)
    assert all(np.shares_memory(u.values, row) and np.array_equal(u.values, row)
               for u, row in zip(block, block.rows))


def test_a_negative_count_is_named():
    grid = build_grid(CoordinateRange(0.0, 1.0), 11, "linear")
    assert len(random_test_functions(grid, 0, seed=1)) == 0
    with pytest.raises(InvalidArgumentError, match="count"):
        random_test_functions(grid, -1, seed=1)
