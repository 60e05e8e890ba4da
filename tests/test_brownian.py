"""Counter-based Brownian drivers and order-stable reductions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsim import GridError, ParameterError
from dunklsim.brownian import TimeGrid, batch_increments, coarsen, path_rng
from dunklsim.reductions import (
    BLOCK,
    block_partials,
    mean_se_from_sums,
    pairwise_sum,
    path_mean_se,
)


# ---------------------------------------------------------------------------
# keyed generators

def _one(r, n, T, seed, path_id):
    """Increments of a single path: a batch of one id."""
    return batch_increments(r, n, T, seed, np.array([path_id]))[0]


def test_same_key_reproduces_bitwise():
    a = _one(2, 64, 1.0, 12345, 7)
    b = _one(2, 64, 1.0, 12345, 7)
    assert np.array_equal(a, b)


def test_distinct_paths_and_seeds_differ():
    base = _one(1, 64, 1.0, 12345, 7)
    assert not np.array_equal(base, _one(1, 64, 1.0, 12345, 8))
    assert not np.array_equal(base, _one(1, 64, 1.0, 54321, 7))


def test_batch_rows_match_single_paths():
    ids = np.arange(6, dtype=np.uint64)
    batch = batch_increments(3, 32, 2.0, 99, ids)
    assert batch.shape == (6, 32, 3)
    for i in (0, 3, 5):
        assert np.array_equal(batch[i], _one(3, 32, 2.0, 99, i))


def test_seed_range_validated():
    for bad in (-1, 2 ** 64, 1.5):
        with pytest.raises(ParameterError):
            path_rng(bad, 0)
        with pytest.raises(ParameterError):
            path_rng(0, bad)


def test_increment_variance_matches_grid():
    # ~1e6 draws: sample variance within 1% of T/n
    inc = batch_increments(1, 1024, 1.0, 2024, np.arange(1000, dtype=np.uint64))
    var = float(np.var(inc))
    assert abs(var - 1.0 / 1024) <= 0.01 / 1024


def test_grid_times_and_dt():
    grid = TimeGrid(8, 2.0)
    assert grid.times == pytest.approx(np.linspace(0.0, 2.0, 9))
    assert grid.dt == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# coarsening

def test_coarsen_identity_and_copy():
    x = _one(2, 16, 1.0, 5, 0)
    y = coarsen(x, 1)
    assert np.array_equal(x, y)
    y[0, 0] = 1e9
    assert x[0, 0] != 1e9


def test_coarsen_rejects_non_divisor():
    x = np.zeros((16, 1))
    with pytest.raises(GridError):
        coarsen(x, 3)
    with pytest.raises(GridError):
        coarsen(x, 0)


def test_coarsen_endpoint_invariant_bitwise():
    # pairwise trees make B(T) independent of the resolution it is summed at
    x = _one(3, 256, 1.0, 77, 4)
    end = pairwise_sum(x)
    for f in (2, 4, 16, 256):
        assert np.array_equal(end, pairwise_sum(coarsen(x, f)))


def test_coarsen_composition_bitwise():
    x = _one(2, 512, 1.0, 77, 9)
    assert np.array_equal(coarsen(coarsen(x, 2), 4), coarsen(x, 8))
    assert np.array_equal(coarsen(coarsen(x, 8), 8), coarsen(x, 64))


def test_coarsened_variance_scales():
    inc = batch_increments(1, 256, 1.0, 7, np.arange(2000, dtype=np.uint64))
    c = coarsen(inc, 16)                     # 16 steps of size 1/16
    var = float(np.var(c))
    assert abs(var - 1.0 / 16) <= 0.02 / 16


# ---------------------------------------------------------------------------
# reductions

@given(st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_pairwise_sum_close_to_fsum(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) * np.exp(rng.normal(size=n) * 3)
    assert pairwise_sum(x) == pytest.approx(math.fsum(x), rel=1e-12, abs=1e-12)


def test_block_partials_split_invariance():
    # accumulating in one call or split at a block boundary is bitwise equal
    rng = np.random.default_rng(8)
    m = 3 * BLOCK + 100
    x = rng.normal(size=(m, 2))
    whole = np.zeros((4, 2))
    block_partials(x, whole, 0)
    split = np.zeros((4, 2))
    cut = 2 * BLOCK
    block_partials(x[:cut], split, 0)
    block_partials(x[cut:], split, 2)
    assert np.array_equal(whole, split)


def test_path_mean_se_basics():
    v = np.full((500, 2), 3.25)
    mean, se = path_mean_se(v)
    assert np.array_equal(mean, [3.25, 3.25])
    assert np.array_equal(se, [0.0, 0.0])


def test_path_mean_se_matches_numpy():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(4096, 3))
    mean, se = path_mean_se(v)
    assert mean == pytest.approx(v.mean(axis=0), abs=1e-12)
    assert se == pytest.approx(v.std(axis=0, ddof=1) / math.sqrt(4096), rel=1e-10)


def test_mean_se_from_sums_consistent():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(1000, 2))
    m1, s1 = path_mean_se(v)
    m2, s2 = mean_se_from_sums(pairwise_sum(v), pairwise_sum(v ** 2), 1000)
    assert m1 == pytest.approx(m2, abs=1e-14)
    assert s1 == pytest.approx(s2, abs=1e-14)
