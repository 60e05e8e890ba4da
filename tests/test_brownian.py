"""Counter-based Brownian drivers and order-stable reductions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsim import GridError, ParameterError, brownian
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


def test_batch_rows_equal_path_rng_draws_bitwise():
    # one re-keyed generator per call reproduces each path's own stream
    ids = [0, 1, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 63 + 11, 2 ** 64 - 1]
    for seed in (0, 3, 2 ** 32 + 1, 2 ** 64 - 1):
        batch = batch_increments(2, 24, 1.5, seed, np.array(ids, dtype=np.uint64))
        for row, pid in zip(batch, ids):
            want = path_rng(seed, pid).standard_normal((24, 2)) * math.sqrt(1.5 / 24)
            assert row.tobytes() == want.tobytes()


def test_long_grid_groups_equal_path_rng_draws_bitwise():
    # n = 8192, r = 2 leaves room for 2 paths in the buffer, so groups hold
    # the 16-path floor; 40 ids make groups of 16, 16 and 8
    n, ids = 8192, np.arange(5, 45, dtype=np.int64)
    assert brownian._DRAW_BYTES // (8 * n * 2) < brownian._DRAW_PATHS < len(ids)
    batch = batch_increments(2, n, 1.0, 11, ids)
    for row, pid in zip(batch, ids.tolist()):
        want = path_rng(11, pid).standard_normal((n, 2)) * math.sqrt(1.0 / n)
        assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("T", [0.7, 1.0, 3.0])
def test_grid_increments_are_scaled_prefixes_of_unit_normals(T):
    # dt = n / n = 1 exactly draws the stream unscaled, and each grid's own
    # draw is its first n steps times np.sqrt(T / n), bitwise (chamber_exit
    # runs every grid on one such draw)
    ids = np.arange(3, 43)
    unit = batch_increments(2, 96, 96.0, 7, ids)
    for row, pid in zip(unit, ids.tolist()):
        assert row.tobytes() == path_rng(7, pid).standard_normal((96, 2)).tobytes()
    for n in (96, 64, 17, 1):
        own = batch_increments(2, n, T, 7, ids)
        assert own.tobytes() == (unit[:, :n] * np.sqrt(TimeGrid(n, T).dt)).tobytes()


@pytest.mark.parametrize("T", [1.0, 0.7])
def test_blocks_of_a_grid_are_slices_of_its_one_block_draw(T):
    # blocks of 1, 3 and 7 steps and the rest, each path's stream carried
    # from block to block, give the one-block draw bitwise: at unit scale
    # (T = n) and at sqrt(dt) scale; 40 paths make groups of 16, 16 and 8
    n, ids = 64, np.arange(5, 45)
    horizon = n * T if T == 1.0 else T
    whole = batch_increments(2, n, horizon, 11, ids)
    carry, parts, first = brownian.StreamCarry(), [], 0
    for stop in (1, 4, 11, n):
        parts.append(batch_increments(2, n, horizon, 11, ids, (first, stop), carry))
        first = stop
    assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()


_PHILOX_STATE = np.random.Philox.state


class _CountingPhilox(np.random.Philox):
    """Philox that counts reads of its `state`."""

    reads = 0

    @property
    def state(self):
        _CountingPhilox.reads += 1
        return _PHILOX_STATE.__get__(self)

    @state.setter
    def state(self, value):
        _PHILOX_STATE.__set__(self, value)


def test_one_block_draw_keeps_no_per_path_state(monkeypatch):
    # a one-block draw reads the generator state once, for its fresh
    # template, however many paths it draws (a read costs about 2 us per
    # path); a draw in three blocks saves each path's state after the
    # first two, and the streams are those of the unpatched generator
    monkeypatch.setattr(np.random, "Philox", _CountingPhilox)
    ids = np.arange(40)
    whole = batch_increments(1, 30, 1.0, 3, ids)
    assert _CountingPhilox.reads == 1
    _CountingPhilox.reads = 0
    carry = brownian.StreamCarry()
    parts = [batch_increments(1, 30, 1.0, 3, ids, block, carry)
             for block in ((0, 10), (10, 20), (20, 30))]
    assert _CountingPhilox.reads == 3 + 2 * len(ids)
    assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()
    monkeypatch.undo()
    assert whole.tobytes() == batch_increments(1, 30, 1.0, 3, ids).tobytes()


def test_blocks_need_a_carry_from_the_block_before():
    ids = np.arange(4)
    with pytest.raises(ParameterError):
        batch_increments(1, 8, 1.0, 0, ids, (0, 4))
    carry = brownian.StreamCarry()
    batch_increments(1, 8, 1.0, 0, ids, (0, 4), carry)
    for bad in ((2, 8), (4, 9), (4, 4)):
        with pytest.raises(GridError):
            batch_increments(1, 8, 1.0, 0, ids, bad, carry)
    with pytest.raises(ParameterError):
        batch_increments(1, 8, 1.0, 0, ids[:3], (4, 8), carry)


def test_seed_range_validated():
    for bad in (-1, 2 ** 64, 1.5):
        with pytest.raises(ParameterError):
            path_rng(bad, 0)
        with pytest.raises(ParameterError):
            path_rng(0, bad)
        with pytest.raises(ParameterError):
            batch_increments(1, 4, 1.0, bad, np.arange(2))
    with pytest.raises(ParameterError):
        batch_increments(1, 4, 1.0, 0, [0, -1])
    with pytest.raises(ParameterError):
        batch_increments(1, 4, 1.0, 0, [2 ** 64])


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
    with pytest.raises(GridError):                     # divides 24, not a power of two
        coarsen(np.zeros((24, 1)), 3)


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
    whole = np.zeros((4, 2)), np.zeros((4, 2))
    block_partials(x.copy(), *whole, 0)
    split = np.zeros((4, 2)), np.zeros((4, 2))
    cut = 2 * BLOCK
    block_partials(x[:cut].copy(), *split, 0)
    block_partials(x[cut:].copy(), *split, 2)
    assert np.array_equal(whole[0], split[0])
    assert np.array_equal(whole[1], split[1])
    # the last block is the short one
    last = x[3 * BLOCK:]
    assert np.array_equal(whole[0][3], pairwise_sum(last))
    assert whole[1][3] == pytest.approx(np.sum((last - last.mean(axis=0)) ** 2, axis=0),
                                        rel=1e-12)


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
    # partials written in two calls merge to what path_mean_se reports
    rng = np.random.default_rng(4)
    m = 2 * BLOCK + 500
    v = rng.normal(size=(m, 2))
    sums, m2s = np.zeros((3, 2)), np.zeros((3, 2))
    block_partials(v[:BLOCK].copy(), sums, m2s, 0)
    block_partials(v[BLOCK:].copy(), sums, m2s, 1)
    mean, se = mean_se_from_sums(sums, m2s, m)
    m1, s1 = path_mean_se(v)
    assert np.array_equal(mean, m1) and np.array_equal(se, s1)
    assert mean == pytest.approx(v.mean(axis=0), abs=1e-14)
    assert se == pytest.approx(v.std(axis=0, ddof=1) / math.sqrt(m), rel=1e-12)


@pytest.mark.parametrize("offset", [1e4, 1e8])
@given(m=st.integers(2, 5000), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_path_mean_se_matches_two_pass_fsum(offset, m, seed):
    # offset + N(0, 1): the raw s2 - s1^2/m formula loses about 2 log10(offset)
    # digits here.  One block is the two-pass formula itself.  Across blocks,
    # each block mean is a double, off by about an ulp of the offset, and
    # enters the merged M2 to first order (Chan, Golub & LeVeque's kappa eps
    # term): about 4e-18 * offset relative, so 1e-12 holds to offset 1e5.
    x = offset + np.random.default_rng(seed).normal(size=m)
    mean, se = path_mean_se(x)
    ref_mean = math.fsum(x) / m
    ref_se = math.sqrt(math.fsum((v - ref_mean) ** 2 for v in x) / (m - 1) / m)
    assert mean == pytest.approx(ref_mean, rel=1e-12)
    tol = 1e-12 if m <= BLOCK else max(1e-12, 1e-16 * offset)
    assert se == pytest.approx(ref_se, rel=tol)


def test_path_mean_se_leaves_its_input():
    v = np.arange(3000.0).reshape(1500, 2)
    path_mean_se(v)
    assert np.array_equal(v, np.arange(3000.0).reshape(1500, 2))
