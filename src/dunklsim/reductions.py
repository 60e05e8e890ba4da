"""Deterministic reductions over Monte Carlo path ensembles.

Every cross-path mean and standard error in this package comes from one
partial form.  Paths are grouped into blocks of `BLOCK`; `block_partials`
writes each block's pairwise sum and its sum of squared deviations from
the block mean, and `mean_se_from_sums` merges the partials on the same
pairwise tree (Chan, Golub & LeVeque, 1983).  The blocks and the tree
depend only on the number of paths, never on execution chunking or
thread count, so ensemble statistics are bitwise reproducible.
"""
from __future__ import annotations

import numpy as np

# Logical block size of the reduction tree.  Fixed; changing it changes
# every ensemble statistic at the last-ulp level.
BLOCK = 1024


def pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum along axis 0 with a fixed pairwise tree.

    The leading block has the largest power-of-two length that fits, the
    remainder is reduced recursively, and the two partials are added.  For
    power-of-two lengths this is plain recursive halving.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if n == 0:
        return np.zeros(a.shape[1:], dtype=a.dtype if a.dtype.kind == "f" else float)
    total = None
    start = 0
    while start < n:
        size = 1 << ((n - start).bit_length() - 1)
        seg = a[start:start + size]
        while seg.shape[0] > 1:
            seg = seg[0::2] + seg[1::2]
        part = seg[0]
        total = part if total is None else total + part
        start += size
    return total


def block_partials(values: np.ndarray, sums: np.ndarray, m2s: np.ndarray,
                   first_block: int) -> None:
    """Write each BLOCK of `values` (paths on axis 0): its pairwise sum to
    `sums` and its sum of squared deviations from the block mean to `m2s`,
    from index `first_block` on.

    `values` must start on a block boundary; only the final block of the
    whole ensemble may be short.  The squares are taken in place, so
    `values` (a float array) is overwritten.
    """
    for j, b in enumerate(range(0, values.shape[0], BLOCK)):
        seg = values[b:b + BLOCK]
        s = pairwise_sum(seg)
        sums[first_block + j] = s
        seg -= s / seg.shape[0]
        seg *= seg
        m2s[first_block + j] = pairwise_sum(seg)


def mean_se_from_sums(sums: np.ndarray, m2s: np.ndarray, m: int):
    """Mean and standard error of the mean of m paths from their
    `block_partials`; every block but the last holds BLOCK paths."""
    mean = pairwise_sum(sums) / m
    if m < 2:
        return mean, np.zeros_like(mean)
    n = np.full((len(sums),) + (1,) * (sums.ndim - 1), float(BLOCK))
    n[-1] = m - BLOCK * (len(sums) - 1)
    dev = sums / n - mean
    m2 = pairwise_sum(m2s + n * dev * dev)
    return mean, np.sqrt(m2 / (m - 1) / m)


def path_mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the mean over the path axis (axis 0)."""
    values = np.array(values, dtype=float)
    m = values.shape[0]
    sums = np.empty((-(-m // BLOCK),) + values.shape[1:])
    m2s = np.empty_like(sums)
    block_partials(values, sums, m2s, 0)
    return mean_se_from_sums(sums, m2s, m)
