"""Deterministic reductions over Monte Carlo path ensembles.

All cross-path sums in this package go through `path_sum`, which uses a
fixed pairwise tree: paths are grouped into blocks of `BLOCK`, each block
is summed by recursive halving, and the block partials are combined by the
same rule.  The tree depends only on the number of paths, never on
execution chunking or thread count, so ensemble statistics are bitwise
reproducible.
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


def block_partials(values: np.ndarray, out: np.ndarray, first_block: int) -> None:
    """Write per-BLOCK pairwise partial sums of `values` (paths on axis 0).

    `values` must start on a block boundary; only the final block of the
    whole ensemble may be short.  Results go to out[first_block:...].
    """
    m = values.shape[0]
    nb = -(-m // BLOCK)
    for j in range(nb):
        seg = values[j * BLOCK:(j + 1) * BLOCK]
        out[first_block + j] = pairwise_sum(seg)


def path_sum(values: np.ndarray) -> np.ndarray:
    """Canonical deterministic sum over the path axis (axis 0)."""
    m = values.shape[0]
    if m <= BLOCK:
        return pairwise_sum(values)
    nb = -(-m // BLOCK)
    parts = np.empty((nb,) + values.shape[1:], dtype=float)
    block_partials(values, parts, 0)
    return pairwise_sum(parts)


def path_mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the mean over the path axis.

    Uses centered sums so an ensemble of identical values reports zero
    spread whenever the mean is exact.
    """
    m = values.shape[0]
    mean = path_sum(values) / m
    if m < 2:
        return mean, np.zeros_like(mean)
    dev = values - mean
    var = path_sum(dev * dev) / (m - 1)
    var = np.maximum(var, 0.0)
    return mean, np.sqrt(var / m)


def mean_se_from_sums(s1: np.ndarray, s2: np.ndarray, m: int):
    """Mean and standard error from accumulated sum and sum of squares."""
    mean = s1 / m
    if m < 2:
        return mean, np.zeros_like(mean)
    var = (s2 - s1 * s1 / m) / (m - 1)
    var = np.maximum(var, 0.0)
    return mean, np.sqrt(var / m)
