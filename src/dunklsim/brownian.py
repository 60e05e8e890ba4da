"""Time grids and reproducible Brownian increment drivers.

Every path owns a counter-based stream keyed by (master_seed, path_id)
through the Philox bit generator, so a path's increments depend only on
that pair, never on scheduling, batching or thread budget.  Increments are
generated once on the finest grid; coarser grids are obtained by exact
pairwise block sums, which makes coupled multi-resolution runs telescope
exactly (the sum of all coarse increments is bitwise the pairwise sum of
all fine ones for power-of-two factors).  A grid may also be drawn in
time blocks, each path's generator state carried from one block to the
next (`StreamCarry`), with the bytes of the one-call draw.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, ParameterError

_U64 = 2 ** 64
_DRAW_BYTES = 2 ** 18     # draw buffer size, unless _DRAW_PATHS paths need more
_DRAW_PATHS = 16          # smallest draw group, or every path of a smaller call


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = T."""

    n: int
    T: float

    def __post_init__(self):
        if self.n < 1:
            raise GridError(f"grid needs at least one step, got n={self.n}")
        if not self.T > 0.0:
            raise ParameterError(f"horizon must be positive, got {self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.n

    @cached_property
    def times(self) -> np.ndarray:
        v = np.arange(self.n + 1) * (self.T / self.n)
        v.flags.writeable = False
        return v


def _check_seed(name: str, value: int) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {type(value).__name__}")
    if not 0 <= int(value) < _U64:
        raise ParameterError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    return int(value)


def path_rng(master_seed: int, path_id: int) -> np.random.Generator:
    """The per-path generator: Philox keyed by (master_seed, path_id)."""
    key = np.array([_check_seed("master_seed", master_seed),
                    _check_seed("path_id", path_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class StreamCarry:
    """Where each path's Philox stream stopped when a time block was drawn:
    `states` holds each path's generator state, about 1 KB, and `step` is
    the step the next block starts at."""

    def __init__(self):
        self.step = 0
        self.states: list[dict] = []


def batch_increments(r: int, finest_n: int, T: float, master_seed: int,
                     path_ids: np.ndarray, block: tuple[int, int] | None = None,
                     carry: StreamCarry | None = None) -> np.ndarray:
    """Increments for many paths as an (m, k, r) view of time-major
    storage, so step l's increments `inc[:, l]` are one contiguous row; a
    path's values are its Philox stream scaled by sqrt(dt), bitwise.

    By default k = finest_n: the whole grid.  `block` = (first, stop) draws
    steps first .. stop - 1 alone (k = stop - first), each path's stream
    going on from `carry`, which the same paths' block ending at `first`
    filled; a block ending before finest_n fills `carry` for the next.
    Blocks of a grid are therefore bitwise slices of the whole grid's draw,
    and a one-block draw keeps no per-path generator state."""
    grid = TimeGrid(n=finest_n, T=T)
    first, stop = (0, finest_n) if block is None else block
    if not 0 <= first < stop <= finest_n:
        raise GridError(f"time block {(first, stop)} is not inside the {finest_n}-step grid")
    resume, save = first > 0, stop < finest_n
    if (resume or save) and carry is None:
        raise ParameterError("a time block that is not the whole grid needs a StreamCarry")
    if resume and carry.step != first:
        raise GridError(f"the carried streams stopped at step {carry.step}, not {first}")
    scale = np.sqrt(grid.dt)
    # One Philox per call, re-keyed per path to path_rng's fresh state
    # (counter zero, empty buffer) or to its carried state; local, since
    # chunks run on threads.
    bitgen = np.random.Philox(key=np.array([_check_seed("master_seed", master_seed), 0],
                                           dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    ids = np.asarray(path_ids)
    # `_check_seed` runs per id only where the dtype admits a bad one
    valid = ids.dtype.kind == "u" or (ids.dtype.kind == "i" and ids.min(initial=0) >= 0)
    ids = ids.tolist() if valid else [_check_seed("path_id", int(pid)) for pid in ids.tolist()]
    if resume and len(carry.states) != len(ids):
        raise ParameterError(f"the carry holds {len(carry.states)} streams, not {len(ids)}")
    steps = stop - first
    out = np.empty((steps, len(ids), r))
    # each path's state replaces the one it was restored from, so one
    # path's carried state is alive at a time, not the old and the new
    states = carry.states if resume else [None] * len(ids) if save else []
    # Groups of paths are drawn into one small buffer, scaled there and
    # copied to their columns, each path-step's r values as one record.
    size = max(1, min(_DRAW_PATHS, len(ids)), _DRAW_BYTES // (8 * steps * r))
    buf = np.empty((min(len(ids), size), steps, r))
    rec = np.dtype((np.void, 8 * r))
    for g in range(0, len(ids), size):
        group = buf[:len(ids[g:g + size])]
        for i, (row, pid) in enumerate(zip(group, ids[g:g + size]), g):
            if resume:
                bitgen.state = carry.states[i]
            else:
                key[1] = pid
                bitgen.state = fresh
            gen.standard_normal(out=row)
            if resume or save:
                states[i] = bitgen.state if save else None
        group *= scale
        out.view(rec)[:, g:g + len(group), 0] = group.view(rec)[..., 0].T
    if carry is not None:
        carry.states, carry.step = states if save else [], stop
    return out.transpose(1, 0, 2)


def coarsen(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive groups of `factor` increments (pairwise within groups).

    `factor` must be a power of two dividing the number of increments, so
    composition is exact: coarsening by f1 then f2 is bitwise the same as
    coarsening by f1*f2.
    """
    inc = np.asarray(increments)
    n = inc.shape[-2]
    if factor < 1 or factor & (factor - 1) or n % factor != 0:
        raise GridError(f"factor {factor} is not a power of two dividing {n} increments")
    if factor == 1:
        return inc.copy()
    groups = inc.reshape(inc.shape[:-2] + (n // factor, factor, inc.shape[-1]))
    while groups.shape[-2] > 1:
        groups = groups[..., 0::2, :] + groups[..., 1::2, :]
    return groups[..., 0, :]
