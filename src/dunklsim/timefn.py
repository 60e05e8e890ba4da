"""Scalar functions of time used for repulsion strengths and coefficients.

Three forms are supported: constants, ``a + b*sqrt(t)`` (which is exactly
1/2-Hoelder on [0, T]), and tabulated values with linear interpolation.
Each form reports exact extrema on an interval where it can (constants and
sqrt-affine functions are monotone in t; piecewise-linear tables attain
extrema at nodes).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class ConstantFn:
    value: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(float(self.value), t.shape).copy() if t.ndim else float(self.value)

    def sup_on(self, T: float) -> float:
        return float(self.value)

    def inf_on(self, T: float) -> float:
        return float(self.value)

    def breakpoints(self, T: float) -> tuple[float, ...]:
        return ()

    @property
    def is_constant(self) -> bool:
        return True


@dataclass(frozen=True)
class SqrtAffineFn:
    """t -> a + b*sqrt(t)."""

    a: float
    b: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.a + self.b * np.sqrt(t)
        return out if t.ndim else float(out)

    def sup_on(self, T: float) -> float:
        return max(self.a, self.a + self.b * math.sqrt(T))

    def inf_on(self, T: float) -> float:
        return min(self.a, self.a + self.b * math.sqrt(T))

    def breakpoints(self, T: float) -> tuple[float, ...]:
        return ()

    @property
    def is_constant(self) -> bool:
        return self.b == 0.0


@dataclass(frozen=True)
class TableFn:
    """Linear interpolation through (t_i, v_i); constant outside the table."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
            raise ParameterError("table needs matching time/value vectors of length >= 2")
        # Python floats overflow to inf without a warning
        steps = [b - a for x in (t.tolist(), v.tolist()) for a, b in zip(x, x[1:])]
        if not all(map(math.isfinite, steps)):
            raise ParameterError("table entries and the steps between them must be finite")
        if not np.all(np.diff(t) > 0):
            raise ParameterError("table times must be strictly increasing")
        object.__setattr__(self, "times", tuple(float(x) for x in t))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def __call__(self, t):
        """v_i + w (v_{i+1} - v_i) with w = (t - t_i) / (t_{i+1} - t_i) in
        [0, 1]: no factor overflows between close nodes, as the slope
        (v_{i+1} - v_i) / (t_{i+1} - t_i) can.  Exact at every node."""
        t = np.clip(np.asarray(t, dtype=float), self.times[0], self.times[-1])
        i = np.searchsorted(self.times, t, side="right") - 1
        # past the last node: a zero-length step to a copy of its value
        ts, vs = np.append(self.times, np.inf), np.append(self.values, self.values[-1])
        out = vs[i] + (t - ts[i]) / (ts[i + 1] - ts[i]) * (vs[i + 1] - vs[i])
        return out if out.ndim else float(out)

    def _covering(self, T: float) -> np.ndarray:
        return self(np.clip(np.asarray((0.0,) + self.times + (T,)), 0.0, T))

    def sup_on(self, T: float) -> float:
        return float(self._covering(T).max())

    def inf_on(self, T: float) -> float:
        return float(self._covering(T).min())

    def breakpoints(self, T: float) -> tuple[float, ...]:
        return tuple(t for t in self.times if 0.0 < t < T)

    @property
    def is_constant(self) -> bool:
        return len(set(self.values)) == 1


TimeFn = ConstantFn | SqrtAffineFn | TableFn


def as_timefn(x) -> TimeFn:
    """Coerce a number to a ConstantFn; pass TimeFn instances through."""
    if isinstance(x, (ConstantFn, SqrtAffineFn, TableFn)):
        return x
    if isinstance(x, (int, float)):
        return ConstantFn(float(x))
    raise ParameterError(f"cannot interpret {x!r} as a function of time")


def time_lattice(T: float, fns: tuple[TimeFn, ...], points: int = 1024) -> np.ndarray:
    """Uniform lattice on [0, T] joined with every breakpoint of `fns`."""
    base = np.linspace(0.0, T, points + 1)
    extra = [b for fn in fns for b in fn.breakpoints(T)]
    if extra:
        base = np.unique(np.concatenate([base, np.asarray(extra)]))
    return base
