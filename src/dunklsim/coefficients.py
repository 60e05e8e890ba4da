"""Diffusion and outer-drift coefficient descriptors.

Descriptors are declarative so that the model layer can read exact
Lipschitz constants and sup bounds off the form instead of estimating
them by sampling.

Three diffusion forms:

* `DiagonalSigma`, diag(fn_1(t), ..., fn_d(t)): one time function per
  coordinate, or a single one broadcast to all d (sigma = fn(t) * I);
* `MatrixSigma`, a constant d x r matrix;
* `LinearSigma`, base + sum_l clip(x_l, -R, R) C_l, the only
  state-dependent form.

The scalar diffusion size `bar(t)` used in moment thresholds is the sup
over x of the size that `_sizes` defines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError
from .timefn import TimeFn, as_timefn


def _sizes(mats: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Diffusion size of each matrix in a (m, d, r) stack of values of a
    form built from the matrices `parts` (p, d, r): the largest |diagonal
    entry| when every part is square diagonal, the Frobenius norm
    otherwise.  Both are convex in the form's coefficients."""
    d, r = parts.shape[1:]
    if d == r and not np.any(parts * (1.0 - np.eye(d))):
        return np.abs(np.diagonal(mats, axis1=1, axis2=2)).max(axis=1)
    return np.sqrt(np.sum(mats * mats, axis=(1, 2)))


@dataclass(frozen=True)
class DiagonalSigma:
    """sigma(t, x) = diag(fn_1(t), ..., fn_d(t)); a single function is
    broadcast to all d coordinates, sigma = fn(t) * identity."""

    fns: tuple[TimeFn, ...]

    def __post_init__(self):
        object.__setattr__(self, "fns", tuple(as_timefn(f) for f in self.fns))

    def brownian_dim(self, d: int) -> int:
        if len(self.fns) not in (1, d):
            raise DimensionError(
                f"diagonal diffusion has {len(self.fns)} entries for dimension {d}")
        return d

    def bar(self, t: float) -> float:
        return max(abs(float(f(t))) for f in self.fns)

    def lipschitz(self, T: float) -> float:
        return 0.0


@dataclass(frozen=True)
class MatrixSigma:
    """Constant d x r matrix."""

    values: tuple[tuple[float, ...], ...]
    fns = ()  # no time functions

    def __post_init__(self):
        m = np.asarray(self.values, dtype=float)
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise ParameterError("matrix diffusion needs a finite 2-d array")
        object.__setattr__(self, "values", tuple(tuple(float(v) for v in row) for row in m))

    @cached_property
    def array(self) -> np.ndarray:
        m = np.array(self.values, dtype=float)
        m.flags.writeable = False
        return m

    def brownian_dim(self, d: int) -> int:
        m = self.array
        if m.shape[0] != d:
            raise DimensionError(f"diffusion matrix has {m.shape[0]} rows for dimension {d}")
        return m.shape[1]

    def apply(self, t, x, db):
        return db @ self.array.T

    def bar(self, t: float) -> float:
        m = self.array[None]
        return float(_sizes(m, m)[0])

    def lipschitz(self, T: float) -> float:
        return 0.0


@dataclass(frozen=True)
class LinearSigma:
    """sigma(t, x) = base + sum_l clip(x_l, -radius, radius) * coeffs[l].

    Linear in x on the box |x_l| <= radius and constant outside it.  The
    size is convex in the clipped vector, so its sup over R^d is the
    largest size over the 2^d box vertices (d <= 16); clipping is
    1-Lipschitz, so the Lipschitz constant is sqrt(sum_l |C_l|_F^2).
    """

    base: tuple[tuple[float, ...], ...]
    coeffs: tuple  # (d, d, r) nested tuples
    radius: float
    fns = ()  # no time functions

    def __post_init__(self):
        b = np.asarray(self.base, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        if (b.ndim != 2 or c.ndim != 3 or c.shape[0] != b.shape[0] or c.shape[1:] != b.shape
                or not (np.all(np.isfinite(b)) and np.all(np.isfinite(c)))):
            raise ParameterError("linear diffusion needs finite base (d,r) and coeffs (d,d,r)")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ParameterError("linear diffusion needs a positive finite radius")
        if b.shape[0] > 16:  # the sup is a max over 2^d vertices
            raise ParameterError(f"linear diffusion needs dimension <= 16, got {b.shape[0]}")

    @cached_property
    def base_array(self) -> np.ndarray:
        return np.asarray(self.base, dtype=float)

    @cached_property
    def coeff_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def brownian_dim(self, d: int) -> int:
        b = self.base_array
        if b.shape[0] != d:
            raise DimensionError(f"diffusion matrix has {b.shape[0]} rows for dimension {d}")
        return b.shape[1]

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """sigma at a batch of states (m, d), shape (m, d, r)."""
        z = np.clip(x, -self.radius, self.radius)
        return self.base_array + np.einsum("ml,lir->mir", z, self.coeff_array)

    def size(self, x: np.ndarray) -> np.ndarray:
        """The diffusion size at a batch of states (m, d), shape (m,)."""
        return _sizes(self.matrices(x), np.concatenate([self.base_array[None], self.coeff_array]))

    def apply(self, t, x, db):
        return np.einsum("mir,mr->mi", self.matrices(x), db)

    @cached_property
    def _bar(self) -> float:
        d = self.base_array.shape[0]
        corners = self.radius * (1.0 - 2.0 * ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1))
        # blocks of 4096 vertices bound the stack of matrices held at once
        return max(float(self.size(corners[i:i + 4096]).max())
                   for i in range(0, corners.shape[0], 4096))

    def bar(self, t: float) -> float:
        return self._bar

    def lipschitz(self, T: float) -> float:
        return float(np.linalg.norm(self.coeff_array))


SigmaSpec = DiagonalSigma | MatrixSigma | LinearSigma


@dataclass(frozen=True)
class ZeroDrift:
    def lipschitz(self, T: float) -> float:
        return 0.0

    def at_origin_sup(self, T: float) -> float:
        return 0.0


@dataclass(frozen=True)
class LinearDrift:
    """b(t, x) = fn(t) * x; satisfies the chamber-alignment condition with
    bound max(0, -fn(t))."""

    fn: TimeFn

    def __post_init__(self):
        object.__setattr__(self, "fn", as_timefn(self.fn))

    def apply(self, t, x):
        return float(self.fn(t)) * x

    def lipschitz(self, T: float) -> float:
        return max(abs(self.fn.sup_on(T)), abs(self.fn.inf_on(T)))

    def at_origin_sup(self, T: float) -> float:
        return 0.0


@dataclass(frozen=True)
class ConstantDrift:
    """b(t, x) = v.  Chamber-aligned iff <alpha, v> >= 0 for every root."""

    values: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ParameterError("constant drift needs a finite vector")
        object.__setattr__(self, "values", tuple(float(c) for c in v))

    @cached_property
    def array(self) -> np.ndarray:
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False
        return v

    def apply(self, t, x):
        return np.broadcast_to(self.array, x.shape)

    def lipschitz(self, T: float) -> float:
        return 0.0

    def at_origin_sup(self, T: float) -> float:
        return float(np.linalg.norm(self.array))


DriftSpec = ZeroDrift | LinearDrift | ConstantDrift
