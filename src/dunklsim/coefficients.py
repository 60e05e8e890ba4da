"""Diffusion and outer-drift coefficient descriptors.

Descriptors are declarative so that the model layer can extract exact
Lipschitz constants and sup bounds where the form allows it, instead of
estimating them by sampling.  Spatially dependent forms must declare the
bounds that cannot be computed from the data.

Three diffusion forms:

* `DiagonalSigma`, diag(fn_1(t), ..., fn_d(t)): one time function per
  coordinate, or a single one broadcast to all d (sigma = fn(t) * I);
* `MatrixSigma`, a constant d x r matrix;
* `LinearSigma`, base + sum_l x_l C_l with a declared sup bound, the only
  state-dependent form.

The scalar diffusion size `bar(t)` used in moment thresholds is

* the largest diagonal entry magnitude when the matrix is square diagonal,
* the Frobenius norm otherwise,
* the declared bound for `LinearSigma`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .timefn import TimeFn, as_timefn


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

    def apply(self, t, x, db):
        return db * np.array([float(f(t)) for f in self.fns])

    def bar(self, t: float) -> float:
        return max(abs(float(f(t))) for f in self.fns)

    @property
    def bar_declared(self) -> bool:
        return False

    def lipschitz(self, T: float) -> float:
        return 0.0

    def breakpoints(self, T):
        return tuple(b for f in self.fns for b in f.breakpoints(T))


@dataclass(frozen=True)
class MatrixSigma:
    """Constant d x r matrix."""

    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        m = np.asarray(self.values, dtype=float)
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise ParameterError("matrix diffusion needs a finite 2-d array")
        object.__setattr__(self, "values", tuple(tuple(float(v) for v in row) for row in m))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def brownian_dim(self, d: int) -> int:
        m = self.array
        if m.shape[0] != d:
            raise DimensionError(f"diffusion matrix has {m.shape[0]} rows for dimension {d}")
        return m.shape[1]

    def apply(self, t, x, db):
        return db @ self.array.T

    def _is_square_diagonal(self) -> bool:
        m = self.array
        return m.shape[0] == m.shape[1] and np.all(m == np.diag(np.diag(m)))

    def bar(self, t: float) -> float:
        m = self.array
        if self._is_square_diagonal():
            return float(np.abs(np.diag(m)).max())
        return float(np.sqrt(np.sum(m * m)))

    @property
    def bar_declared(self) -> bool:
        return False

    def lipschitz(self, T: float) -> float:
        return 0.0

    def breakpoints(self, T):
        return ()


@dataclass(frozen=True)
class LinearSigma:
    """sigma(t, x) = base + sum_l x_l * coeffs[l], with a declared sup bound.

    The Lipschitz constant follows from the coefficient blocks; the sup of
    the diffusion size over the (unbounded) chamber cannot, so the caller
    must declare the bound used in moment thresholds.
    """

    base: tuple[tuple[float, ...], ...]
    coeffs: tuple  # (d, d, r) nested tuples
    sup_bound: float

    def __post_init__(self):
        b = np.asarray(self.base, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        if (b.ndim != 2 or c.ndim != 3 or c.shape[0] != b.shape[0] or c.shape[1:] != b.shape
                or not (np.all(np.isfinite(b)) and np.all(np.isfinite(c)))):
            raise ParameterError("linear diffusion needs finite base (d,r) and coeffs (d,d,r)")
        if not (self.sup_bound > 0.0 and np.isfinite(self.sup_bound)):
            raise ParameterError("linear diffusion needs a positive declared sup bound")

    @property
    def base_array(self):
        return np.asarray(self.base, dtype=float)

    @property
    def coeff_array(self):
        return np.asarray(self.coeffs, dtype=float)

    def brownian_dim(self, d: int) -> int:
        b = self.base_array
        if b.shape[0] != d:
            raise DimensionError(f"diffusion matrix has {b.shape[0]} rows for dimension {d}")
        return b.shape[1]

    def apply(self, t, x, db):
        mats = self.base_array[None] + np.einsum("ml,lir->mir", x, self.coeff_array)
        return np.einsum("mir,mr->mi", mats, db)

    def bar(self, t: float) -> float:
        return float(self.sup_bound)

    @property
    def bar_declared(self) -> bool:
        return True

    def lipschitz(self, T: float) -> float:
        c = self.coeff_array
        return float(np.sqrt(sum(np.sum(c[l] * c[l]) for l in range(c.shape[0]))))

    def breakpoints(self, T):
        return ()


SigmaSpec = DiagonalSigma | MatrixSigma | LinearSigma


@dataclass(frozen=True)
class ZeroDrift:
    def apply(self, t, x):
        return np.zeros_like(x)

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

    @property
    def array(self):
        return np.asarray(self.values, dtype=float)

    def apply(self, t, x):
        return np.broadcast_to(self.array, x.shape)

    def lipschitz(self, T: float) -> float:
        return 0.0

    def at_origin_sup(self, T: float) -> float:
        return float(np.linalg.norm(self.array))


DriftSpec = ZeroDrift | LinearDrift | ConstantDrift
