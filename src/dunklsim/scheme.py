"""Chamber-preserving theta schemes driven by Brownian increments.

One step of the drift-implicit theta scheme reads

    xhat_l = X_l + sigma(t_l, X_l) dB_l + b(t_l, X_l) dt
             + theta dt f(t_l, X_l),
    X_{l+1} solves  y = xhat_l + (1-theta) dt f(t_{l+1}, y),

where f is the singular repulsion drift for the exact variant (theta in
[0, 1/2), every state strictly inside the chamber by construction) or its
eps-capped version for the truncated variant (theta in [0, 1), cap level
eps_n = c sqrt(L dt) with c > 1, states may leave the chamber and the
first violation is recorded rather than raised).  Both f and its capped
form are `model.repulsion`, shared with the step solvers and the audit.

`run_batch` is the only way to simulate: it advances a batch of paths in
lockstep from their increments (`brownian.batch_increments`), and a
single path is a batch of one (`path_ids=np.array([i])`).  Per-path
arithmetic is elementwise, so a row of a multi-row batch does not depend
on which other paths share the batch; a batch of one row may differ from
that row in the last ulp on systems with more than one root, because a
one-row matrix product sums in a different order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brownian import TimeGrid
from .coefficients import ZeroDrift
from .errors import DimensionError, GridError, ParameterError, PathSolverError
from .model import ModelSpec, lipschitz_scale, repulsion
from .roots import RootSystem
from .stepping import _certificate, _fixed_point_batch, _newton_batch, _quadratic_root

VARIANTS = ("exact", "truncated")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme parameters; `c` is only read by the truncated variant."""

    variant: str
    theta: float
    n: int
    c: float = 1.1
    solver_tol: float = 1e-10

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.n < 1:
            raise GridError(f"need at least one step, got n={self.n}")
        hi = 0.5 if self.variant == "exact" else 1.0
        if not 0.0 <= self.theta < hi:
            raise ParameterError(
                f"theta must lie in [0, {hi}) for the {self.variant} variant, got {self.theta}")
        if self.variant == "truncated" and not self.c > 1.0:
            raise ParameterError(f"cap multiplier c must exceed 1, got {self.c}")
        if not self.solver_tol > 0.0:
            raise ParameterError("solver tolerance must be positive")


class BatchPaths:
    """States and diagnostics of a batch run (internal to the engine)."""

    __slots__ = ("states", "store_stride", "exited", "first_violation",
                 "in_chamber", "iterations", "final")

    def __init__(self, states, store_stride, exited, first_violation,
                 in_chamber, iterations, final):
        self.states = states
        self.store_stride = store_stride
        self.exited = exited
        self.first_violation = first_violation
        self.in_chamber = in_chamber
        self.iterations = iterations
        self.final = final


def truncation_level(m: ModelSpec, cfg: SchemeConfig) -> float:
    """Cap level eps_n = c sqrt(L T / n); shrinks at the CLT rate so the
    capped drift stays a contraction with factor (1-theta)/c^2."""
    if cfg.variant != "truncated":
        raise ParameterError("cap level is only defined for the truncated variant")
    return cfg.c * math.sqrt(lipschitz_scale(m) * m.T / cfg.n)


def fixed_point_cap(m: ModelSpec, cfg: SchemeConfig) -> int:
    """Largest a priori count m* of the capped step over the grid's step
    times: no truncated step of the run sweeps more often."""
    grid = TimeGrid(cfg.n, m.T)
    h = (1.0 - cfg.theta) * grid.dt
    eps = truncation_level(m, cfg)
    return max(_certificate(m.rs, kv, h, eps, cfg.solver_tol)[0]
               for kv in np.unique(m.k_at(grid.times[1:]), axis=0))


def _closed_form_ok(rs: RootSystem) -> bool:
    return rs.dim == 1 and rs.n_roots == 1 and rs.matrix[0, 0] > 0.0


def run_batch(m: ModelSpec, cfg: SchemeConfig, increments: np.ndarray,
              store_stride: int = 1, record_flags: bool = False,
              record_iterations: bool = False) -> BatchPaths:
    """Advance a batch of paths; increments must be (paths, n, r) on the
    scheme's own grid."""
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 3 or inc.shape[1] != cfg.n or inc.shape[2] != m.brownian_dim:
        raise DimensionError(
            f"increments shape {inc.shape} incompatible with n={cfg.n}, r={m.brownian_dim}")
    npaths = inc.shape[0]
    grid = TimeGrid(cfg.n, m.T)
    dt = grid.dt
    times = grid.times
    rs = m.rs
    a = rs.matrix
    d = rs.dim
    kvg = m.k_at(times)
    truncated = cfg.variant == "truncated"
    eps = truncation_level(m, cfg) if truncated else None
    h = (1.0 - cfg.theta) * dt
    theta_dt = cfg.theta * dt
    zero_drift = isinstance(m.drift, ZeroDrift)
    closed_form = (not truncated) and _closed_form_ok(rs)

    if cfg.n % store_stride != 0:
        raise GridError(f"store stride {store_stride} does not divide n={cfg.n}")
    n_stored = cfg.n // store_stride
    states = np.empty((npaths, n_stored + 1, d))
    x = np.tile(m.xi_array, (npaths, 1))
    states[:, 0] = x
    exited = np.zeros(npaths, dtype=bool)
    first_violation = np.full(npaths, -1, dtype=np.int64)
    flags = np.ones((npaths, cfg.n + 1), dtype=bool) if record_flags else None
    iter_rec = np.zeros((npaths, cfg.n), dtype=np.int32) if record_iterations else None

    for l in range(cfg.n):
        t_l = float(times[l])
        db = inc[:, l]
        xhat = x + m.sigma.apply(t_l, x, db)
        if not zero_drift:
            xhat += m.drift.apply(t_l, x) * dt
        if cfg.theta > 0.0:
            p = x @ a.T
            if not truncated and p.min() <= 0.0:
                raise PathSolverError(
                    "exact scheme state left the chamber (corrupted input?)",
                    step=l, path_ids=np.nonzero(p.min(axis=1) <= 0.0)[0].tolist())
            xhat += theta_dt * repulsion(a, kvg[l], p, eps)

        kv = kvg[l + 1]
        if truncated:
            x, iters = _fixed_point_batch(rs, kv, xhat, h, eps, cfg.solver_tol)
            if iter_rec is not None:
                iter_rec[:, l] = iters
            pmin = (x @ a.T).min(axis=1)
            bad = pmin <= 0.0
            newly = bad & ~exited
            if np.any(newly):
                first_violation[newly] = l + 1
                exited |= newly
            if flags is not None:
                flags[:, l + 1] = ~bad
        elif closed_form:
            x = _quadratic_root(xhat[:, 0], h, kv[0])[:, None]
            if iter_rec is not None:
                iter_rec[:, l] = 0
        else:
            y, iters, res, ok = _newton_batch(rs, kv, xhat, h, cfg.solver_tol)
            if not ok.all():
                bad_ids = np.nonzero(~ok)[0]
                raise PathSolverError(
                    f"implicit step failed for {bad_ids.size} path(s) at step {l + 1}",
                    step=l + 1, path_ids=bad_ids.tolist(),
                    best=y[bad_ids[0]], residual=float(res[bad_ids[0]]))
            x = y
            if iter_rec is not None:
                iter_rec[:, l] = iters

        if (l + 1) % store_stride == 0:
            states[:, (l + 1) // store_stride] = x

    return BatchPaths(states=states, store_stride=store_stride, exited=exited,
                      first_violation=first_violation, in_chamber=flags,
                      iterations=iter_rec, final=x)


def audit_batch(m: ModelSpec, cfg: SchemeConfig, increments: np.ndarray,
                states: np.ndarray) -> np.ndarray:
    """Residuals of the defining step equations along stored paths.

    Returns (paths, n) with |X_{l+1} - xhat_l - h f(t_{l+1}, X_{l+1})|;
    reuses the recorded increments, so it is an independent check that the
    engine solved the right equations.
    """
    inc = np.asarray(increments, dtype=float)
    st = np.asarray(states, dtype=float)
    grid = TimeGrid(cfg.n, m.T)
    dt = grid.dt
    times = grid.times
    a = m.rs.matrix
    kvg = m.k_at(times)
    eps = truncation_level(m, cfg) if cfg.variant == "truncated" else None
    h = (1.0 - cfg.theta) * dt
    zero_drift = isinstance(m.drift, ZeroDrift)
    out = np.empty((st.shape[0], cfg.n))
    for l in range(cfg.n):
        t_l = float(times[l])
        x = st[:, l]
        xhat = x + m.sigma.apply(t_l, x, inc[:, l])
        if not zero_drift:
            xhat += m.drift.apply(t_l, x) * dt
        if cfg.theta > 0.0:
            xhat += cfg.theta * dt * repulsion(a, kvg[l], x @ a.T, eps)
        y = st[:, l + 1]
        out[:, l] = np.linalg.norm(
            y - xhat - h * repulsion(a, kvg[l + 1], y @ a.T, eps), axis=1)
    return out
