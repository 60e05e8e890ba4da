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
When the positive roots are mutually orthogonal (d=1, A(2), B(1) and
their direct sums) the engine solves either step in closed form and
records 0 solver iterations; otherwise `stepping._newton_batch` solves
it, the capped step to the error its certificate allows.

`run_batch` is the only way to simulate: it advances a batch of paths in
lockstep from their increments (`brownian.batch_increments`), and a
single path is a batch of one (`path_ids=np.array([i])`).  Its step loop,
`_lockstep`, also advances one batch on several grids at once, each on a
prefix of the finest grid's normals, for `mc.chamber_exit`; a run is its
one-grid case.  Per-path arithmetic is elementwise, so a row does not
depend on which other paths share the batch.  The root contractions are matrix products, which BLAS
sums the same way for a row in any batch of two or more rows (gemm) but
in another order for a single row (gemv); a batch of one path therefore
runs as two copies of the path and keeps the first.  `audit_batch` does
the same, and both build the predictor in `_predictor`.  Increments may
come in any layout; those of `batch_increments` are time-major, like the
states `run_batch` stores, so each step reads and writes contiguous rows,
with the same bytes as on path-major arrays.

States go into one time-major slab: the whole grid, or, for a run given
a consumer, `_SLAB_STEPS` times reused and handed to it each time it
fills, so such a run never holds more than one slab of states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stepping
from .brownian import TimeGrid
from .coefficients import ZeroDrift
from .errors import DimensionError, GridError, ParameterError, PathSolverError
from .model import ModelSpec, _dot, lipschitz_scale, repulsion
from .roots import RootSystem
from .stepping import _certificate, _failure_text, _newton_batch, _orthogonal_batch, _twin

VARIANTS = ("exact", "truncated")

# times per slab when `run_batch` streams its states to a consumer
_SLAB_STEPS = 64
# A capped solver call stacks as many whole grids as this many rows hold
# (one grid of a larger batch).  Past it a call's fixed cost, about 70 us, is
# a small share of its time, and each stacked row adds ~600 B of working
# arrays (B(2)).
_CALL_ROWS = 2048


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme parameters; `c` is only read by the truncated variant.  Every
    step certifies the error `stepping._SOLVER_TOL`."""

    variant: str
    theta: float
    n: int
    c: float = 1.1

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


@dataclass(frozen=True)
class BatchPaths:
    """States and diagnostics of a batch run (internal to the engine).

    `states` (paths, times, d), `in_chamber` and `iterations` are views of
    time-major storage.  `states` holds every grid time, or the last slab
    of a run given a consumer; either way `states[:, -1]` holds X(T).
    `first_violation` is a path's first step outside the chamber
    (truncated variant), -1 when it never left; `iterations` holds each
    step's Newton iterations after the solver's explicit sweeps (0 for a
    step they or the closed form certify)."""

    states: np.ndarray
    first_violation: np.ndarray
    in_chamber: np.ndarray | None
    iterations: np.ndarray | None


def truncation_level(m: ModelSpec, cfg: SchemeConfig) -> float:
    """Cap level eps_n = c sqrt(L T / n); shrinks at the CLT rate so the
    capped drift stays a contraction with factor (1-theta)/c^2."""
    if cfg.variant != "truncated":
        raise ParameterError("cap level is only defined for the truncated variant")
    return cfg.c * math.sqrt(lipschitz_scale(m) * m.T / cfg.n)


def capped_step_bound(m: ModelSpec, cfg: SchemeConfig) -> float:
    """Largest certified error B0 rho^{m*} of a capped step over the grid's
    step times: every truncated step of the run lies this close to its
    exact solution or closer."""
    return max(_step_bounds(m, cfg, TimeGrid(cfg.n, m.T)))


def _step_bounds(m: ModelSpec, cfg: SchemeConfig, grid: TimeGrid) -> list[float]:
    """The capped step's certified error B0 rho^{m*} at each step of the
    grid, from one certificate per distinct row of strengths."""
    h = (1.0 - cfg.theta) * grid.dt
    eps = truncation_level(m, cfg)
    rows, inverse = np.unique(m.k_at(grid.times[1:]), axis=0, return_inverse=True)
    bounds = [b0 * rho ** m_star for m_star, rho, b0 in
              (_certificate(m.rs, kv, h, eps, stepping._SOLVER_TOL) for kv in rows)]
    return [bounds[i] for i in inverse.ravel()]


def _closed_form_ok(rs: RootSystem) -> bool:
    """Mutually orthogonal roots (d=1, A(2), B(1) and their direct sums):
    the implicit step splits into one scalar quadratic per root."""
    gram = rs.matrix @ rs.matrix.T
    return np.count_nonzero(gram - np.diag(np.diag(gram))) == 0


def _predictor(m: ModelSpec, cfg: SchemeConfig, grid: TimeGrid, kvg: np.ndarray,
               eps: float | None, l: int, x: np.ndarray, db: np.ndarray,
               npaths: int) -> np.ndarray:
    """xhat_l = X_l + sigma dB_l + b dt + theta dt f(X_l) for a batch of
    states; the exact variant (eps None) first checks that every state is
    inside the chamber and names the first `npaths` rows that are not."""
    t_l = float(grid.times[l])
    xhat = x + m.sigma.apply(t_l, x, db)
    if not isinstance(m.drift, ZeroDrift):
        xhat += m.drift.apply(t_l, x) * grid.dt
    if cfg.theta > 0.0:
        a = m.rs.matrix
        p = _dot(x, a.T)
        if eps is None and p.min() <= 0.0:
            raise PathSolverError(
                "exact scheme state left the chamber (corrupted input?)",
                step=l, path_ids=np.nonzero(p[:npaths].min(axis=1) <= 0.0)[0].tolist())
        xhat += cfg.theta * grid.dt * repulsion(a, kvg[l], p, eps)
    return xhat


def _checked_increments(m: ModelSpec, cfg: SchemeConfig, increments) -> np.ndarray:
    """`increments` as an array, which must be (paths, n, r) on the scheme's grid."""
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 3 or inc.shape[1] != cfg.n or inc.shape[2] != m.brownian_dim:
        raise DimensionError(
            f"increments shape {inc.shape} incompatible with n={cfg.n}, r={m.brownian_dim}")
    return inc


def run_batch(m: ModelSpec, cfg: SchemeConfig, increments: np.ndarray,
              consume=None, record_flags: bool = False,
              record_iterations: bool = False) -> BatchPaths:
    """Advance a batch of paths; increments must be (paths, n, r) on the
    scheme's own grid.

    Without `consume` the result holds every state.  With it, the states
    go, one slab of at most `_SLAB_STEPS` times at a time, to
    consume(first_step, states), a (paths, k, d) view of times first_step
    .. first_step+k-1 whose buffer the next slab overwrites; the result
    then holds the last slab.  Flags and iteration counts cover the whole
    grid either way.  The steps are those of `_lockstep` on one grid."""
    inc = _checked_increments(m, cfg, increments)
    npaths = inc.shape[0]
    rows = max(npaths, 2) if npaths else 0       # a lone path runs twinned
    # time-major slab behind (rows, times, .) views: a step writes one row
    slab = np.empty((cfg.n + 1 if consume is None else min(_SLAB_STEPS, cfg.n + 1),
                     rows, m.dim))
    slab[0] = m.xi_array
    first, filled = 0, 1
    flags = np.ones((cfg.n + 1, rows), dtype=bool) if record_flags else None
    iter_rec = np.zeros((cfg.n, rows), dtype=np.int32) if record_iterations else None

    def store(l, x, iters, bad):
        nonlocal first, filled
        if iter_rec is not None:
            iter_rec[l] = iters
        if flags is not None and bad is not None:
            flags[l + 1] = ~bad
        if filled == len(slab):
            consume(first, slab.transpose(1, 0, 2)[:npaths])
            first, filled = first + filled, 0
        slab[filled] = x
        filled += 1

    first_violation = _lockstep(m, [cfg], inc, on_step=store)[0]
    states = slab[:filled].transpose(1, 0, 2)[:npaths]
    if consume is not None:
        consume(first, states)
    return BatchPaths(states=states, first_violation=first_violation,
                      in_chamber=None if flags is None else flags.T[:npaths],
                      iterations=None if iter_rec is None else iter_rec.T[:npaths])


def _lockstep(m: ModelSpec, cfgs: list[SchemeConfig], inc: np.ndarray, unit: bool = False,
              on_step=None) -> np.ndarray:
    """Advance one batch of paths on every grid of `cfgs` (one variant,
    theta and c; n strictly decreasing) in lockstep; returns each grid's
    first violations, (grids, paths).

    Grid j reads the first n_j of the finest grid's increments `inc`
    (paths, n_0, r), or, with `unit`, of unit-scale normals times its own
    sqrt(dt): bitwise its own `brownian.batch_increments`.  Step l advances
    the grids with n_j > l, a prefix of `cfgs`, each from its predictor at
    its own t_l.  A capped solver call then takes the rows of up to
    `_CALL_ROWS // paths` grids with per-row h, eps, tolerance and
    strengths; any other call holds one grid and takes scalars.  Rows are
    elementwise, so no grid's paths depend on which grids share a call.
    A failed step raises `PathSolverError` with the grid's step and path
    ids, the finest grid first.  With one grid, on_step(l, x, iters, bad)
    sees each step: the states at t_{l+1} (a lone path twinned), solver
    iterations and, truncated, which rows are outside the chamber.
    """
    npaths = inc.shape[0]
    inc = _twin(inc)
    rows = inc.shape[0]
    rs = m.rs
    a = rs.matrix
    truncated = cfgs[0].variant == "truncated"
    closed_form = _closed_form_ok(rs)
    grids = [TimeGrid(cfg.n, m.T) for cfg in cfgs]
    kvg = [m.k_at(grid.times) for grid in grids]
    eps = [truncation_level(m, cfg) if truncated else None for cfg in cfgs]
    h = [(1.0 - cfg.theta) * grid.dt for cfg, grid in zip(cfgs, grids)]
    # the capped step stops at the residual its certificate allows
    tols = [_step_bounds(m, cfg, grid) if truncated and not closed_form
            else [stepping._SOLVER_TOL] * cfg.n for cfg, grid in zip(cfgs, grids)]
    scales = [np.sqrt(grid.dt) if unit else None for grid in grids]
    per_call = max(1, _CALL_ROWS // max(npaths, 1)) if truncated else 1
    # each group's grids [j0, j1), with the per-row h and eps of its stacked
    # calls as the leading rows of one array each
    groups = []
    for j0 in range(0, len(cfgs), per_call):
        j1 = min(j0 + per_call, len(cfgs))
        groups.append((j0, j1, None if j1 - j0 == 1 else (
            np.repeat(h[j0:j1], rows * rs.dim).reshape(-1, rs.dim),
            np.repeat(eps[j0:j1], rows * rs.n_roots).reshape(-1, rs.n_roots))))
    steady = all((kv == kvg[0][0]).all() for kv in kvg)     # k constant in time

    x = [np.tile(m.xi_array, (rows, 1))] * len(cfgs)
    first_violation = np.full((len(cfgs), rows), -1, dtype=np.int64)
    live, ends = len(cfgs), [cfg.n for cfg in cfgs]
    for l in range(ends[0]):
        while ends[live - 1] <= l:
            live -= 1
        for j0, j1, stack in groups:
            if j0 >= live:
                break
            if j1 > live:
                j1 = live
            db = inc[:, l]
            if j1 - j0 == 1:
                xhat = _predictor(m, cfgs[j0], grids[j0], kvg[j0], eps[j0], l, x[j0],
                                  db if scales[j0] is None else db * scales[j0], npaths)
                hj, ej, tol, kv = h[j0], eps[j0], tols[j0][l], kvg[j0][l + 1]
            else:
                xhat = np.concatenate([
                    _predictor(m, cfgs[j], grids[j], kvg[j], eps[j], l, x[j],
                               db if scales[j] is None else db * scales[j], npaths)
                    for j in range(j0, j1)])
                hj, ej = stack[0][:len(xhat)], stack[1][:len(xhat)]
                tol = np.repeat([tols[j][l] for j in range(j0, j1)], rows)
                kv = kvg[0][l + 1] if steady else np.repeat(
                    np.array([kvg[j][l + 1] for j in range(j0, j1)]), rows, axis=0)
            if closed_form:
                y, iters = _orthogonal_batch(rs, kv, xhat, hj, ej), 0
            else:
                y, iters, res, ok = _newton_batch(rs, kv, xhat, hj, tol, eps=ej)
                if not ok.all():    # name the first failing grid's paths
                    failed = ~ok.reshape(j1 - j0, rows)[:, :npaths]
                    j = int(np.argmax(failed.any(axis=1)))
                    bad_ids = np.nonzero(failed[j])[0]
                    at = j * rows + bad_ids
                    raise PathSolverError(
                        f"implicit step failed at step {l + 1}: {_failure_text(iters[at])}",
                        step=l + 1, path_ids=bad_ids.tolist(),
                        best=y[at[0]], residual=float(res[at[0]]))
            bad = None
            if truncated:
                bad = _dot(y, a.T).min(axis=1) <= 0.0
                fv = first_violation[j0:j1].reshape(-1)
                fv[bad & (fv < 0)] = l + 1
            if j1 - j0 == 1:
                x[j0] = y
            else:
                for j in range(j0, j1):
                    x[j] = y[(j - j0) * rows:(j - j0 + 1) * rows]
            if on_step is not None:
                on_step(l, y, iters, bad)
    return first_violation[:, :npaths]


def audit_batch(m: ModelSpec, cfg: SchemeConfig, increments: np.ndarray,
                states: np.ndarray) -> np.ndarray:
    """Residuals of the defining step equations along stored paths.

    Returns (paths, n) with |X_{l+1} - xhat_l - h f(t_{l+1}, X_{l+1})| from
    the recorded increments (paths, n, r) and states (paths, n + 1, d), so
    it is an independent check that the engine solved the right equations.
    """
    inc = _checked_increments(m, cfg, increments)
    npaths = inc.shape[0]
    st = np.asarray(states, dtype=float)
    if st.shape != (npaths, cfg.n + 1, m.rs.dim):
        raise DimensionError(f"states shape {st.shape} != {(npaths, cfg.n + 1, m.rs.dim)}")
    st, inc = _twin(st), _twin(inc)
    grid = TimeGrid(cfg.n, m.T)
    a = m.rs.matrix
    kvg = m.k_at(grid.times)
    eps = truncation_level(m, cfg) if cfg.variant == "truncated" else None
    h = (1.0 - cfg.theta) * grid.dt
    out = np.empty((st.shape[0], cfg.n))
    for l in range(cfg.n):
        xhat = _predictor(m, cfg, grid, kvg, eps, l, st[:, l], inc[:, l], npaths)
        y = st[:, l + 1]
        out[:, l] = np.linalg.norm(
            y - xhat - h * repulsion(a, kvg[l + 1], y @ a.T, eps), axis=1)
    return out[:npaths]
