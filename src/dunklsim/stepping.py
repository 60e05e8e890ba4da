"""Implicit step solvers for the chamber-repulsion drift.

One scheme step must solve, for a given predictor `xhat` and weight h > 0,

    y = xhat + h * sum_alpha k_alpha / <alpha, y> alpha,     y in W,

or, in the truncated variant, the same equation with every pairing capped
below at eps (f_eps, defined on all of R^d).  The sum is `model.repulsion`;
every residual and iterate below evaluates it there.  Either step is the
gradient equation g(y) = grad phi(y) = 0 of

    phi(y) = |y - xhat|^2 / 2 - h * sum_alpha k_alpha psi(<alpha, y>),

with psi = log for the exact step and psi_eps (log above eps, its tangent
line below) for the capped one.  psi is concave, so phi is 1-strongly
convex: y_star exists, is unique, and |y - y_star| <= |g(y)| for every y,
so the residual certifies the error itself.  One kernel, `_newton_batch`,
runs semismooth Newton (Qi & Sun, Math. Prog. 1993) on g = 0 for both
steps, for at most 200 iterations (`_NEWTON_CAP`), with a line search that
backtracks on the residual |g| it certifies (Hessians from the cached
`RootSystem.outer`, weights h k / <alpha, y>^2, and 0 where a pairing is
on the cap); a path whose iterate can no longer move stops at once,
stalled.  Both steps start from explicit sweeps y <- xhat + h f(y), so
away from the walls most paths certify before any Newton iteration, and
iteration counts are Newton iterations after the sweeps.  The exact step
starts strictly inside and caps each Newton step at a fraction of the way
to a wall, so every iterate stays strictly inside.  The capped step stops
at the residual B0 rho^{m*} <= tol of the contraction certificate

    |y_star - y_m| <= B0 rho^m,   B0 = eps * sum(k |alpha|) / (L (1 - rho)),
    rho = L h / eps^2 < 1,   L = sum k_alpha |alpha|^2,

whose count m* (smallest m with B0 rho^m <= tol) is the number of
fixed-point sweeps that would certify the same error.  When the positive
roots are mutually orthogonal, either step splits into one scalar
quadratic per root, which `_orthogonal_batch` solves in closed form.

The public solvers take one predictor and serve as the reference for the
batched kernel, which advances a whole batch of predictors in lockstep
for `scheme.run_batch`; every per-path update is elementwise, so a path's
step does not depend on the other paths of a multi-row batch.  Neither the
kernel nor the reference ever multiplies a lone row (a lone row is listed
twice), so the matrix products always go through gemm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChamberError, DimensionError, ParameterError, SolverError
from .model import _dot, repulsion
from .roots import RootSystem

# Newton's line search: a trial at step t must cut the residual by the
# factor 1 - _ARMIJO t, and an exact step covers at most _WALL_FRACTION of
# the way to a wall.  Every step certifies an error of at most _SOLVER_TOL,
# which `scheme._plan` reads when it plans a grid.
_ARMIJO = 1e-4
_WALL_FRACTION = 0.95
_NEWTON_CAP = 200
_SOLVER_TOL = 1e-10
# Explicit sweeps y <- xhat + h f(y) that start Newton in both steps.
_SWEEPS = 5


@dataclass(frozen=True)
class SolveReport:
    """Certified result of one implicit step."""

    y: np.ndarray
    iterations: int
    residual: float


def closed_form_step_1d(xhat: float, h: float, k: float) -> float:
    """Positive solution of y = xhat + h k / y:  (xhat + sqrt(xhat^2 + 4 h k)) / 2."""
    if h < 0.0:
        raise ParameterError(f"step weight must be nonnegative, got {h}")
    if not k > 0.0:
        raise ParameterError(f"repulsion strength must be positive, got {k}")
    if h == 0.0:
        if xhat <= 0.0:
            raise ChamberError("zero-weight step needs a positive predictor")
        return float(xhat)
    return float(_quadratic_root(xhat, h, k))


def _quadratic_root(xhat, h, k):
    """(xhat + sqrt(xhat^2 + 4 h k)) / 2 for scalars or arrays of xhat."""
    return (xhat + np.sqrt(xhat * xhat + 4.0 * h * k)) / 2.0


def _orthogonal_batch(rs: RootSystem, kv: np.ndarray, xhat: np.ndarray, h: float,
                      eps: float | None = None) -> np.ndarray:
    """Closed-form step for a batch of predictors (m, d) when the positive
    roots are mutually orthogonal (diagonal Gram matrix).

    Projected on a root alpha, the step reads s = shat + c / s (capped:
    c / max(eps, s)) in s = <alpha, y>, shat = <alpha, xhat> and
    c = h k_alpha |alpha|^2.  Its solution is the positive quadratic root,
    or for the capped step shat + c / eps when that root lies below eps;
    g(s) = s - shat - c / max(eps, s) increases strictly, so exactly one
    branch is consistent.  The state is lifted back as

        y = (xhat - sum shat_alpha alpha / |alpha|^2) + sum s_alpha alpha / |alpha|^2,

    where the first bracket, the part of xhat orthogonal to every root, is
    skipped when the roots span R^d.  For d = 1 with root [1.0] this is
    `_quadratic_root` bitwise.  The capped step also takes per-row
    parameters, as `_newton_batch` does.
    """
    a = rs.matrix
    kn = kv * rs.norms_sq
    shat = _dot(xhat, a.T)
    h = _per_root(h)
    s = _quadratic_root(shat, h, kn)
    if eps is not None:
        s = np.where(s >= eps, s, shat + h * kn / eps)
    y = _dot(s, rs.lift)
    if rs.n_roots < rs.dim:
        y += xhat - _dot(shat, rs.lift)
    return y


def _per_root_k(rs: RootSystem, k_orbit) -> np.ndarray:
    k_orbit = np.asarray(k_orbit, dtype=float)
    if k_orbit.shape != (rs.n_orbits,):
        raise DimensionError(
            f"need one strength per orbit ({rs.n_orbits}), got shape {k_orbit.shape}")
    if np.any(k_orbit <= 0.0):
        raise ParameterError("repulsion strengths must be positive")
    return k_orbit[rs.orbit_of]


def solve_exact_step(rs: RootSystem, k_orbit, xhat, h: float,
                     tol: float = _SOLVER_TOL, initial=None) -> SolveReport:
    """Solve the implicit step exactly (damped Newton on grad phi = 0).

    `k_orbit` holds one positive strength per orbit (already evaluated at
    the step's time).  The residual of the report is
    |y - xhat - h f(y)| <= tol, with f evaluated by `model.repulsion`; y is
    the engine's step for this predictor bitwise.  Raises SolverError
    (carrying the best iterate) if Newton stalls or reaches its cap of 200
    iterations (`_NEWTON_CAP`) before it certifies the tolerance.
    """
    if not h > 0.0:
        raise ParameterError(f"step weight must be positive, got {h}")
    return _reference(rs, _per_root_k(rs, k_orbit), xhat, h, tol, initial)


def _reference(rs: RootSystem, kv: np.ndarray, xhat, h: float, tol: float,
               initial=None, eps: float | None = None) -> SolveReport:
    """One predictor (d,) through the batch kernel, `_twin`ned; raises SolverError unless certified."""
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (rs.dim,):
        raise DimensionError(f"predictor shape {xhat.shape} != ({rs.dim},)")
    y, iters, res, ok = _newton_batch(rs, kv, _twin(xhat[None, :]), h, tol, initial, eps)
    if not ok[0]:
        raise SolverError(
            f"Newton did not certify residual {tol:g}: {_failure_text(iters[:1])}",
            best=y[0], residual=float(res[0]), iterations=int(iters[0]))
    return SolveReport(y=y[0], iterations=int(iters[0]), residual=float(res[0]))


def solve_truncated_step(rs: RootSystem, k_orbit, xhat, h: float, eps: float,
                         tol: float = _SOLVER_TOL) -> SolveReport:
    """Solve the capped step by semismooth Newton, certified.

    Requires h < eps^2 / L strictly (L = sum k |alpha|^2), so that the
    step's contraction factor is rho = L h / eps^2 < 1.  Newton stops at
    residual |y - xhat - h f_eps(y)| <= B0 rho^{m*} (`fixed_point_certificate`),
    which bounds |y - y_star| by the same B0 rho^{m*} <= tol; y is the
    engine's step for this predictor bitwise.  Raises SolverError as
    `solve_exact_step` does.
    """
    kv = _per_root_k(rs, k_orbit)
    m_star, rho, b0 = _certificate(rs, kv, h, eps, tol)
    return _reference(rs, kv, xhat, h, b0 * rho ** m_star, eps=eps)


def fixed_point_certificate(rs: RootSystem, k_orbit, h: float, eps: float,
                            tol: float = _SOLVER_TOL) -> tuple[int, float, float]:
    """Sweep count m*, contraction factor rho and initial bound B0 of the
    capped step: m* is the smallest m with B0 * rho^m <= tol, and the capped
    solver certifies |y - y_star| <= B0 rho^{m*}."""
    return _certificate(rs, _per_root_k(rs, k_orbit), h, eps, tol)


# ---------------------------------------------------------------------------
# batched kernel


def _newton_batch(rs: RootSystem, kv: np.ndarray, xhat: np.ndarray, h: float,
                  tol: float, initial: np.ndarray | None = None, eps: float | None = None):
    """Damped semismooth Newton on g(y) = y - xhat - h f(y) = 0 (f_eps when
    `eps` is set) for a batch of predictors (m, d), elementwise per path;
    pass a one-row batch `_twin`ned.

    Without `initial` it starts from `_SWEEPS` explicit sweeps
    y <- xhat + h f(y), each a contraction by about h L / <alpha, y>^2
    (L = sum k |alpha|^2): from xhat for the capped step; for the exact
    step from xhat pushed along the interior direction to the smallest
    pairing sqrt(h L) / 2, kept per path only if every pairing of the
    swept iterate (finite) is at least that, else the pushed point.
    Newton runs on the paths whose start does not certify.

    The (generalized) Jacobian I + h sum k / <alpha, y>^2 alpha alpha^T,
    with weight 0 on a capped pairing (one product with the cached
    `rs.outer`), is SPD with eigenvalues >= 1, so the Newton step
    decreases the residual |g|.  The step, capped for the exact equation
    at a fraction of the way to the wall, is halved (at most 60 times)
    until the trial is inside (exact) with residual <= (1 - _ARMIJO t)
    times the current one.  Returns (y, iterations, residuals, converged),
    iterations counting Newton iterations after the sweeps (0 where the
    start certifies); a path stops at residual <= tol, after `_NEWTON_CAP`
    iterations, or stalled when no trial is taken (none passes, or one
    rounds to the iterate), which every later iteration would repeat.

    The capped step also takes one set of parameters per row, for batches
    that stack several grids: h (m, d) and eps (m, n_roots) as full arrays,
    which cost about half what (m, 1) columns do, tol (m,), and kv
    (m, n_roots) or one (n_roots,) row for all.  Each row's arithmetic is
    then that of its own scalars, bitwise.
    """
    a = rs.matrix
    m, d = xhat.shape
    if initial is not None:
        y = np.broadcast_to(np.asarray(initial, dtype=float), xhat.shape).copy()
        if np.any((y @ a.T).min(axis=1) <= 0.0):
            raise ChamberError("initial iterate must be strictly inside the chamber")
    elif eps is not None:
        # explicit sweeps (f_eps needs no chamber) each cut the error by rho, by
        # far more away from the walls, so most rows certify before any Newton
        y = xhat
        for _ in range(_SWEEPS):
            y = xhat + h * repulsion(a, kv, y @ a.T, eps)
    else:
        # start from the predictor, pushed along the interior direction
        # until the smallest pairing reaches the step's natural scale
        target = math.sqrt(h * float(np.sum(kv * rs.norms_sq))) / 2.0
        y = xhat.copy()
        p = y @ a.T
        need = p.min(axis=1) < target
        if np.any(need):
            eta = rs.interior_direction
            y[need] += np.max((target - p[need]) / (a @ eta), axis=1)[:, None] * eta
        # then sweep as the capped step does, keeping a row's sweeps only where
        # they end finite (a zero pairing on the way gives inf) with every
        # pairing >= target; a NaN fails both tests
        with np.errstate(all="ignore"):
            z = y
            for _ in range(_SWEEPS):
                z = xhat + h * repulsion(a, kv, z @ a.T)
            keep = (_rows(z @ a.T, np.minimum) >= target) & np.isfinite(_rows(z, np.add))
        y = np.where(keep[:, None], z, y)
    p = y @ a.T
    g = y - xhat - h * repulsion(a, kv, p, eps)
    res = np.sqrt(_rows(g * g, np.add))
    iters = np.zeros(m, dtype=int)
    live = res > tol
    per_row = isinstance(tol, np.ndarray)

    for _ in range(_NEWTON_CAP):
        count = int(np.count_nonzero(live))
        if not count:
            break
        full = count == m  # then work on views: no gather, no scatter
        # else gather the live rows repeated up to a power of two (at least 2, so a lone
        # row is twinned): few distinct sizes keep small buffers from fragmenting the heap
        idx = slice(None) if full else np.resize(
            np.flatnonzero(live), min(m, max(2, 1 << (count - 1).bit_length())))
        ya, pa, ga, r, xa = y[idx], p[idx], g[idx], res[idx], xhat[idx]
        ha, ka, ea, ta = ((h[idx], kv[idx] if kv.ndim == 2 else kv, eps[idx], tol[idx])
                          if per_row else (h, kv, eps, tol))
        w = _per_root(ha) * ka / (pa * pa)
        if eps is not None:
            w[pa <= ea] = 0.0
        hess = w @ rs.outer
        hess[:, ::d + 1] += 1.0
        step = _solve_spd(hess, -ga)
        if eps is None:  # stay strictly inside: cap at a fraction of the distance to the wall
            adotstep = step @ a.T
            ratio = np.where(adotstep < 0.0, pa, np.inf) / np.abs(adotstep)
            t = np.minimum(1.0, _WALL_FRACTION * _rows(ratio, np.minimum))
        else:  # f_eps has no wall: one t for every row
            t = 1.0
        # settled rows hold their accepted trial; a trial equal to its iterate ends the row
        settled = np.zeros(ya.shape[0], dtype=bool)
        for _ls in range(60):
            trial = ya + (t[:, None] if eps is None else t) * step
            ptrial = trial @ a.T
            if eps is None:
                inside = _rows(ptrial, np.minimum) > 0.0
                gtrial = trial - xa - ha * repulsion(a, ka, np.where(ptrial > 0.0, ptrial, np.inf))
            else:
                inside = True
                gtrial = trial - xa - ha * repulsion(a, ka, ptrial, ea)
            rtrial = np.sqrt(_rows(gtrial * gtrial, np.add))
            done = settled | _rows(trial == ya, np.logical_and)
            take = ~done & inside & (rtrial <= (1.0 - _ARMIJO * t) * r)
            if take.all():  # every row takes its first trial
                ya, pa, ga, r, settled = trial, ptrial, gtrial, rtrial, take
                break
            ya[take], pa[take], ga[take], r[take] = (
                trial[take], ptrial[take], gtrial[take], rtrial[take])
            settled |= take
            if (done | take).all():
                break
            t *= 0.5
        if full:
            y, p, g, res = ya, pa, ga, r
        else:
            y[idx], p[idx], g[idx], res[idx] = ya, pa, ga, r
        iters[idx] += 1  # once per path, also for a repeated row
        live[idx] = (r > ta) & settled  # an unsettled row has stalled
    return y, iters, res, res <= tol


def _failure_text(iters: np.ndarray) -> str:
    """How unconverged Newton paths stopped: below `_NEWTON_CAP`, stalled."""
    capped = int(np.count_nonzero(iters >= _NEWTON_CAP))
    return f"{iters.size - capped} stalled, {capped} hit the cap of {_NEWTON_CAP} iterations"


def _per_root(h):
    """A step weight to scale per-root arrays: a scalar itself, per-row
    weights (m, d) as their (m, 1) first column."""
    return h[:, :1] if isinstance(h, np.ndarray) else h


def _rows(u: np.ndarray, op) -> np.ndarray:
    """Reduce (m, c) over its short axis with the ufunc `op` column by column, several
    times faster than a row reduction.  A sum adds in np.sum's order: that is column
    by column under 8 columns only, so from 8 on it is np.add.reduce itself."""
    if op is np.add and u.shape[1] >= 8:
        return op.reduce(u, axis=1)
    out = u[:, 0].copy()
    for col in u.T[1:]:
        op(out, col, out=out)
    return out


def _twin(a: np.ndarray) -> np.ndarray:
    """`a` with a lone row stacked twice: a one-row matrix product goes
    through BLAS gemv, which sums in another order than the gemm of two or
    more rows."""
    return np.concatenate([a, a]) if a.shape[0] == 1 else a


def _solve_spd(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs per path for SPD H (m, d^2) with eigenvalues >= 1: closed forms
    for d <= 2, else Cholesky on (m,) columns, pivots floored at their exact bound 1."""
    d = rhs.shape[1]
    if d == 1:
        return rhs / hess
    if d == 2:  # (c r0 - b r1, a r1 - b r0) / (a c - b^2) for H = [[a, b], [b, c]]
        x = hess[:, 3::-3] * rhs
        x -= hess[:, 1:2] * rhs[:, ::-1]
        x /= (hess[:, 0] * hess[:, 3] - hess[:, 1] * hess[:, 1])[:, None]
        return x
    low, x = {(i, j): hess[:, i * d + j] for i in range(d) for j in range(i + 1)}, list(rhs.T)
    for j in range(d):  # H = L L^T in place of H's lower triangle, and L z = rhs
        low[j, j] = np.sqrt(np.maximum(low[j, j], 1.0))
        x[j] = x[j] / low[j, j]
        for i in range(j + 1, d):
            low[i, j] = low[i, j] / low[j, j]
            x[i] = x[i] - low[i, j] * x[j]
            for k in range(j + 1, i + 1):
                low[i, k] = low[i, k] - low[i, j] * low[k, j]
    for j in reversed(range(d)):  # L^T x = z
        x[j] = x[j] / low[j, j]
        for i in range(j):
            x[i] = x[i] - low[j, i] * x[j]
    return np.stack(x, axis=1)


def _certificate(rs: RootSystem, kv: np.ndarray, h: float, eps: float,
                 tol: float) -> tuple[int, float, float]:
    if not eps > 0.0:
        raise ParameterError(f"cap level must be positive, got {eps}")
    if not h > 0.0:
        raise ParameterError(f"step weight must be positive, got {h}")
    scale = float(np.sum(kv * rs.norms_sq))
    rho = scale * h / (eps * eps)
    if not 0.0 < rho < 1.0:  # eps^2 overflows to inf for a huge cap level
        raise ParameterError(f"capped step needs 0 < L h / eps^2 < 1 strictly, got "
                             f"contraction {rho:g} at cap level {eps:g}")
    b0 = eps * float(np.sum(kv * np.sqrt(rs.norms_sq))) / (scale * (1.0 - rho))
    if b0 <= tol:
        return 0, rho, b0
    return max(int(math.ceil(math.log(tol / b0) / math.log(rho))), 0), rho, b0
