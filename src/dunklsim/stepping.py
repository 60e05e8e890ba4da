"""Implicit step solvers for the chamber-repulsion drift.

One scheme step must solve, for a given predictor `xhat` and weight h > 0,

    y = xhat + h * sum_alpha k_alpha / <alpha, y> alpha,     y in W.

The sum is `model.repulsion` (f, or its capped form f_eps); every
residual and iterate below evaluates it there.  The step is the gradient
equation of the strictly convex barrier

    phi(y) = |y - xhat|^2 / 2 - h * sum_alpha k_alpha log <alpha, y>,

so the chamber solution exists and is unique for every xhat in R^d.  The
exact solver runs damped Newton on grad phi = 0, for at most 200
iterations (`_NEWTON_CAP`), with a wall-capped line search that
backtracks on the residual |grad phi| it certifies.  The capped solver
replaces 1/<alpha,y> by its eps-cap, which makes the map
y -> xhat + h f_eps(y) a global contraction whenever h < eps^2 / L
(L = sum k_alpha |alpha|^2).  The geometric error certificate

    |y_star - y_m| <= B0 rho^m,   B0 = eps * sum(k |alpha|) / (L (1 - rho)),
    rho = L h / eps^2,

fixes a priori the count m* with B0 rho^{m*} <= tol.  m* is only the
cap: each path stops at the first sweep m whose a posteriori bound
rho / (1 - rho) |y_m - y_{m-1}| is at most B0 rho^{m*}, which certifies
the same error bound, usually after far fewer sweeps.  When the positive
roots are mutually orthogonal, either step splits into one scalar
quadratic per root, which `_orthogonal_batch` solves in closed form.

The public solvers take one predictor and serve as the reference for the
batched cores below, which advance a whole batch of predictors in
lockstep for `scheme.run_batch`; every per-path update is elementwise,
so a path's step does not depend on the other paths of a multi-row
batch.  Newton lists a lone active row twice, and the reference its one
predictor, so its matrix products always go through gemm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChamberError, DimensionError, ParameterError, SolverError
from .model import _dot, repulsion
from .roots import RootSystem

# Newton's line search: a trial at step t must cut the residual by the
# factor 1 - _ARMIJO t and cover at most _WALL_FRACTION of the way to a wall.
_ARMIJO = 1e-4
_WALL_FRACTION = 0.95
_FIXED_POINT_CAP = 200_000
_NEWTON_CAP = 200


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
    `_quadratic_root` bitwise.
    """
    a = rs.matrix
    kn = kv * rs.norms_sq
    shat = _dot(xhat, a.T)
    s = _quadratic_root(shat, h, kn)
    if eps is not None:
        s = np.where(s >= eps, s, shat + h * kn / eps)
    lift = a / rs.norms_sq[:, None]
    y = _dot(s, lift)
    if rs.n_roots < rs.dim:
        y += xhat - _dot(shat, lift)
    return y


def _per_root_k(rs: RootSystem, k_orbit) -> np.ndarray:
    k_orbit = np.asarray(k_orbit, dtype=float)
    if k_orbit.shape != (rs.n_orbits,):
        raise DimensionError(
            f"need one strength per orbit ({rs.n_orbits}), got shape {k_orbit.shape}")
    if np.any(k_orbit <= 0.0):
        raise ParameterError("repulsion strengths must be positive")
    return k_orbit[rs.orbit_of]


def solve_exact_step(rs: RootSystem, k_orbit, xhat, h: float, tol: float = 1e-10,
                     initial=None) -> SolveReport:
    """Solve the implicit step exactly (damped Newton on grad phi = 0).

    `k_orbit` holds one positive strength per orbit (already evaluated at
    the step's time).  The residual of the report is
    |y - xhat - h f(y)| <= tol, with f evaluated by `model.repulsion`; y is
    the engine's step for this predictor bitwise.  Raises SolverError
    (carrying the best iterate) if the tolerance is not certified within
    200 Newton iterations (`_NEWTON_CAP`).
    """
    if not h > 0.0:
        raise ParameterError(f"step weight must be positive, got {h}")
    kv = _per_root_k(rs, k_orbit)
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (rs.dim,):
        raise DimensionError(f"predictor shape {xhat.shape} != ({rs.dim},)")
    y, iters, res, ok = _newton_batch(rs, kv, _twin(xhat[None, :]), h, tol, initial)
    if not ok[0]:
        raise SolverError(
            f"Newton did not certify residual {tol:g} in {_NEWTON_CAP} iterations",
            best=y[0], residual=float(res[0]), iterations=int(iters[0]))
    return SolveReport(y=y[0], iterations=int(iters[0]), residual=float(res[0]))


def solve_truncated_step(rs: RootSystem, k_orbit, xhat, h: float, eps: float,
                         tol: float = 1e-10) -> SolveReport:
    """Solve the capped step by certified fixed-point iteration.

    Requires h < eps^2 / L strictly (L = sum k |alpha|^2), which makes the
    iteration a contraction with factor rho = L h / eps^2.  The a priori
    count m* (smallest m with B0 rho^m <= tol, `fixed_point_certificate`)
    is the cap; the iteration stops at the first sweep m with
    rho / (1 - rho) |y_m - y_{m-1}| <= B0 rho^{m*}, so |y - y_star| <=
    B0 rho^{m*} <= tol either way.  The report's `iterations` is that m.
    """
    kv = _per_root_k(rs, k_orbit)
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (rs.dim,):
        raise DimensionError(f"predictor shape {xhat.shape} != ({rs.dim},)")
    y, iters = _fixed_point_batch(rs, kv, xhat[None, :], h, eps,
                                  _certificate(rs, kv, h, eps, tol))
    return SolveReport(y=y[0], iterations=int(iters[0]),
                       residual=step_residual(rs, k_orbit, xhat, h, y[0], eps))


def step_residual(rs: RootSystem, k_orbit, xhat, h: float, y, eps: float | None = None) -> float:
    """|y - xhat - h f(y)| with the exact drift (eps None) or capped drift."""
    kv = _per_root_k(rs, k_orbit)
    xhat = np.asarray(xhat, dtype=float)
    y = np.asarray(y, dtype=float)
    p = rs.pairings(y)
    if eps is None:
        if np.min(p) <= 0.0:
            raise ChamberError("exact-step residual needs y strictly inside the chamber")
    elif not eps > 0.0:
        raise ParameterError(f"cap level must be positive, got {eps}")
    return float(np.linalg.norm(y - xhat - h * repulsion(rs.matrix, kv, p, eps), axis=-1))


def fixed_point_certificate(rs: RootSystem, k_orbit, h: float, eps: float,
                            tol: float) -> tuple[int, float, float]:
    """Iteration cap m*, contraction factor rho and initial bound B0 of the
    capped solver: m* is the smallest m with B0 * rho^m <= tol."""
    return _certificate(rs, _per_root_k(rs, k_orbit), h, eps, tol)


# ---------------------------------------------------------------------------
# batched cores


def _newton_batch(rs: RootSystem, kv: np.ndarray, xhat: np.ndarray, h: float,
                  tol: float, initial: np.ndarray | None = None):
    """Damped Newton on grad phi(y) = y - xhat - h f(y) = 0 for a batch of
    predictors (m, d), elementwise per path; pass a one-row batch `_twin`ned.

    The Jacobian I + h sum k / <alpha, y>^2 alpha alpha^T is SPD with
    eigenvalues >= 1, so the Newton step decreases the residual |grad phi|.
    The wall-capped step is halved (at most 60 times) until the trial is
    inside with residual <= (1 - _ARMIJO t) times the current one, or rounds
    to the iterate, which no smaller t can move.  Each path carries its
    accepted trial's pairings, gradient and residual, so residuals are only
    evaluated in the line search.  Returns (y, iterations, residuals,
    converged); a path stops at residual <= tol or after `_NEWTON_CAP`.
    """
    a = rs.matrix
    m, d = xhat.shape
    if initial is not None:
        y = np.broadcast_to(np.asarray(initial, dtype=float), xhat.shape).copy()
        if np.any((y @ a.T).min(axis=1) <= 0.0):
            raise ChamberError("initial iterate must be strictly inside the chamber")
    else:
        # start from the predictor, pushed along the interior direction
        # until the smallest pairing reaches the step's natural scale
        target = math.sqrt(h * float(np.sum(kv * rs.norms_sq))) / 2.0
        y = xhat.copy()
        p = y @ a.T
        need = p.min(axis=1) < target
        if np.any(need):
            eta = rs.interior_direction
            s = np.max((target - p[need]) / (a @ eta)[None, :], axis=1)
            y[need] = y[need] + s[:, None] * eta[None, :]
    p = y @ a.T
    g = y - xhat - h * repulsion(a, kv, p)
    res = np.sqrt(np.sum(g * g, axis=1))
    outer = np.einsum("ri,rj->rij", a, a)  # (n_roots, d, d)
    iters = np.zeros(m, dtype=int)

    for _ in range(_NEWTON_CAP):
        idx = _twin(np.nonzero(res > tol)[0])
        if idx.size == 0:
            break
        ya, pa, ga, r = y[idx], p[idx], g[idx], res[idx]
        hess = np.eye(d)[None] + h * np.einsum("mr,rij->mij", kv / (pa * pa), outer)
        step = _solve_spd(hess, -ga)

        # stay strictly inside: cap at a fraction of the distance to the wall
        adotstep = step @ a.T
        with np.errstate(divide="ignore"):
            ratio = np.where(adotstep < 0.0, -pa / adotstep, np.inf)
        t = np.minimum(1.0, _WALL_FRACTION * ratio.min(axis=1))
        # a settled row's slots hold its accepted trial; the others still
        # hold the iterate the next trial starts from
        settled = np.zeros(idx.size, dtype=bool)
        for _ls in range(60):
            trial = ya + t[:, None] * step
            ptrial = trial @ a.T
            gtrial = trial - xhat[idx] - h * repulsion(
                a, kv, np.where(ptrial > 0.0, ptrial, np.inf))
            rtrial = np.sqrt(np.sum(gtrial * gtrial, axis=1))
            take = ~settled & (
                ((ptrial.min(axis=1) > 0.0) & (rtrial <= (1.0 - _ARMIJO * t) * r))
                | np.all(trial == ya, axis=1))
            ya[take], pa[take], ga[take], r[take] = (
                trial[take], ptrial[take], gtrial[take], rtrial[take])
            settled |= take
            if settled.all():
                break
            t = np.where(settled, t, t * 0.5)
        y[idx], p[idx], g[idx], res[idx] = ya, pa, ga, r
        iters[idx] += 1  # once per path, also for a twinned row
    return y, iters, res, res <= tol


def _twin(a: np.ndarray) -> np.ndarray:
    """`a` with a lone row stacked twice: a one-row matrix product goes
    through BLAS gemv, which sums in another order than the gemm of two or
    more rows."""
    return np.concatenate([a, a]) if a.shape[0] == 1 else a


def _solve_spd(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve small SPD systems per path; closed forms for d <= 2."""
    d = hess.shape[-1]
    if d == 1:
        return rhs / hess[:, 0, 0:1]
    if d == 2:
        a, b = hess[:, 0, 0], hess[:, 0, 1]
        c = hess[:, 1, 1]
        det = a * c - b * b
        out = np.empty_like(rhs)
        out[:, 0] = (c * rhs[:, 0] - b * rhs[:, 1]) / det
        out[:, 1] = (a * rhs[:, 1] - b * rhs[:, 0]) / det
        return out
    return np.linalg.solve(hess, rhs[..., None])[..., 0]


def _fixed_point_batch(rs: RootSystem, kv: np.ndarray, xhat: np.ndarray, h: float,
                       eps: float, certificate: tuple[int, float, float]):
    """Capped fixed-point iteration for a batch of predictors (m, d) under
    the step's `_certificate` (m*, rho, B0).

    Each path stops at the first sweep m whose Banach a posteriori bound
    rho / (1 - rho) |y_m - y_{m-1}| is at most B0 rho^{m*}, the bound the
    a priori count m* certifies; m* is the cap.  Every returned y is thus
    within B0 rho^{m*} of its fixed point.  Each sweep evaluates the whole
    batch and a mask freezes the finished paths, so a path's result
    depends only on its own iterates (gathering the active rows would
    send a one-row product through another summation order).
    Returns (y, iterations per path).
    """
    m_star, rho, b0 = certificate
    a = rs.matrix
    # the stopping test squared: |y_m - y_{m-1}|^2 <= ((1 - rho) / rho * B0 rho^{m*})^2
    limit = ((1.0 - rho) / rho * b0 * rho ** m_star) ** 2
    y = xhat.copy()
    iters = np.full(xhat.shape[0], m_star)
    active = np.ones(xhat.shape[0], dtype=bool)
    for sweep in range(1, m_star + 1):
        y_new = xhat + h * repulsion(a, kv, y @ a.T, eps)
        sq = y_new - y
        sq *= sq
        np.copyto(y, y_new, where=active[:, None])
        # summed column by column: a row reduction over the short axis
        # costs several times more
        change = sq[:, 0].copy()
        for col in sq.T[1:]:
            change += col
        done = active & (change <= limit)
        if done.any():
            iters[done] = sweep
            active &= ~done
            if not active.any():
                break
    return y, iters


def _certificate(rs: RootSystem, kv: np.ndarray, h: float, eps: float,
                 tol: float) -> tuple[int, float, float]:
    if not eps > 0.0:
        raise ParameterError(f"cap level must be positive, got {eps}")
    if not h > 0.0:
        raise ParameterError(f"step weight must be positive, got {h}")
    scale = float(np.sum(kv * rs.norms_sq))
    rho = scale * h / (eps * eps)
    if not rho < 1.0:
        raise ParameterError(
            f"capped step needs h < eps^2/L strictly (contraction {rho:g} >= 1)")
    b0 = eps * float(np.sum(kv * np.sqrt(rs.norms_sq))) / (scale * (1.0 - rho))
    if b0 <= tol:
        return 0, rho, b0
    m = int(math.ceil(math.log(tol / b0) / math.log(rho)))
    if m > _FIXED_POINT_CAP:
        raise SolverError(
            f"certificate needs {m} iterations (> {_FIXED_POINT_CAP}); "
            "loosen tol or the contraction factor")
    return max(m, 0), rho, b0
