"""Monte Carlo estimators built on the path engine.

Conventions shared by every estimator here:

* paths are keyed by (master_seed, path_id) with path ids 0..M-1, so any
  estimate is a pure function of its arguments;
* cross-path reductions use the fixed pairwise tree from `reductions`,
  making results independent of execution chunking and thread budget;
* strong errors couple resolutions through one driver per path on the
  reference grid, coarsened by exact block sums; the reference solution is
  the same scheme run at `n_ref`.

RMS errors are reported with delta-method standard errors: if m is the
mean of the per-path squared sup error and s its standard error, the
error on sqrt(m) is s / (2 sqrt(m)).
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .brownian import batch_increments, coarsen
from .errors import FitError, GridError, ParameterError
from .model import ModelSpec, bessel_model, moment_threshold
from .reductions import BLOCK, block_partials, mean_se_from_sums, path_mean_se, pairwise_sum
from .scheme import SchemeConfig, run_batch

_CHUNK_BUDGET_BYTES = 192 * 2 ** 20
_MAX_CHUNK = 16384

# strong-rate guarantees ask for these moment thresholds
RATE_THRESHOLD = {"exact": 6.0, "truncated": 8.0}


def _chunk_size(n_fine: int, r: int) -> int:
    per_path = 8 * n_fine * max(r, 1) * 3  # increments plus stored states headroom
    raw = _CHUNK_BUDGET_BYTES // max(per_path, 1)
    return int(min(_MAX_CHUNK, max(BLOCK, (raw // BLOCK) * BLOCK)))


def _map_paths(m: ModelSpec, n: int, M: int, master_seed: int, threads: int,
               work) -> None:
    """Run work(start, stop, increments) over consecutive chunks of paths
    0..M-1, each with its increments on the n-step grid.  The split is a
    pure function of (n, M, model), so thread budget never changes any
    result."""
    r = m.brownian_dim
    chunk = _chunk_size(n, max(r, m.dim))

    def run(start):
        stop = min(start + chunk, M)
        work(start, stop, batch_increments(r, n, m.T, master_seed, np.arange(start, stop)))

    starts = range(0, M, chunk)
    if threads <= 1 or len(starts) <= 1:
        for start in starts:
            run(start)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run, starts))


def _warn_threshold(m: ModelSpec, variant: str) -> None:
    p_star = moment_threshold(m)
    need = RATE_THRESHOLD[variant]
    if p_star <= need:
        warnings.warn(
            f"moment threshold {p_star:g} <= {need:g}: the {variant} scheme's "
            "strong-rate guarantee does not cover this model", stacklevel=3)


@dataclass(frozen=True)
class ErrorCurve:
    """Root-mean-square sup errors against the coupled reference run."""

    n_values: tuple[int, ...]
    rms_errors: tuple[float, ...]
    std_errors: tuple[float, ...]
    M: int
    n_ref: int
    variant: str = "exact"


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    half_width: float


def strong_error(m: ModelSpec, theta: float, n_list, n_ref: int, M: int,
                 master_seed: int, variant: str = "exact", c: float = 1.1,
                 solver_tol: float = 1e-10, threads: int = 1) -> ErrorCurve:
    """Coupled strong-error curve e(n) = sqrt(E sup_l |X_ref(t_l) - X_n(t_l)|^2).

    Each n must divide n_ref with a power-of-two ratio.  The reference is
    the same scheme at n_ref on the same driver; its own entry (if n_ref
    appears in n_list) is exactly zero.
    """
    ns = tuple(int(n) for n in n_list)
    if not ns:
        raise ParameterError("need at least one grid size")
    if len(set(ns)) != len(ns) or list(ns) != sorted(ns):
        raise ParameterError("grid sizes must be strictly increasing")
    if M < 100:
        raise ParameterError(f"strong error needs M >= 100 paths, got {M}")
    for n in ns:
        if n > n_ref or n_ref % n != 0 or (n_ref // n) & (n_ref // n - 1):
            raise GridError(f"n={n} must divide n_ref={n_ref} with a power-of-two ratio")
    _warn_threshold(m, variant)

    coarse = [n for n in ns if n != n_ref]
    n_max = max(coarse) if coarse else n_ref
    ref_stride = n_ref // n_max
    cfg_ref = SchemeConfig(variant, theta, n_ref, c, solver_tol)
    sup2 = np.zeros((M, len(ns)))

    def work(start, stop, inc):
        ref = run_batch(m, cfg_ref, inc, store_stride=ref_stride)
        for j, n in enumerate(ns):
            if n == n_ref:
                continue
            res = run_batch(m, SchemeConfig(variant, theta, n, c, solver_tol),
                            coarsen(inc, n_ref // n))
            diff = res.states - ref.states[:, ::n_max // n]
            sup2[start:stop, j] = np.sum(diff * diff, axis=2).max(axis=1)

    _map_paths(m, n_ref, M, master_seed, threads, work)

    rms, ses = [], []
    for j in range(len(ns)):
        mean, se = path_mean_se(sup2[:, j])
        e = math.sqrt(max(float(mean), 0.0))
        rms.append(e)
        ses.append(float(se) / (2.0 * e) if e > 0.0 else 0.0)
    return ErrorCurve(n_values=ns, rms_errors=tuple(rms), std_errors=tuple(ses),
                      M=M, n_ref=n_ref, variant=variant)


def scheme_gap(m: ModelSpec, theta: float, n: int, M: int, master_seed: int,
               c: float = 1.1, solver_tol: float = 1e-10,
               threads: int = 1) -> tuple[float, float]:
    """RMS sup gap between exact and capped variants on shared drivers.

    Runs both variants with the same theta, so theta must be admissible
    for the exact one (theta < 1/2).
    """
    if M < 2:
        raise ParameterError("need at least two paths")
    if not theta < 0.5:
        raise ParameterError("variant gap needs theta < 1/2 (exact-variant range)")
    sup2 = np.zeros(M)

    def work(start, stop, inc):
        a = run_batch(m, SchemeConfig("exact", theta, n, c, solver_tol), inc)
        b = run_batch(m, SchemeConfig("truncated", theta, n, c, solver_tol), inc)
        diff = a.states - b.states
        sup2[start:stop] = np.sum(diff * diff, axis=2).max(axis=1)

    _map_paths(m, n, M, master_seed, threads, work)
    mean, se = path_mean_se(sup2)
    g = math.sqrt(max(float(mean), 0.0))
    return g, (float(se) / (2.0 * g) if g > 0.0 else 0.0)


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> FitResult:
    if len(x) < 3:
        raise FitError(f"need at least 3 points for an order fit, got {len(x)}")
    lx = np.log2(np.asarray(x, dtype=float))
    ly = np.log2(np.asarray(y, dtype=float))
    if lx.max() == lx.min():
        raise FitError("cannot fit an order when all x values are identical")
    # scipy.stats.linregress and t.ppf, operation for operation (importing
    # scipy.stats costs about a second)
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=True).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    df = len(x) - 2
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / df)
    return FitResult(slope=float(slope), intercept=float(np.mean(ly) - slope * np.mean(lx)),
                     half_width=float(stdtrit(df, 0.975) * stderr))


def _slope_or_none(points) -> float | None:
    """Log-log slope through (x, y) points, or None with fewer than 3
    distinct x values."""
    if len({x for x, _ in points}) < 3:
        return None
    x, y = map(np.array, zip(*points))
    return _loglog_fit(x, y).slope


def fit_order(curve: ErrorCurve) -> FitResult:
    """OLS slope of log2 error against log2 n (zero entries excluded)."""
    pts = [(n, e) for n, e in zip(curve.n_values, curve.rms_errors) if e > 0.0]
    if len(pts) < 3:
        raise FitError(f"need at least 3 nonzero errors, got {len(pts)}")
    return _loglog_fit(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))


@dataclass(frozen=True)
class MomentReport:
    """Estimates of E[<alpha, X(t)>^-p] per root and grid time."""

    p: float
    times: np.ndarray
    estimates: np.ndarray      # (n_roots, n+1)
    std_errors: np.ndarray     # (n_roots, n+1)
    max_estimate: float
    M: int
    sup_estimates: np.ndarray | None = None   # E[sup_t <alpha,X(t)>^-p] per root
    sup_std_errors: np.ndarray | None = None


def negative_moments(m: ModelSpec, p: float, theta: float, n: int, M: int,
                     master_seed: int, pathwise_sup: bool = False,
                     solver_tol: float = 1e-10, threads: int = 1) -> MomentReport:
    """Grid estimates of negative pairing moments under the exact scheme.

    Warns when p >= moment_threshold(m), where boundedness is no longer
    guaranteed.  The capped variant is deliberately not supported: its
    states may touch walls, where the estimand is infinite.
    """
    if p < 0.0:
        raise ParameterError(f"moment order must be >= 0, got {p}")
    p_star = moment_threshold(m)
    if p >= p_star:
        warnings.warn(f"moment order {p:g} >= threshold {p_star:g}; "
                      "estimates may diverge with M", stacklevel=2)
    cfg = SchemeConfig("exact", theta, n, 1.1, solver_tol)
    n_roots = m.rs.n_roots
    nblocks = -(-M // BLOCK)
    s1 = np.zeros((nblocks, n + 1, n_roots))
    s2 = np.zeros((nblocks, n + 1, n_roots))
    sup_vals = np.zeros((M, n_roots)) if pathwise_sup else None

    def work(start, stop, inc):
        res = run_batch(m, cfg, inc)
        pair = res.states @ m.rs.matrix.T          # (paths, n+1, n_roots)
        vals = pair ** (-p)
        first = start // BLOCK
        block_partials(vals, s1, first)
        block_partials(vals * vals, s2, first)
        if sup_vals is not None:
            sup_vals[start:stop] = vals.max(axis=1)

    _map_paths(m, n, M, master_seed, threads, work)

    tot1 = pairwise_sum(s1)
    tot2 = pairwise_sum(s2)
    est, se = mean_se_from_sums(tot1, tot2, M)
    sup_est = sup_se = None
    if pathwise_sup:
        sup_est, sup_se = path_mean_se(sup_vals)
    times = np.arange(n + 1) * (m.T / n)
    return MomentReport(p=p, times=times, estimates=est.T, std_errors=se.T,
                        max_estimate=float(est.max()), M=M,
                        sup_estimates=sup_est, sup_std_errors=sup_se)


@dataclass(frozen=True)
class IncrementReport:
    lags: tuple[float, ...]
    estimates: tuple[float, ...]   # E |X(t+lag) - X(t)|^2, grid average
    std_errors: tuple[float, ...]
    slope: float | None
    M: int
    n: int


def increment_scaling(m: ModelSpec, theta: float, n: int, M: int, lag_list,
                      master_seed: int, solver_tol: float = 1e-10,
                      threads: int = 1) -> IncrementReport:
    """Mean squared increments per lag under the exact scheme.

    Lags must be grid multiples (within 1e-9 relative); lag 0 reports 0.
    The slope is a log-log fit over positive lags (None with fewer than 3
    distinct ones).
    """
    dt = m.T / n
    steps = []
    for lag in lag_list:
        if lag < 0.0 or lag > m.T:
            raise GridError(f"lag {lag} outside [0, T]")
        s = int(round(lag / dt))
        if abs(s * dt - lag) > 1e-9 * max(dt, abs(lag)):
            raise GridError(f"lag {lag} is not a multiple of dt={dt}")
        steps.append(s)
    cfg = SchemeConfig("exact", theta, n, 1.1, solver_tol)
    per_path = np.zeros((M, len(steps)))

    def work(start, stop, inc):
        res = run_batch(m, cfg, inc)
        st = res.states
        for j, s in enumerate(steps):
            if s == 0:
                continue
            diff = st[:, s:] - st[:, :-s]
            per_path[start:stop, j] = np.mean(np.sum(diff * diff, axis=2), axis=1)

    _map_paths(m, n, M, master_seed, threads, work)

    est, se = [], []
    for j in range(len(steps)):
        mean, s_ = path_mean_se(per_path[:, j])
        est.append(float(mean))
        se.append(float(s_))
    pos = [(lag, e) for lag, e in zip(lag_list, est) if lag > 0.0 and e > 0.0]
    return IncrementReport(lags=tuple(float(l) for l in lag_list),
                           estimates=tuple(est), std_errors=tuple(se),
                           slope=_slope_or_none(pos), M=M, n=n)


def wilson_interval(count: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial fraction."""
    if total < 1:
        raise ParameterError("need at least one trial")
    z = 1.96
    ph = count / total
    denom = 1.0 + z * z / total
    center = (ph + z * z / (2 * total)) / denom
    half = z * math.sqrt(ph * (1.0 - ph) / total + z * z / (4.0 * total * total)) / denom
    # rounding can push the bounds a hair past the point estimate
    return max(0.0, min(center - half, ph)), min(1.0, max(center + half, ph))


@dataclass(frozen=True)
class ExitReport:
    n_values: tuple[int, ...]
    counts: tuple[int, ...]
    fractions: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    M: int
    decay_slope: float | None


def chamber_exit(m: ModelSpec, theta: float, c: float, n_list, M: int,
                 master_seed: int, variant: str = "truncated",
                 solver_tol: float = 1e-10, threads: int = 1) -> ExitReport:
    """Fraction of capped-scheme paths that ever leave the chamber.

    A path exits if any grid state has a nonpositive pairing.  The decay
    slope regresses log fraction on log n over entries with >= 5 exits
    (None with fewer than 3 distinct such n).  The exact variant preserves
    the chamber by construction, so querying it reports zero fractions
    without simulating.
    """
    ns = tuple(int(n) for n in n_list)
    if not ns:
        raise ParameterError("need at least one grid size")
    if variant == "exact":
        lo, hi = wilson_interval(0, M)
        return ExitReport(n_values=ns, counts=(0,) * len(ns),
                          fractions=(0.0,) * len(ns), ci_low=(lo,) * len(ns),
                          ci_high=(hi,) * len(ns), M=M, decay_slope=None)
    _warn_threshold(m, "truncated")
    counts = []
    for n in ns:
        exited = np.zeros(M, dtype=bool)
        cfg = SchemeConfig("truncated", theta, n, c, solver_tol)

        def work(start, stop, inc):
            exited[start:stop] = run_batch(m, cfg, inc).exited

        _map_paths(m, n, M, master_seed, threads, work)
        counts.append(int(exited.sum()))

    fractions = tuple(cnt / M for cnt in counts)
    lows, highs = [], []
    for cnt in counts:
        lo, hi = wilson_interval(cnt, M)
        lows.append(lo)
        highs.append(hi)
    usable = [(n, f) for n, f, cnt in zip(ns, fractions, counts) if cnt >= 5]
    return ExitReport(n_values=ns, counts=tuple(counts), fractions=fractions,
                      ci_low=tuple(lows), ci_high=tuple(highs), M=M,
                      decay_slope=_slope_or_none(usable))


@dataclass(frozen=True)
class CirReport:
    mc_mean: float
    std_error: float
    ode_mean: float
    z_score: float
    n: int
    M: int


def squared_mean_ode(k0: float, sigma0: float, lam0: float, xi: float, T: float) -> float:
    """Closed-form E[X(T)^2] for the d=1 constant-coefficient model:
    m' = (2 k0 + sigma0^2) + 2 lam0 m, m(0) = xi^2."""
    a = 2.0 * k0 + sigma0 * sigma0
    if lam0 == 0.0:
        return xi * xi + a * T
    g = a / (2.0 * lam0)
    return (xi * xi + g) * math.exp(2.0 * lam0 * T) - g


def cir_mean_check(k0: float, sigma0: float, lam0: float, xi: float, T: float,
                   theta: float, n: int, M: int, master_seed: int,
                   solver_tol: float = 1e-10, threads: int = 1) -> CirReport:
    """Compare E[X(T)^2] under the exact scheme with the squared-process ODE.

    For the d=1 model the squared process is a mean-reverting square-root
    diffusion whose mean solves a linear ODE; this is an end-to-end weak
    consistency check of the whole pipeline.
    """
    m = bessel_model(k=k0, sigma0=sigma0, lam=lam0, xi=xi, T=T)
    cfg = SchemeConfig("exact", theta, n, 1.1, solver_tol)
    finals = np.zeros(M)

    def work(start, stop, inc):
        finals[start:stop] = run_batch(m, cfg, inc, store_stride=n).final[:, 0]

    _map_paths(m, n, M, master_seed, threads, work)
    mean, se = path_mean_se(finals ** 2)
    ode = squared_mean_ode(k0, sigma0, lam0, xi, T)
    err = abs(float(mean) - ode)
    z = 0.0 if err == 0.0 else (math.inf if se == 0.0 else err / float(se))
    return CirReport(mc_mean=float(mean), std_error=float(se), ode_mean=ode,
                     z_score=z, n=n, M=M)
