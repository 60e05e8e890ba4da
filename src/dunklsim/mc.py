"""Monte Carlo estimators built on the path engine.

Conventions shared by every estimator here:

* paths are keyed by (master_seed, path_id) with path ids 0..M-1, so any
  estimate is a pure function of its arguments;
* every mean and standard error is merged from per-block (sum, M2)
  partials on the fixed pairwise tree of `reductions`, making results
  independent of execution chunking and thread budget;
* strong errors couple resolutions through one driver per path on the
  reference grid, coarsened by exact block sums: each grid is summed from
  the next finer one, which for power-of-two ratios is bitwise the same as
  summing it from `n_ref`; the reference solution is the same scheme run
  at `n_ref`;
* paths run in chunks of at most `_MAX_CHUNK`, a multiple of `BLOCK`, so
  memory is bounded by one chunk whatever M is;
* an estimator that reads states one time at a time hands `run_batch` a
  consumer, so a chunk holds one slab of its states, not the whole grid;
* `chamber_exit` draws a chunk once, on its finest grid, and advances every
  grid in lockstep on prefixes of that draw (`scheme._lockstep`).

RMS errors are reported with delta-method standard errors: if m is the
mean of the per-path squared sup error and s its standard error, the
error on sqrt(m) is s / (2 sqrt(m)).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .brownian import batch_increments, coarsen
from .errors import FitError, GridError, ParameterError
from .model import ModelSpec, _dot, bessel_model, moment_threshold
# pairwise_sum is not called here; bench/tracing.py wraps it as mc.pairwise_sum
from .reductions import BLOCK, block_partials, mean_se_from_sums, path_mean_se, pairwise_sum
from .scheme import SchemeConfig, _lockstep, _plan, run_batch

_CHUNK_BUDGET_BYTES = 192 * 2 ** 20
_MAX_CHUNK = 4096

# strong-rate guarantees ask for these moment thresholds
RATE_THRESHOLD = {"exact": 6.0, "truncated": 8.0}

# 0.975 quantiles of Student's t for df = 1..62, each the repr of
# scipy.special.stdtrit(df, 0.975).  A convergence run's n_list holds at
# most 64 power-of-two divisors of an n_ref < 2**64, so its fits (df =
# points - 2) never need more.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788,
)


def _chunk_size(n_fine: int, r: int) -> int:
    # Per path, a chunk holds about three arrays of one fine grid each: its
    # increments (n, r), a run's states (n+1, d), and one more of that size
    # (a second run, coarsened copies, state differences).  Everything else
    # an estimator keeps is per path, or one BLOCK of pairings at a time.
    per_path = 8 * n_fine * max(r, 1) * 3
    raw = _CHUNK_BUDGET_BYTES // max(per_path, 1)
    return int(min(_MAX_CHUNK, max(BLOCK, (raw // BLOCK) * BLOCK)))


def _map_paths(m: ModelSpec, n: int, M: int, master_seed: int, threads: int,
               work, unit: bool = False) -> None:
    """Run work(start, stop, increments) over consecutive chunks of paths
    0..M-1, each with its increments on the n-step grid, or with `unit` its
    unit-scale normals (dt = n / n = 1 exactly).  The split is a pure
    function of (n, M, model), so thread budget never changes any result."""
    r = m.brownian_dim
    chunk = _chunk_size(n, max(r, m.dim))
    horizon = float(n) if unit else m.T

    def run(start):
        stop = min(start + chunk, M)
        work(start, stop, batch_increments(r, n, horizon, master_seed, np.arange(start, stop)))

    starts = range(0, M, chunk)
    if threads <= 1 or len(starts) <= 1:
        for start in starts:
            run(start)
        return
    from concurrent.futures import ThreadPoolExecutor   # about 10 ms to import
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run, starts))


def _discard(first_step, states) -> None:
    """A `run_batch` consumer that keeps no states."""


def threshold_warning(m: ModelSpec, variant: str) -> str | None:
    """Why the `variant` scheme's strong-rate guarantee does not cover `m`,
    or None when it does."""
    p_star = moment_threshold(m)
    need = RATE_THRESHOLD[variant]
    if p_star > need:
        return None
    return (f"moment threshold {p_star:g} <= {need:g}: the {variant} scheme's "
            "strong-rate guarantee does not cover this model")


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
                 threads: int = 1) -> ErrorCurve:
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
    if warning := threshold_warning(m, variant):
        warnings.warn(warning, stacklevel=2)

    coarse = [n for n in ns if n != n_ref]
    n_max = max(coarse) if coarse else n_ref
    ref_stride = n_ref // n_max
    cfg_ref = SchemeConfig(variant, theta, n_ref, c)
    sup2 = np.zeros((M, len(ns)))

    def work(start, stop, inc):
        # the reference states at the finest coarse grid's times, in
        # time-major storage like the engine's
        ref = np.empty((n_max + 1, stop - start, m.dim)).transpose(1, 0, 2)

        def keep(first, states):
            t0 = -(-first // ref_stride)          # first kept time at or after `first`
            kept = states[:, t0 * ref_stride - first::ref_stride]
            ref[:, t0:t0 + kept.shape[1]] = kept

        run_batch(m, cfg_ref, inc, consume=keep)
        # finest to coarsest, each grid summed from the one before it
        prev, n_prev = inc, n_ref
        for j, n in reversed(list(enumerate(ns))):
            if n == n_ref:
                continue
            prev, n_prev = coarsen(prev, n_prev // n), n
            res = run_batch(m, SchemeConfig(variant, theta, n, c), prev)
            diff = res.states - ref[:, ::n_max // n]
            sup2[start:stop, j] = np.sum(diff * diff, axis=2).max(axis=1)

    _map_paths(m, n_ref, M, master_seed, threads, work)

    rms, ses = zip(*map(_rms, *path_mean_se(sup2)))
    return ErrorCurve(n_values=ns, rms_errors=rms, std_errors=ses,
                      M=M, n_ref=n_ref, variant=variant)


def _rms(mean, se) -> tuple[float, float]:
    """e = sqrt(mean) of a mean square (clipped at 0) and its delta-method
    standard error se / (2 e)."""
    e = math.sqrt(max(float(mean), 0.0))
    return e, (float(se) / (2.0 * e) if e > 0.0 else 0.0)


def scheme_gap(m: ModelSpec, theta: float, n: int, M: int, master_seed: int,
               c: float = 1.1, threads: int = 1) -> tuple[float, float]:
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
        a = run_batch(m, SchemeConfig("exact", theta, n), inc)
        b = run_batch(m, SchemeConfig("truncated", theta, n, c), inc)
        diff = a.states - b.states
        sup2[start:stop] = np.sum(diff * diff, axis=2).max(axis=1)

    _map_paths(m, n, M, master_seed, threads, work)
    return _rms(*path_mean_se(sup2))


def _loglog_line(x: np.ndarray, y: np.ndarray):
    """OLS of log2 y on log2 x: slope, intercept and the slope's standard
    error, as numpy floats."""
    if len(x) < 3:
        raise FitError(f"need at least 3 points for an order fit, got {len(x)}")
    lx = np.log2(np.asarray(x, dtype=float))
    ly = np.log2(np.asarray(y, dtype=float))
    if lx.max() == lx.min():
        raise FitError("cannot fit an order when all x values are identical")
    # scipy.stats.linregress, operation for operation (importing scipy.stats
    # costs about a second)
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=True).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))
    return slope, np.mean(ly) - slope * np.mean(lx), stderr


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> FitResult:
    """`_loglog_line` with the slope's 95% half-width (scipy's t.ppf)."""
    slope, intercept, stderr = _loglog_line(x, y)
    df = len(x) - 2
    if df <= len(_T975):
        t975 = _T975[df - 1]
    else:   # only a hand-built curve of more than 64 points gets here
        from scipy.special import stdtrit
        t975 = stdtrit(df, 0.975)
    return FitResult(slope=float(slope), intercept=float(intercept),
                     half_width=float(t975 * stderr))


def _slope_or_none(points) -> float | None:
    """Log-log slope through (x, y) points, or None with fewer than 3
    distinct x values."""
    if len({x for x, _ in points}) < 3:
        return None
    x, y = map(np.array, zip(*points))
    return float(_loglog_line(x, y)[0])


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
                     threads: int = 1) -> MomentReport:
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
    cfg = SchemeConfig("exact", theta, n)
    n_roots = m.rs.n_roots
    nblocks = -(-M // BLOCK)
    sums = np.zeros((nblocks, n + 1, n_roots))
    m2s = np.zeros((nblocks, n + 1, n_roots))
    sup_vals = np.full((M, n_roots), -np.inf) if pathwise_sup else None

    def work(start, stop, inc):
        def reduce(t0, states):
            # every statistic is elementwise in time, so slabs of times
            # reduce to the bytes of the whole grid; one BLOCK at a time,
            # so pairings and their powers never span the chunk
            t1 = t0 + states.shape[1]
            for b in range(0, stop - start, BLOCK):
                vals = _dot(states[b:b + BLOCK], m.rs.matrix.T) ** (-p)   # (paths, k, n_roots)
                if sup_vals is not None:
                    rows = sup_vals[start + b:start + b + len(vals)]
                    np.maximum(rows, vals.max(axis=1), out=rows)
                block_partials(vals, sums[:, t0:t1], m2s[:, t0:t1],
                               (start + b) // BLOCK)   # overwrites vals

        run_batch(m, cfg, inc, consume=reduce)

    _map_paths(m, n, M, master_seed, threads, work)

    est, se = mean_se_from_sums(sums, m2s, M)
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
                      master_seed: int, threads: int = 1) -> IncrementReport:
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
    cfg = SchemeConfig("exact", theta, n)
    per_path = np.zeros((M, len(steps)))

    def work(start, stop, inc):
        states = run_batch(m, cfg, inc).states
        # one BLOCK at a time, so no lag's differences span the chunk
        for b in range(0, stop - start, BLOCK):
            st = states[b:b + BLOCK]
            for j, s in enumerate(steps):
                if s == 0:
                    continue
                diff = st[:, s:] - st[:, :-s]
                # C order, so the time mean sums as on path-major states
                per_path[start + b:start + b + len(st), j] = np.mean(
                    np.ascontiguousarray(np.sum(diff * diff, axis=2)), axis=1)

    _map_paths(m, n, M, master_seed, threads, work)

    est, se = (tuple(map(float, v)) for v in path_mean_se(per_path))
    pos = [(lag, e) for lag, e in zip(lag_list, est) if lag > 0.0 and e > 0.0]
    return IncrementReport(lags=tuple(float(l) for l in lag_list),
                           estimates=est, std_errors=se,
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
                 master_seed: int, threads: int = 1) -> ExitReport:
    """Fraction of capped-scheme paths that ever leave the chamber.

    A path exits if any grid state has a nonpositive pairing.  The decay
    slope regresses log fraction on log n over entries with >= 5 exits
    (None with fewer than 3 distinct such n).  Only the truncated variant
    runs: the exact one preserves the chamber by construction.

    Each chunk draws its paths' normals once, at unit scale on the finest
    grid, and runs every distinct n (planned once per call) in lockstep on
    prefixes of them: a grid's increments are bitwise those it would draw
    itself, so each count is that of its own run.
    """
    ns = tuple(int(n) for n in n_list)
    if not ns:
        raise ParameterError("need at least one grid size")
    if warning := threshold_warning(m, "truncated"):
        warnings.warn(warning, stacklevel=2)
    plans = [_plan(m, SchemeConfig("truncated", theta, n, c), unit=True)
             for n in sorted(set(ns), reverse=True)]
    exited = np.zeros((len(plans), M), dtype=bool)

    def work(start, stop, normals):
        exited[:, start:stop] = _lockstep(m, plans, normals) >= 0

    _map_paths(m, plans[0].cfg.n, M, master_seed, threads, work, unit=True)
    count = {p.cfg.n: int(row.sum()) for p, row in zip(plans, exited)}
    counts = [count[n] for n in ns]

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
                   threads: int = 1) -> CirReport:
    """Compare E[X(T)^2] under the exact scheme with the squared-process ODE.

    For the d=1 model the squared process is a mean-reverting square-root
    diffusion whose mean solves a linear ODE; this is an end-to-end weak
    consistency check of the whole pipeline.
    """
    m = bessel_model(k=k0, sigma0=sigma0, lam=lam0, xi=xi, T=T)
    cfg = SchemeConfig("exact", theta, n)
    finals = np.zeros(M)

    def work(start, stop, inc):
        finals[start:stop] = run_batch(m, cfg, inc, consume=_discard).states[:, -1, 0]

    _map_paths(m, n, M, master_seed, threads, work)
    mean, se = path_mean_se(finals ** 2)
    ode = squared_mean_ode(k0, sigma0, lam0, xi, T)
    err = abs(float(mean) - ode)
    z = 0.0 if err == 0.0 else (math.inf if se == 0.0 else err / float(se))
    return CirReport(mc_mean=float(mean), std_error=float(se), ode_mean=ode,
                     z_score=z, n=n, M=M)
