"""Monte Carlo drivers: error curves, fits, moments, exits, mean checks."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsim import (
    FitError,
    GridError,
    ParameterError,
    PathSolverError,
    SchemeConfig,
    SqrtAffineFn,
    bessel_model,
    chamber_exit,
    cir_mean_check,
    dyson_model,
    fit_order,
    increment_scaling,
    negative_moments,
    run_batch,
    scheme_gap,
    squared_mean_ode,
    strong_error,
    type_b_model,
)
from dunklsim import mc, scheme, stepping
from dunklsim.mc import ErrorCurve, ExitReport, wilson_interval
from dunklsim.brownian import batch_increments, coarsen
from dunklsim.reductions import BLOCK


# ---------------------------------------------------------------------------
# order fits

def test_fit_recovers_exact_powers():
    ns = (4, 8, 16, 32)
    half = fit_order(ErrorCurve(n_values=ns, rms_errors=tuple(2.0 * n ** -0.5 for n in ns),
                                std_errors=(0.0,) * 4, M=100, n_ref=64, variant="exact"))
    assert half.slope == pytest.approx(-0.5, abs=1e-12)
    assert half.intercept == pytest.approx(1.0, abs=1e-12)   # log2 of the prefactor
    assert half.half_width == pytest.approx(0.0, abs=1e-9)
    one = fit_order(ErrorCurve(n_values=ns, rms_errors=tuple(5.0 / n for n in ns),
                               std_errors=(0.0,) * 4, M=100, n_ref=64, variant="exact"))
    assert one.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_needs_three_points():
    with pytest.raises(FitError):
        fit_order(ErrorCurve(n_values=(4, 8), rms_errors=(1.0, 0.5),
                             std_errors=(0.0, 0.0), M=100, n_ref=64, variant="exact"))


def test_fit_rejects_identical_x():
    with pytest.raises(FitError):
        mc._loglog_fit(np.full(3, 8.0), np.array([1.0, 2.0, 3.0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2 ** 20), st.floats(1e-12, 1e6)),
                min_size=3, max_size=12, unique_by=lambda pt: pt[0]))
def test_loglog_fit_matches_scipy_bitwise(points):
    from scipy import stats  # the package itself does not import scipy.stats
    x = np.array([pt[0] for pt in points], dtype=float)
    y = np.array([pt[1] for pt in points])
    fit = mc._loglog_fit(x, y)
    ref = stats.linregress(np.log2(x), np.log2(y))
    half = stats.t.ppf(0.975, len(x) - 2) * ref.stderr
    assert (np.array([fit.slope, fit.intercept, fit.half_width]).tobytes()
            == np.array([ref.slope, ref.intercept, half], dtype=float).tobytes())


def test_t975_table_matches_scipy_bitwise():
    from scipy.special import stdtrit
    assert len(mc._T975) == 62
    for df, q in enumerate(mc._T975, start=1):
        assert np.float64(q).tobytes() == stdtrit(df, 0.975).tobytes(), df


@pytest.mark.parametrize("npts", [64, 65, 100])
def test_fit_beyond_the_table_matches_scipy_bitwise(npts):
    # 64 points read the table's last entry; more fall back to scipy
    from scipy import stats
    ns = tuple(range(2, npts + 2))
    errs = tuple(n ** -0.5 * (1.0 + 0.1 * math.sin(n)) for n in ns)
    fit = fit_order(ErrorCurve(n_values=ns, rms_errors=errs, std_errors=(0.0,) * npts,
                               M=100, n_ref=2 ** 20, variant="exact"))
    ref = stats.linregress(np.log2(ns), np.log2(errs))
    half = stats.t.ppf(0.975, npts - 2) * ref.stderr
    assert (np.array([fit.slope, fit.intercept, fit.half_width]).tobytes()
            == np.array([ref.slope, ref.intercept, half], dtype=float).tobytes())


# ---------------------------------------------------------------------------
# strong error curves

def test_strong_error_vanishes_at_reference():
    m = dyson_model(2, k=4.0)
    cur = strong_error(m, 0.0, [16, 64], 64, 128, 1)
    assert cur.rms_errors[-1] == 0.0
    assert cur.std_errors[-1] == 0.0
    assert cur.rms_errors[0] > 0


def test_strong_error_zero_noise_has_zero_se():
    m = bessel_model(k=4.0, sigma0=0.0)
    cur = strong_error(m, 0.0, [8], 32, 128, 1)
    assert cur.rms_errors[0] > 0
    assert cur.std_errors[0] == 0.0


def test_strong_error_validates_inputs():
    m = dyson_model(2, k=4.0)
    with pytest.raises(ParameterError):
        strong_error(m, 0.0, [8], 64, 50, 1)          # too few paths
    with pytest.raises(GridError):
        strong_error(m, 0.0, [48], 64, 128, 1)        # 48 does not divide 64


def test_strong_error_warns_below_moment_threshold():
    m = bessel_model(k=1.0)                            # threshold 1, guarantee needs > 6
    with pytest.warns(UserWarning):
        strong_error(m, 0.0, [8], 32, 128, 1)


@pytest.mark.parametrize("n_list", [[4, 16, 32], [4, 16, 32, 128]])
def test_strong_error_chained_coarsening_matches_direct_bitwise(n_list):
    # grids with gaps: each is coarsened from the next finer one, which must
    # equal coarsening it straight from n_ref
    m = dyson_model(2, k=4.0)
    n_ref, M, seed = 128, 128, 7
    cur = strong_error(m, 0.25, n_list, n_ref, M, seed)
    inc = batch_increments(m.brownian_dim, n_ref, m.T, seed, np.arange(M))
    ref = run_batch(m, SchemeConfig("exact", 0.25, n_ref), inc)
    sup2 = np.zeros((M, len(n_list)))              # the n_ref row stays zero
    for j, n in enumerate(n for n in n_list if n < n_ref):
        res = run_batch(m, SchemeConfig("exact", 0.25, n), coarsen(inc, n_ref // n))
        diff = res.states - ref.states[:, ::n_ref // n]
        sup2[:, j] = np.sum(diff * diff, axis=2).max(axis=1)
    rms, ses = zip(*map(mc._rms, *mc.path_mean_se(sup2)))
    assert cur.rms_errors == rms and cur.std_errors == ses


def test_strong_error_thread_invariant_bitwise():
    m = dyson_model(2, k=4.0)
    runs = [strong_error(m, 0.25, [8, 16], 64, 300, 42, threads=t)
            for t in (1, 4, 16)]
    for other in runs[1:]:
        assert runs[0].rms_errors == other.rms_errors
        assert runs[0].std_errors == other.std_errors


NEAR_WALL_B2 = dict(k_long=5.0, k_short=5.0, xi=(0.6, 0.3))

NEAR_WALL_B2_KT = dict(k_long=SqrtAffineFn(5.0, 2.0), k_short=SqrtAffineFn(6.0, -1.0),
                       xi=(0.6, 0.3))

# every estimator as (M, master_seed, threads) -> result, on small grids of
# 12 steps, so that time blocks of 8 steps do not divide them, and with
# strengths that vary in time wherever the estimator takes a model
ESTIMATORS = {
    "strong_error": lambda M, s, t: strong_error(
        dyson_model(2, k=SqrtAffineFn(4.0, 2.0)), 0.25, [3, 6], 12, M, s, threads=t),
    "scheme_gap": lambda M, s, t: scheme_gap(
        type_b_model(2, **NEAR_WALL_B2_KT), 0.0, 12, M, s, threads=t),
    "negative_moments": lambda M, s, t: negative_moments(
        dyson_model(2, k=SqrtAffineFn(4.0, 2.0)), 2.0, 0.25, 12, M, s, pathwise_sup=True,
        threads=t),
    "increment_scaling": lambda M, s, t: increment_scaling(
        dyson_model(2, k=SqrtAffineFn(4.0, 2.0)), 0.0, 12, M, [1 / 12, 2 / 12, 6 / 12], s,
        threads=t),
    "chamber_exit": lambda M, s, t: chamber_exit(
        type_b_model(2, **NEAR_WALL_B2_KT), 0.0, 1.1, [6, 12], M, s, threads=t),
    "cir_mean_check": lambda M, s, t: cir_mean_check(
        1.0, 1.0, 0.5, 1.0, 1.0, theta=0.0, n=12, M=M, master_seed=s, threads=t),
}


def _bits(result):
    """Exact bytes of every field of an estimator result."""
    fields = (dataclasses.astuple(result) if dataclasses.is_dataclass(result)
              else result)
    return [f.encode() if isinstance(f, str) else
            None if f is None else np.asarray(f, dtype=float).tobytes()
            for f in fields]


def _chunk_sizes(monkeypatch) -> list[int]:
    """Record the path count of every chunk the estimators draw."""
    sizes = []
    draw = mc.batch_increments

    def counted(r, n, T, seed, ids, *block):
        sizes.append(len(ids))
        return draw(r, n, T, seed, ids, *block)

    monkeypatch.setattr(mc, "batch_increments", counted)
    return sizes


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_thread_pool_matches_serial_bitwise(name, monkeypatch):
    # one-block chunks and M = 2 blocks + 1: three chunks, the last one a
    # single path, so threads > 1 really run on the pool
    monkeypatch.setattr(mc, "_MAX_CHUNK", BLOCK)
    sizes = _chunk_sizes(monkeypatch)
    run = ESTIMATORS[name]
    M = 2 * BLOCK + 1
    serial = run(M, 5, 1)
    assert sorted(set(sizes)) == [1, BLOCK] and sum(sizes) % M == 0
    assert _bits(run(M, 5, 3)) == _bits(serial)


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_chunk_size_does_not_change_results(name, monkeypatch):
    # M = 2 blocks + 1 in one chunk at the default cap, in three at one BLOCK;
    # and time blocks of 12 steps or more (the whole grid, one draw per
    # chunk), 8 or 4 steps (8 does not divide 12) and 1 step, where a
    # convergence run's blocks still hold n_ref / min(n_list) = 4 steps
    sizes = _chunk_sizes(monkeypatch)
    run = ESTIMATORS[name]
    M = 2 * BLOCK + 1
    whole = run(M, 5, 1)
    assert sizes == [M]
    sizes.clear()
    monkeypatch.setattr(mc, "_MAX_CHUNK", BLOCK)
    assert _bits(run(M, 5, 1)) == _bits(whole)
    assert sorted(set(sizes)) == [1, BLOCK]
    # values per path of a time block -> time blocks per chunk: d = r = 2
    # makes blocks of 1, 4, 8 and >= 12 steps, d = r = 1 of 1, 8 and >= 12
    blocks = {"strong_error": (3, 3, 2, 1), "cir_mean_check": (12, 2, 1, 1),
              "increment_scaling": (1, 1, 1, 1)}.get(name, (12, 3, 2, 1))
    for values, count in zip((1, 8, 16, 2 ** 20), blocks):
        monkeypatch.setattr(mc, "_BLOCK_VALUES", values)
        sizes.clear()
        assert _bits(run(M, 5, 1)) == _bits(whole)
        assert sizes == [BLOCK] * 2 * count + [1] * count


# the estimators that stream states to a consumer, and chamber_exit, which
# keeps none, as m -> result; their finest grid has 32 steps
SLABBED = {
    "negative_moments": lambda m: negative_moments(m, 2.0, 0.25, 32, 2 * BLOCK + 1, 5,
                                                   pathwise_sup=True),
    "strong_error": lambda m: strong_error(m, 0.25, [4, 8], 32, 2 * BLOCK + 1, 5),
    "chamber_exit": lambda m: chamber_exit(m, 0.0, 1.1, [16, 32], 2 * BLOCK + 1, 5),
    "cir_mean_check": lambda m: cir_mean_check(1.0, 1.0, 0.5, 1.0, 1.0, theta=0.0, n=32,
                                               M=2 * BLOCK + 1, master_seed=5),
}
SLAB_MODELS = {"d1": lambda: bessel_model(k=4.0), "A3": lambda: dyson_model(3, k=4.0)}


@pytest.mark.parametrize("name, model", [(name, model) for name in sorted(SLABBED)
                                         for model in sorted(SLAB_MODELS)
                                         if name != "cir_mean_check" or model == "d1"])
@pytest.mark.filterwarnings("ignore:moment threshold")
def test_state_slabs_do_not_change_results(name, model, monkeypatch):
    # slabs of 1, 3 and 7 times split every grid unevenly, and one-block
    # chunks with M = 2 blocks + 1 split the paths unevenly; slabs of 33
    # times hold the whole finest grid, as storing every state did
    monkeypatch.setattr(mc, "_MAX_CHUNK", BLOCK)
    results = []
    for slab in (33, 1, 3, 7):
        monkeypatch.setattr(scheme, "_SLAB_STEPS", slab)
        results.append(_bits(SLABBED[name](SLAB_MODELS[model]())))
    assert all(bits == results[0] for bits in results[1:])


def test_negative_moments_memory_does_not_grow_with_states():
    # from n = 2^10 to 2^12 the traced peak may grow by the increments and
    # a few arrays of the per-block partials' shape (the partials, the
    # grid's times and strengths), not by the states: they stream in slabs
    m = bessel_model(k=4.0)
    M, grown = 1024, 2 ** 12 - 2 ** 10
    peaks = [_traced_peak(lambda: negative_moments(m, 2.0, 0.25, n, M, 1, pathwise_sup=True))
             for n in (2 ** 10, 2 ** 12)]
    increments = 8 * M * grown * m.brownian_dim
    partials = 8 * -(-M // BLOCK) * grown * m.rs.n_roots
    assert peaks[1] - peaks[0] <= increments + 8 * partials


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimators_bitwise_on_path_major_increments(name, monkeypatch):
    # the engine's time-major increments and path-major copies of them
    # give the same bytes: no estimator sums in a layout-dependent order
    run = ESTIMATORS[name]
    time_major = _bits(run(300, 5, 1))
    draw = mc.batch_increments
    monkeypatch.setattr(mc, "batch_increments",
                        lambda *args: np.ascontiguousarray(draw(*args)))
    assert _bits(run(300, 5, 1)) == time_major


def test_increment_scaling_bitwise_on_contiguous_states():
    # the per-path time mean sums as it does on C-ordered states; over more
    # than 8 times numpy's pairwise sum makes that order visible
    m = dyson_model(3, k=2.0)
    n, M, lags = 128, 200, [0.0, 1 / 128, 5 / 128, 0.25]
    rep = increment_scaling(m, 0.0, n, M, lags, 9)
    inc = batch_increments(m.brownian_dim, n, m.T, 9, np.arange(M))
    states = np.ascontiguousarray(run_batch(m, SchemeConfig("exact", 0.0, n), inc).states)
    per_path = np.zeros((M, len(lags)))
    for j, lag in enumerate(lags):
        s = round(lag * n)
        if s:
            diff = states[:, s:] - states[:, :-s]
            per_path[:, j] = np.mean(np.sum(diff * diff, axis=2), axis=1)
    est, se = mc.path_mean_se(per_path)
    assert _bits(rep)[1:3] == [est.tobytes(), se.tobytes()]


def _traced_peak(run) -> int:
    run()                                                          # warm-up
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_negative_moments_memory_bounded_by_one_chunk(monkeypatch):
    # one time block of a chunk's increments and one slab of its states
    # (blocks of 128 steps here), its paths' carried generator states
    # (about 1 KB each), a few BLOCK-sized arrays of one slab's pairings
    # (M is four BLOCKs in one chunk, so pairings built over the chunk do
    # not fit) and the per-time partials of each BLOCK; the whole grid's
    # increments and states would need 8 * M * (2n + 1) bytes, 33.6 MB
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 128)
    m = bessel_model(k=4.0)
    M, n = 4096, 512
    peak = _traced_peak(lambda: negative_moments(m, 2.0, 0.25, n, M, 1, pathwise_sup=True))
    steps, slab = mc._block_steps(1), scheme._SLAB_STEPS
    chunk = 8 * M * (steps + min(slab, steps + 1)) + 1024 * M
    pairings = 8 * BLOCK * slab * m.rs.n_roots
    partials = 16 * (M // BLOCK) * (n + 1) * m.rs.n_roots
    assert steps == 128 and peak < chunk + 4 * pairings + partials


def test_increment_scaling_memory_bounded_by_one_chunk():
    # one chunk's increments and states, its one time block being the whole
    # grid, plus a few BLOCK-sized arrays of one lag's differences
    m = bessel_model(k=4.0)
    M, n = 2048, 128
    peak = _traced_peak(lambda: increment_scaling(
        m, 0.25, n, M, [j / 8 for j in range(1, 8)], 1))
    chunk = 8 * M * (2 * n + 1)
    block = 8 * BLOCK * (n + 1)
    assert peak < chunk + 4 * block


def _exit_allowance(m, M, n) -> int:
    """One chunk's normals (n fits one time block here), one slab of states
    and one step's working arrays: a few numbers per path and root."""
    assert n <= mc._block_steps(max(m.brownian_dim, m.dim))
    return (8 * M * (n * m.brownian_dim + scheme._SLAB_STEPS * m.dim)
            + 16 * 8 * M * m.rs.n_roots)


def test_chamber_exit_memory_bounded_by_increments():
    m = type_b_model(2, k_long=5.0, k_short=5.0, xi=(0.6, 0.3))
    M, n = 1024, 256
    peak = _traced_peak(lambda: chamber_exit(m, 0.0, 1.1, [n], M, 1))
    assert peak < _exit_allowance(m, M, n)


def test_chamber_exit_memory_does_not_grow_with_stacked_grids():
    # four grids of one chunk share its single draw and two-grid solver
    # calls: within the allowance of the finest grid alone
    m = type_b_model(2, k_long=5.0, k_short=5.0, xi=(0.6, 0.3))
    M, n = 1024, 256
    peak = _traced_peak(lambda: chamber_exit(m, 0.0, 1.1, [n // 8, n // 4, n // 2, n], M, 1))
    assert peak < _exit_allowance(m, M, n)


# the streaming estimators on d=1 as (n, M) -> result
STREAMING = {
    "strong_error": lambda n, M: strong_error(bessel_model(k=5.0), 0.25, [n // 16, n // 8],
                                              n, M, 1),
    "scheme_gap": lambda n, M: scheme_gap(bessel_model(k=5.0), 0.0, n, M, 1),
    "negative_moments": lambda n, M: negative_moments(bessel_model(k=5.0), 2.0, 0.25, n, M,
                                                      1, pathwise_sup=True),
    "chamber_exit": lambda n, M: chamber_exit(bessel_model(k=5.0), 0.0, 1.1, [n // 4, n],
                                              M, 1),
    "cir_mean_check": lambda n, M: cir_mean_check(5.0, 1.0, 0.0, 1.0, 1.0, 0.0, n, M, 1),
}


@pytest.mark.parametrize("name", sorted(STREAMING))
def test_streaming_memory_does_not_grow_with_n(name):
    # at n = 2^12 (two time blocks of 2048 steps) and 2^14 (eight) the
    # traced peaks differ by at most 16 values per added grid time: a plan's
    # strengths, sigma, tolerances and times, and a moment report's
    # per-time partials and estimates.  Holding every step's increments of
    # the 100 paths would add 100 such values.
    peaks = []
    for n in (2 ** 12, 2 ** 14):
        tracemalloc.start()
        try:
            STREAMING[name](n, 100)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 8 * 16 * (2 ** 14 - 2 ** 12)


def test_gap_tiny_deep_in_chamber_and_real_near_wall():
    deep = dyson_model(2, k=4.0, xi=(3.0, -3.0), T=0.25)
    g, se = scheme_gap(deep, 0.25, 32, 128, 7)
    assert g <= 1e-9
    near = type_b_model(2, k_long=5.0, k_short=5.0, xi=(0.6, 0.3))
    g2, se2 = scheme_gap(near, 0.0, 32, 256, 7)
    assert g2 > 1e-3
    assert se2 > 0


def test_scheme_gaps_obey_triangle_inequality():
    # comparing through a shared reference can only add error terms
    m = type_b_model(2, k_long=5.0, k_short=5.0, xi=(0.6, 0.3))
    n, n_ref, M = 32, 256, 256
    inc_ref = batch_increments(2, n_ref, m.T, 11, np.arange(M, dtype=np.uint64))
    inc = coarsen(inc_ref, n_ref // n)

    def finals(variant, nn, drive):
        cfg = SchemeConfig(variant=variant, theta=0.0, n=nn)
        return run_batch(m, cfg, drive).states[:, -1]

    def rms(a, b):
        return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))

    e_n, t_n = finals("exact", n, inc), finals("truncated", n, inc)
    e_r, t_r = finals("exact", n_ref, inc_ref), finals("truncated", n_ref, inc_ref)
    gap_n = rms(e_n, t_n)
    bound = rms(e_n, e_r) + rms(t_n, t_r) + rms(e_r, t_r)
    assert gap_n > 0
    assert gap_n <= bound + 1e-12


# ---------------------------------------------------------------------------
# negative moments along paths

def test_negative_moments_unit_at_zero_power():
    m = dyson_model(2, k=4.0)
    rep = negative_moments(m, 0.0, 0.0, 8, 200, 1)
    assert np.array_equal(np.asarray(rep.estimates), np.ones_like(rep.estimates))


def test_negative_moments_shape_and_positivity():
    m = type_b_model(2, k_long=5.0, k_short=5.0)
    rep = negative_moments(m, 2.0, 0.25, 16, 300, 5)
    est = np.asarray(rep.estimates)
    assert est.shape == (m.rs.n_roots, 17)
    assert np.all(est > 0)
    assert np.all(np.isfinite(np.asarray(rep.std_errors)))
    assert rep.max_estimate == pytest.approx(est.max())
    assert rep.sup_estimates is None


def test_negative_moments_pathwise_sup():
    m = dyson_model(2, k=4.0)
    rep = negative_moments(m, 2.0, 0.0, 16, 200, 2, pathwise_sup=True)
    sup = np.asarray(rep.sup_estimates)
    assert sup.shape == (m.rs.n_roots,)
    # sup over the path dominates every per-time estimate
    assert np.all(sup >= np.asarray(rep.estimates).max(axis=1) - 1e-12)


def test_negative_moments_deterministic_ensemble_has_no_spread():
    # sigma0 = 0: every path is the same, so the per-time standard errors
    # are rounding residue of the merge, three blocks of which one short
    rep = negative_moments(bessel_model(k=1.0, sigma0=0.0), 2.0, 0.25, 64, 3000, 7)
    assert np.all(np.asarray(rep.std_errors) <= 1e-15)


def test_negative_moments_reject_negative_power():
    with pytest.raises(ParameterError):
        negative_moments(dyson_model(2, k=4.0), -1.0, 0.0, 8, 200, 1)


# ---------------------------------------------------------------------------
# mean-square increments

def test_increment_scaling_diffusive_slope():
    m = bessel_model(k=1.0)
    rep = increment_scaling(m, 0.0, 64, 400, [1 / 64, 2 / 64, 4 / 64, 8 / 64], 3)
    assert rep.slope == pytest.approx(1.0, abs=0.15)
    assert all(a < b for a, b in zip(rep.estimates, rep.estimates[1:]))


def test_increment_scaling_smooth_paths_slope_two():
    m = bessel_model(k=4.0, sigma0=0.0)
    rep = increment_scaling(m, 0.0, 64, 120, [1 / 64, 2 / 64, 4 / 64, 8 / 64], 3)
    assert rep.slope == pytest.approx(2.0, abs=0.2)


def test_increment_scaling_rejects_off_grid_lag():
    m = dyson_model(2, k=4.0)
    with pytest.raises(GridError):
        increment_scaling(m, 0.0, 64, 200, [1.5 / 64], 3)


# ---------------------------------------------------------------------------
# chamber exits

@given(st.integers(0, 50), st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_wilson_interval_contains_fraction(count, extra):
    total = count + extra
    lo, hi = wilson_interval(count, total)
    assert 0.0 <= lo <= count / total <= hi <= 1.0


def test_chamber_exit_counts_truncated_exits_where_exact_has_none():
    # on the same drivers the exact scheme keeps every state in the chamber,
    # and the truncated scheme, the only one chamber_exit runs, leaves it
    m = type_b_model(2, **NEAR_WALL_B2)
    inc = batch_increments(m.brownian_dim, 16, m.T, 3, np.arange(500))
    exact = run_batch(m, SchemeConfig("exact", 0.0, 16), inc)
    assert m.rs.pairings(exact.states).min() > 0.0
    truncated = run_batch(m, SchemeConfig("truncated", 0.0, 16, 1.1), inc)
    rep = chamber_exit(m, 0.0, 1.1, [16], 500, 3)
    assert rep.counts == (np.count_nonzero(truncated.first_violation >= 0),)
    assert rep.counts[0] > 0


def test_chamber_exit_truncated_counts_consistent():
    m = type_b_model(2, k_long=5.0, k_short=5.0, xi=(0.6, 0.3))
    rep = chamber_exit(m, 0.0, 1.1, [8, 32], 400, 9)
    for frac, cnt, lo, hi in zip(rep.fractions, rep.counts, rep.ci_low, rep.ci_high):
        assert frac == cnt / 400
        assert lo <= frac <= hi
    assert rep.fractions[0] >= rep.fractions[-1]



def test_chamber_exit_two_distinct_grids_report_no_slope():
    # four usable entries but only two distinct n: no slope, no FitError
    m = type_b_model(2, k_long=5.0, k_short=5.0, xi=(0.6, 0.3))
    rep = chamber_exit(m, 0.0, 1.1, [8, 8, 16, 16], 400, 9)
    assert min(rep.counts) >= 5
    assert rep.counts[0] == rep.counts[1] and rep.counts[2] == rep.counts[3]
    assert rep.decay_slope is None

# chamber_exit runs every distinct grid of a chunk in lockstep, on one draw:
# B(2) near the wall, and two models with time-dependent k on T = 0.7, one
# stepped by Newton (B(2)) and one in closed form (A(2))
STACKED_MODELS = {
    "B2": lambda: type_b_model(2, **NEAR_WALL_B2),
    "B2_kt": lambda: type_b_model(2, k_long=SqrtAffineFn(5.0, 2.0),
                                  k_short=SqrtAffineFn(6.0, -1.0), xi=(0.6, 0.3), T=0.7),
    "A2_kt": lambda: dyson_model(2, k=SqrtAffineFn(5.0, 2.0), xi=(0.05, -0.05), T=0.7),
}
STACKED_NS = [64, 16, 16, 32]      # shuffled, with a repeated grid


def _report_from_single_grids(m, ns, M, seed, threads):
    """The ExitReport of `ns` assembled from one single-n chamber_exit per grid."""
    one = {n: chamber_exit(m, 0.0, 1.1, [n], M, seed, threads=threads) for n in set(ns)}
    field = {name: tuple(getattr(one[n], name)[0] for n in ns)
             for name in ("counts", "fractions", "ci_low", "ci_high")}
    usable = [(n, f) for n, f, cnt in zip(ns, field["fractions"], field["counts"]) if cnt >= 5]
    return ExitReport(n_values=tuple(ns), M=M, decay_slope=mc._slope_or_none(usable), **field)


@pytest.mark.parametrize("model", sorted(STACKED_MODELS))
@pytest.mark.parametrize("chunk, threads", [(BLOCK, 1), (BLOCK, 3), (mc._MAX_CHUNK, 1)])
def test_chamber_exit_stacked_grids_equal_single_grid_runs(model, chunk, threads, monkeypatch):
    # M = 2 blocks + 1: in one-BLOCK chunks two grids share each solver call
    # and the lone last path runs every grid in one call; in one chunk of
    # 2049 paths each grid has its own calls
    monkeypatch.setattr(mc, "_MAX_CHUNK", chunk)
    m = STACKED_MODELS[model]()
    M = 2 * BLOCK + 1
    stacked = chamber_exit(m, 0.0, 1.1, STACKED_NS, M, 5, threads=threads)
    assert _bits(stacked) == _bits(_report_from_single_grids(m, STACKED_NS, M, 5, threads))
    assert stacked.counts[1] == stacked.counts[2]


@pytest.mark.parametrize("model", sorted(STACKED_MODELS))
def test_stacked_grids_exit_where_run_batch_does_on_their_own_draws(model):
    # each grid reads a scaled prefix of the finest grid's unit normals, which
    # is bitwise its own draw: every path leaves the chamber at the step where
    # run_batch on batch_increments has it leave, in one call for all grids
    m = STACKED_MODELS[model]()
    M, grids = 300, sorted(set(STACKED_NS), reverse=True)
    cfgs = [SchemeConfig("truncated", 0.0, n, 1.1) for n in grids]
    normals = batch_increments(m.brownian_dim, grids[0], float(grids[0]), 5, np.arange(M))
    _, first = scheme._lockstep(m, [scheme._plan(m, cfg, unit=True) for cfg in cfgs], normals)
    for cfg, row in zip(cfgs, first):
        inc = batch_increments(m.brownian_dim, cfg.n, m.T, 5, np.arange(M))
        assert np.array_equal(row, run_batch(m, cfg, inc).first_violation)
    rep = chamber_exit(m, 0.0, 1.1, STACKED_NS, M, 5)
    assert rep.counts == tuple(int(np.count_nonzero(first[grids.index(n)] >= 0))
                               for n in STACKED_NS)


def test_stacked_grid_failure_names_that_grids_step_and_paths(monkeypatch):
    # one Newton iteration per step: n = 1024 first fails at step 2, the
    # coarser grids at step 1, so the stacked call raises for n = 128, its
    # second grid, as that grid's own run_batch does
    monkeypatch.setattr(stepping, "_NEWTON_CAP", 1)
    m = type_b_model(2, **NEAR_WALL_B2)
    M, ns = 64, [1024, 16, 16, 128]
    own = {}
    for n in set(ns):
        inc = batch_increments(m.brownian_dim, n, m.T, 5, np.arange(M))
        with pytest.raises(PathSolverError) as err:
            run_batch(m, SchemeConfig("truncated", 0.0, n, 1.1), inc)
        own[n] = err.value
    assert (own[1024].step, own[128].step, own[16].step) == (2, 1, 1)
    with pytest.raises(PathSolverError) as err:
        chamber_exit(m, 0.0, 1.1, ns, M, 5)
    got, want = err.value, own[128]
    assert (got.step, got.path_ids, str(got)) == (want.step, want.path_ids, str(want))
    assert np.array_equal(got.best, want.best) and got.residual == want.residual

# ---------------------------------------------------------------------------
# squared-mean checks against the moment equation

def test_squared_mean_ode_oracles():
    assert squared_mean_ode(1.0, 1.0, 0.0, 1.0, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert squared_mean_ode(1.0, 1.0, 0.5, 1.0, 1.0) == pytest.approx(
        4.0 * math.e - 3.0, rel=1e-12)
    # lam -> 0 limit is continuous
    assert squared_mean_ode(1.0, 1.0, 1e-9, 1.0, 1.0) == pytest.approx(4.0, abs=1e-6)


def test_cir_mean_check_agrees_with_ode():
    rep = cir_mean_check(1.0, 1.0, 0.5, 1.0, 1.0, theta=0.0, n=64, M=4000,
                         master_seed=17)
    assert rep.ode_mean == pytest.approx(4.0 * math.e - 3.0, rel=1e-12)
    assert rep.std_error > 0
    assert abs(rep.z_score) <= 4.0
    assert abs(rep.mc_mean - rep.ode_mean) == pytest.approx(
        abs(rep.z_score) * rep.std_error, rel=1e-9)
