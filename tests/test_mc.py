"""Monte Carlo drivers: error curves, fits, moments, exits, mean checks."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsim import (
    FitError,
    GridError,
    ParameterError,
    SchemeConfig,
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
from dunklsim import mc
from dunklsim.mc import ErrorCurve, wilson_interval
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


def test_strong_error_thread_invariant_bitwise():
    m = dyson_model(2, k=4.0)
    runs = [strong_error(m, 0.25, [8, 16], 64, 300, 42, threads=t)
            for t in (1, 4, 16)]
    for other in runs[1:]:
        assert runs[0].rms_errors == other.rms_errors
        assert runs[0].std_errors == other.std_errors


NEAR_WALL_B2 = dict(k_long=5.0, k_short=5.0, xi=(0.6, 0.3))

# every estimator as (M, master_seed, threads) -> result, on small grids
ESTIMATORS = {
    "strong_error": lambda M, s, t: strong_error(
        dyson_model(2, k=4.0), 0.25, [4, 8], 16, M, s, threads=t),
    "scheme_gap": lambda M, s, t: scheme_gap(
        type_b_model(2, **NEAR_WALL_B2), 0.0, 8, M, s, threads=t),
    "negative_moments": lambda M, s, t: negative_moments(
        dyson_model(2, k=4.0), 2.0, 0.25, 8, M, s, pathwise_sup=True, threads=t),
    "increment_scaling": lambda M, s, t: increment_scaling(
        dyson_model(2, k=4.0), 0.0, 8, M, [1 / 8, 2 / 8, 4 / 8], s, threads=t),
    "chamber_exit": lambda M, s, t: chamber_exit(
        type_b_model(2, **NEAR_WALL_B2), 0.0, 1.1, [8, 16], M, s, threads=t),
    "cir_mean_check": lambda M, s, t: cir_mean_check(
        1.0, 1.0, 0.5, 1.0, 1.0, theta=0.0, n=8, M=M, master_seed=s, threads=t),
}


def _bits(result):
    """Exact bytes of every field of an estimator result."""
    fields = (dataclasses.astuple(result) if dataclasses.is_dataclass(result)
              else result)
    return [f.encode() if isinstance(f, str) else
            None if f is None else np.asarray(f, dtype=float).tobytes()
            for f in fields]


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_thread_pool_matches_serial_bitwise(name, monkeypatch):
    # one-block chunks and M = 2 blocks + 1: three chunks, the last one a
    # single path, so threads > 1 really run on the pool
    monkeypatch.setattr(mc, "_MAX_CHUNK", BLOCK)
    sizes = []
    draw = mc.batch_increments

    def counted(r, n, T, seed, ids):
        sizes.append(len(ids))
        return draw(r, n, T, seed, ids)

    monkeypatch.setattr(mc, "batch_increments", counted)
    run = ESTIMATORS[name]
    M = 2 * BLOCK + 1
    serial = run(M, 5, 1)
    assert sorted(set(sizes)) == [1, BLOCK] and sum(sizes) % M == 0
    assert _bits(run(M, 5, 3)) == _bits(serial)


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
        return run_batch(m, cfg, drive).final

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


def test_chamber_exit_exact_variant_is_identically_zero():
    m = dyson_model(2, k=4.0)
    rep = chamber_exit(m, 0.0, 1.1, [8, 16], 500, 3, variant="exact")
    assert rep.fractions == (0.0, 0.0)
    assert rep.counts == (0, 0)
    assert rep.decay_slope is None
    assert all(hi > 0 for hi in rep.ci_high)


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
