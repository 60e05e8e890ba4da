"""Interior-preserving theta schemes over full paths."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsim import (
    ParameterError,
    PathSolverError,
    SchemeConfig,
    audit_batch,
    bessel_model,
    closed_form_step_1d,
    dyson_model,
    run_batch,
    type_b_model,
)
from dunklsim.brownian import batch_increments
from dunklsim.scheme import truncation_level
from dunklsim.stepping import _newton_batch

IDS = np.arange(8, dtype=np.uint64)


def _paths(m, n, seed, count=8):
    return batch_increments(m.rs.dim, n, m.T, seed, np.arange(count, dtype=np.uint64))


# ---------------------------------------------------------------------------
# configuration

def test_theta_range_by_variant():
    SchemeConfig(variant="exact", theta=0.49, n=4)
    SchemeConfig(variant="truncated", theta=0.99, n=4)
    with pytest.raises(ParameterError):
        SchemeConfig(variant="exact", theta=0.5, n=4)
    with pytest.raises(ParameterError):
        SchemeConfig(variant="truncated", theta=1.0, n=4)
    with pytest.raises(ParameterError):
        SchemeConfig(variant="exact", theta=-0.1, n=4)
    with pytest.raises(ParameterError):
        SchemeConfig(variant="bogus", theta=0.0, n=4)
    with pytest.raises(ParameterError):
        SchemeConfig(variant="truncated", theta=0.0, n=4, c=1.0)


def test_run_batch_solver_failure_names_step_and_paths():
    m = dyson_model(2, k=4.0)
    cfg = SchemeConfig(variant="exact", theta=0.0, n=4, solver_tol=1e-300)
    inc = _paths(m, cfg.n, seed=2)
    with pytest.raises(PathSolverError) as exc:
        run_batch(m, cfg, inc)
    assert exc.value.step == 1
    # a residual of exactly 0 certifies even tol = 1e-300; every other row
    # fails, and the error must name exactly those rows
    xhat = m.xi_array + inc[:, 0]                      # sigma = 1, no drift, theta = 0
    _, iters, _, ok = _newton_batch(m.rs, m.k_at(0.25), xhat, 0.25, cfg.solver_tol)
    failed = np.nonzero(~ok)[0]
    assert failed.size and exc.value.path_ids == failed.tolist()
    assert np.all(iters[failed] == 200)
    assert exc.value.best.shape == (2,)


def test_truncation_level_formula():
    # c * sqrt(L*T/n) with L = 6 for three unit-strength A(3) pairs
    m = dyson_model(3, k=1.0)
    cfg = SchemeConfig(variant="truncated", theta=0.0, n=100, c=1.1)
    assert truncation_level(m, cfg) == pytest.approx(0.2694438717061496, abs=1e-15)


# ---------------------------------------------------------------------------
# zero-noise oracles (d = 1, unit strength: X(t) = sqrt(1 + 2t))

def test_single_step_matches_closed_form():
    m = bessel_model(k=1.0, sigma0=0.0, T=0.01)
    out = run_batch(m, SchemeConfig(variant="exact", theta=0.0, n=1),
                    _paths(m, 1, 0, 2))
    assert out.final[:, 0] == pytest.approx(closed_form_step_1d(1.0, 0.01, 1.0),
                                            abs=1e-15)


def test_zero_noise_limit_value():
    m = bessel_model(k=1.0, sigma0=0.0)
    out = run_batch(m, SchemeConfig(variant="exact", theta=0.0, n=1024),
                    _paths(m, 1024, 0, 1))
    assert abs(out.final[0, 0] - math.sqrt(3.0)) <= 1e-3


def test_zero_noise_path_increasing():
    m = bessel_model(k=1.0, sigma0=0.0)
    out = run_batch(m, SchemeConfig(variant="exact", theta=0.25, n=64),
                    batch_increments(1, 64, 1.0, 0, np.array([0])))
    x = out.states[0, :, 0]
    assert np.all(np.diff(x) > 0)
    assert out.first_violation[0] == -1


# ---------------------------------------------------------------------------
# batch runs

def test_states_start_at_origin_point():
    m = dyson_model(3, k=2.0)
    out = run_batch(m, SchemeConfig(variant="exact", theta=0.0, n=8),
                    _paths(m, 8, 3))
    assert np.array_equal(out.states[:, 0, :], np.tile(m.xi, (8, 1)))


def test_exact_variant_stays_in_chamber():
    m = dyson_model(2, k=4.0)
    out = run_batch(m, SchemeConfig(variant="exact", theta=0.25, n=128),
                    _paths(m, 128, 1), record_flags=True)
    assert out.in_chamber.all()
    assert not out.exited.any()
    assert np.all(out.first_violation == -1)
    p = m.rs.pairings(out.states.reshape(-1, 2))
    assert p.min() > 0


def test_run_batch_is_pure():
    m = dyson_model(2, k=4.0)
    cfg = SchemeConfig(variant="truncated", theta=0.25, n=32)
    inc = _paths(m, 32, 9)
    a = run_batch(m, cfg, inc)
    b = run_batch(m, cfg, inc)
    assert np.array_equal(a.states, b.states)


def test_single_path_matches_batch_row():
    m = dyson_model(2, k=4.0)
    cfg = SchemeConfig(variant="exact", theta=0.25, n=32)
    out = run_batch(m, cfg, batch_increments(2, 32, m.T, 11, IDS))
    one = run_batch(m, cfg, batch_increments(2, 32, m.T, 11, np.array([5])))
    assert np.array_equal(one.states[0], out.states[5])


def test_store_stride_subsamples():
    m = dyson_model(2, k=4.0)
    cfg = SchemeConfig(variant="exact", theta=0.0, n=16)
    inc = _paths(m, 16, 2)
    full = run_batch(m, cfg, inc)
    strided = run_batch(m, cfg, inc, store_stride=4)
    assert strided.states.shape == (8, 5, 2)
    assert np.array_equal(strided.states, full.states[:, ::4, :])
    assert np.array_equal(strided.final, full.final)


def test_audit_residuals_within_tolerance():
    m = type_b_model(2, k_long=1.5, k_short=0.7)
    for variant, theta in (("exact", 0.25), ("truncated", 0.5)):
        cfg = SchemeConfig(variant=variant, theta=theta, n=32)
        inc = _paths(m, 32, 4)
        out = run_batch(m, cfg, inc)
        res = audit_batch(m, cfg, inc, out.states)
        assert res.shape == (8, 32)
        assert res.max() <= cfg.solver_tol


def test_audit_single_path_batch():
    m = dyson_model(2, k=4.0)
    cfg = SchemeConfig(variant="exact", theta=0.0, n=16)
    inc = batch_increments(2, 16, m.T, 21, np.array([3]))
    out = run_batch(m, cfg, inc)
    res = audit_batch(m, cfg, inc, out.states)
    assert res.shape == (1, 16)
    assert res.max() <= cfg.solver_tol


# ---------------------------------------------------------------------------
# truncated variant semantics

def test_truncated_matches_exact_deep_in_chamber():
    m = dyson_model(2, k=4.0, xi=(3.0, -3.0), T=0.25)
    inc = _paths(m, 64, 5)
    oe = run_batch(m, SchemeConfig(variant="exact", theta=0.25, n=64), inc)
    ot = run_batch(m, SchemeConfig(variant="truncated", theta=0.25, n=64), inc)
    assert np.max(np.abs(oe.final - ot.final)) <= 1e-9


def test_truncated_records_violations_without_raising():
    m = type_b_model(2, k_long=5.0, k_short=5.0, xi=(0.6, 0.3))
    cfg = SchemeConfig(variant="truncated", theta=0.0, n=32)
    out = run_batch(m, cfg, batch_increments(2, 32, m.T, 123, np.arange(16, dtype=np.uint64)),
                    record_flags=True)
    assert out.exited.any()
    hit = np.flatnonzero(out.exited)[0]
    first = out.first_violation[hit]
    assert first >= 1
    assert not out.in_chamber[hit, first]
    assert out.in_chamber[hit, :first].all()
    # clean paths carry the no-violation sentinel
    clean = np.flatnonzero(~out.exited)
    assert np.all(out.first_violation[clean] == -1)


def test_truncated_single_path_variant():
    m = bessel_model(k=1.0, xi=0.05)
    cfg = SchemeConfig(variant="truncated", theta=0.5, n=64)
    out = run_batch(m, cfg, batch_increments(1, 64, m.T, 77, np.array([1])),
                    record_flags=True)
    assert out.states.shape == (1, 65, 1)
    assert np.isfinite(out.states).all()
    fv = out.first_violation[0]
    assert out.in_chamber[0].all() == (fv == -1)


MODELS = {
    "D1": lambda: bessel_model(k=1.0, xi=0.3),
    "A2": lambda: dyson_model(2, k=4.0),
    "A3": lambda: dyson_model(3, k=2.0),
    "A4": lambda: dyson_model(4, k=1.0),
    "A5": lambda: dyson_model(5, k=1.0),
    "B2": lambda: type_b_model(2, k_long=2.0, k_short=1.0),
    "B3": lambda: type_b_model(3, k_long=1.5, k_short=0.7),
    "B4": lambda: type_b_model(4, k_long=1.0, k_short=0.5),
}


@given(st.sampled_from(sorted(MODELS)), st.sampled_from(("exact", "truncated")),
       st.floats(0.0, 0.5), st.floats(1.05, 3.0), st.integers(0, 2**32 - 1),
       st.permutations(range(9)), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_truncated_rows_invariant_under_permutation_and_sub_batches(
        name, variant, theta, c, seed, perm, cut):
    """run_batch rows, the first violations and the per-path solver
    iteration counts are bitwise the same in any order of the batch and in
    any sub-batch, one row included, for both variants."""
    m = MODELS[name]()
    if variant == "exact":
        theta = min(theta, 0.49)
    cfg = SchemeConfig(variant=variant, theta=theta, n=16, c=c)
    ids = np.arange(9, dtype=np.uint64)
    perm = np.array(perm)

    def run(rows):
        out = run_batch(m, cfg, batch_increments(m.brownian_dim, 16, m.T, seed, ids[rows]),
                        record_iterations=True)
        return out.states, out.iterations, out.first_violation

    full = run(np.arange(9))
    for got, want in zip(run(perm), full):
        assert np.array_equal(got, want[perm])
    parts = [run(perm[:cut]), run(perm[cut:])]
    for j, want in enumerate(full):
        assert np.array_equal(np.concatenate([p[j] for p in parts]), want[perm])
    for got, want in zip(run(perm[:1]), full):
        assert np.array_equal(got, want[perm[:1]])


@pytest.mark.parametrize("name", ["A5", "B4"])
@pytest.mark.parametrize("variant", ["exact", "truncated"])
def test_one_path_batch_matches_its_row(name, variant):
    """Run and audit of a one-path batch are bitwise the path's row of a
    larger batch on systems with many roots, where a one-row product
    would sum in another order."""
    m = MODELS[name]()
    cfg = SchemeConfig(variant=variant, theta=0.25, n=32)
    ids = np.arange(6, dtype=np.uint64)
    inc = batch_increments(m.brownian_dim, 32, m.T, 3, ids)
    out = run_batch(m, cfg, inc)
    res = audit_batch(m, cfg, inc, out.states)
    for i in range(ids.size):
        one = run_batch(m, cfg, inc[i:i + 1])
        assert np.array_equal(one.states[0], out.states[i])
        assert np.array_equal(audit_batch(m, cfg, inc[i:i + 1], one.states)[0], res[i])


def test_iterations_recorded():
    m = dyson_model(2, k=4.0)
    cfg = SchemeConfig(variant="exact", theta=0.0, n=16)
    out = run_batch(m, cfg, _paths(m, 16, 6), record_iterations=True)
    assert out.iterations.shape == (8, 16)
    assert np.all(out.iterations >= 1)
