"""Implicit step solvers: closed form, damped Newton, capped fixed point."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsim import (
    ChamberError,
    ParameterError,
    RootSystem,
    SolverError,
    closed_form_step_1d,
    direct_sum,
    fixed_point_certificate,
    make_type_a,
    make_type_b,
    sample_chamber_points,
    solve_exact_step,
    solve_truncated_step,
)
from dunklsim import stepping
from dunklsim.model import repulsion
from dunklsim.roots import min_pairing
from dunklsim.stepping import _fixed_point_batch, _newton_batch, step_residual

D1 = RootSystem(dim=1, positive_roots=((1.0,),), orbits=((0,),))


# ---------------------------------------------------------------------------
# closed form, d = 1

def test_closed_form_quadratic_oracle():
    # y solves y^2 - xhat*y - h*k = 0, positive branch
    assert closed_form_step_1d(1.0, 0.01, 1.0) == pytest.approx(
        1.0099019513592784, abs=1e-12)
    assert closed_form_step_1d(0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_closed_form_zero_stepsize_is_identity():
    assert closed_form_step_1d(3.5, 0.0, 2.0) == 3.5


def test_closed_form_positive_from_infeasible():
    y = closed_form_step_1d(-10.0, 1e-3, 1.0)
    assert y > 0
    assert y * y - (-10.0) * y - 1e-3 == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-5, 5), st.floats(1e-4, 1.0), st.floats(0.1, 10.0))
@settings(max_examples=300, deadline=None)
def test_newton_matches_closed_form_1d(xhat, h, k):
    rep = solve_exact_step(D1, [k], np.array([xhat]), h)
    assert abs(rep.y[0] - closed_form_step_1d(xhat, h, k)) <= 1e-10


# ---------------------------------------------------------------------------
# Newton solver, general dimension

def test_exact_step_failure_reports_newton_cap():
    with pytest.raises(SolverError) as exc:
        solve_exact_step(make_type_a(2), [4.0], np.zeros(2), 0.25, tol=1e-300)
    assert exc.value.iterations == 200
    assert exc.value.best.shape == (2,)
    assert exc.value.residual > 1e-300


def test_symmetric_two_particle_solution():
    # h*k = 1 puts the minimizer at unit distance along the root direction
    rs = make_type_a(2)
    rep = solve_exact_step(rs, [4.0], np.zeros(2), 0.25)
    r = 1.0 / math.sqrt(2.0)
    assert rep.y == pytest.approx([r, -r], abs=1e-10)
    assert rep.residual <= 1e-10
    assert min_pairing(rs, rep.y) > 0


def test_newton_stays_interior_from_infeasible_predictor():
    rs = make_type_b(2)
    rep = solve_exact_step(rs, [2.0, 1.0], np.array([-3.0, 4.0]), 0.05)
    assert min_pairing(rs, rep.y) > 0


def test_newton_solution_unique_across_initials():
    rs = make_type_a(3)
    xhat = np.array([0.3, 0.1, -0.4])
    rng = np.random.default_rng(7)
    sols = []
    for x0 in sample_chamber_points(rs, 32, rng, wall_lo=1e-2, wall_hi=5.0):
        sols.append(solve_exact_step(rs, [2.0], xhat, 0.1, initial=x0).y)
    sols = np.array(sols)
    assert np.max(np.abs(sols - sols[0])) <= 1e-8


def test_newton_displacement_aligned_with_drift():
    # the optimality condition forces <y - xhat, f(y)> = |y - xhat|^2 / h
    rs = make_type_a(2)
    xhat = np.array([0.2, 0.0])
    h = 0.3
    rep = solve_exact_step(rs, [4.0], xhat, h)
    disp = rep.y - xhat
    alpha = rs.matrix[0]
    f = 4.0 * alpha / float(alpha @ rep.y)
    assert float(disp @ f) == pytest.approx(float(disp @ disp) / h, rel=1e-9)


def test_newton_residual_certified():
    rs = make_type_b(3)
    rng = np.random.default_rng(42)
    for _ in range(20):
        xhat = rng.normal(size=3) * 2
        rep = solve_exact_step(rs, [1.5, 0.7], xhat, 0.02)
        assert rep.residual <= 1e-10
        assert step_residual(rs, [1.5, 0.7], xhat, 0.02, rep.y) == pytest.approx(
            rep.residual, abs=1e-15)


def test_exact_step_rejects_nonpositive_stepsize():
    with pytest.raises(ParameterError):
        solve_exact_step(D1, [1.0], np.array([1.0]), 0.0)
    with pytest.raises(ParameterError):
        solve_exact_step(D1, [1.0], np.array([1.0]), -0.1)


# ---------------------------------------------------------------------------
# batched Newton kernel

NEWTON_SYSTEMS = {
    "A3": (make_type_a(3), [2.0]),
    "A4": (make_type_a(4), [1.0]),
    "A5": (make_type_a(5), [0.8]),
    "B2": (make_type_b(2), [2.0, 1.0]),
    "B3": (make_type_b(3), [1.5, 0.7]),
    "B4": (make_type_b(4), [1.0, 2.0]),
    "A3+B2": (direct_sum(make_type_a(3), make_type_b(2)), [2.0, 1.5, 0.7]),
}


def _fresh_residual(rs, kv, xhat, h, y):
    """|y - xhat - h f(y)| per row, recomputed from y (two or more rows, so
    the products sum as in the solver)."""
    g = y - xhat - h * repulsion(rs.matrix, kv, y @ rs.matrix.T)
    return np.sqrt(np.sum(g * g, axis=1))


def _predictors(rs, count, seed, spread):
    """Points near the chamber's walls, moved off by noise of size `spread`."""
    rng = np.random.default_rng(seed)
    near = sample_chamber_points(rs, count, rng, wall_lo=1e-3, wall_hi=1.0)
    return near + spread * rng.normal(size=near.shape)


@pytest.mark.parametrize("cap", [None, 1, 2])
def test_newton_batch_returns_residual_of_its_iterate(monkeypatch, cap):
    """The residual the kernel reports is that of the y it returns, bitwise,
    whether a row converged early, late, or was stopped by the cap."""
    if cap is not None:
        monkeypatch.setattr(stepping, "_NEWTON_CAP", cap)
    rs, k = NEWTON_SYSTEMS["A3"]
    kv = np.asarray(k)[rs.orbit_of]
    xhat = _predictors(rs, 32, 11, 0.5)
    y, iters, res, ok = _newton_batch(rs, kv, xhat, 0.05, 1e-10)
    assert res.tobytes() == _fresh_residual(rs, kv, xhat, 0.05, y).tobytes()
    assert np.array_equal(ok, res <= 1e-10)
    if cap is None:
        assert ok.all() and np.unique(iters).size > 2
    else:
        assert iters.max() == cap and not ok.all()


def test_newton_batch_lone_straggler():
    """A row that iterates alone after the others converged runs twinned:
    its result and residual equal its own solve bitwise."""
    rs, k = NEWTON_SYSTEMS["B3"]
    kv = np.asarray(k)[rs.orbit_of]
    deep = sample_chamber_points(rs, 5, np.random.default_rng(3), wall_lo=1.0, wall_hi=3.0)
    xhat = np.vstack([deep, -20.0 * rs.interior_direction])
    y, iters, res, ok = _newton_batch(rs, kv, xhat, 0.02, 1e-10)
    assert ok.all() and iters[-1] > iters[:-1].max() + 1
    assert res.tobytes() == _fresh_residual(rs, kv, xhat, 0.02, y).tobytes()
    rep = solve_exact_step(rs, k, xhat[-1], 0.02)
    assert rep.y.tobytes() == y[-1].tobytes()
    assert (rep.iterations, rep.residual) == (iters[-1], res[-1])


@given(st.sampled_from(sorted(NEWTON_SYSTEMS)), st.floats(1e-3, 0.1),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_newton_batch_rows_equal_reference_solves(name, h, spread, seed):
    """Each row of a batch is the reference solve of that predictor alone,
    bitwise, strictly inside the chamber and certified."""
    rs, k = NEWTON_SYSTEMS[name]
    kv = np.asarray(k)[rs.orbit_of]
    xhat = _predictors(rs, 6, seed, spread)
    y, iters, res, ok = _newton_batch(rs, kv, xhat, h, 1e-10)
    assert ok.all() and np.all(res <= 1e-10)
    assert np.all(rs.pairings(y).min(axis=1) > 0.0)
    for i in range(xhat.shape[0]):
        rep = solve_exact_step(rs, k, xhat[i], h)
        assert rep.y.tobytes() == y[i].tobytes()
        assert (rep.iterations, rep.residual) == (iters[i], res[i])


# ---------------------------------------------------------------------------
# capped fixed point

def test_truncated_step_cap_active_oracle():
    # xhat = -10, h = 0.5, k = 1, eps = 1: iteration is y <- xhat + 0.5,
    # frozen at -9.5 where the cap gives weight 1/eps = 1
    rep = solve_truncated_step(D1, [1.0], np.array([-10.0]), 0.5, eps=1.0)
    assert rep.y[0] == pytest.approx(-9.5, abs=1e-12)
    assert rep.residual <= 1e-10


def test_truncated_iterations_match_certificate():
    m_star, rho, b0 = fixed_point_certificate(D1, [1.0], 0.5, 1.0, 1e-10)
    assert rho == pytest.approx(0.5)
    assert b0 == pytest.approx(2.0)
    assert m_star == math.ceil(math.log(1e-10 / b0) / math.log(rho))
    # the first sweep lands on the fixed point -9.5 and the second sees no
    # change, so the a posteriori test stops the iteration after two sweeps
    rep = solve_truncated_step(D1, [1.0], np.array([-10.0]), 0.5, eps=1.0)
    assert rep.iterations == 2
    assert 2 <= m_star


CAPPED_SYSTEMS = {
    "D1": (D1, [1.0]),
    "A2": (make_type_a(2), [4.0]),
    "A3": (make_type_a(3), [2.0]),
    "A4": (make_type_a(4), [1.0]),
    "B2": (make_type_b(2), [2.0, 1.0]),
    "B3": (make_type_b(3), [1.5, 0.7]),
}


@given(st.sampled_from(sorted(CAPPED_SYSTEMS)), st.floats(0.05, 0.95),
       st.floats(0.3, 2.0), st.floats(0.5, 5.0), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_capped_early_exit_within_certified_bound(name, rho_target, eps, spread, seed):
    """Every path of a batch stops within B0 rho^{m*} of the fixed point,
    after at least one and at most m* sweeps."""
    rs, k = CAPPED_SYSTEMS[name]
    kv = np.asarray(k, dtype=float)[rs.orbit_of]
    h = rho_target * eps * eps / float(np.sum(kv * rs.norms_sq))
    xhat = np.random.default_rng(seed).normal(size=(16, rs.dim)) * spread
    m_star, rho, b0 = fixed_point_certificate(rs, k, h, eps, 1e-10)
    y, iters = _fixed_point_batch(rs, kv, xhat, h, eps, (m_star, rho, b0))
    y_ref = xhat.copy()
    for _ in range(10 * m_star):
        w = kv / np.maximum(eps, rs.pairings(y_ref))
        y_ref = xhat + h * (w @ rs.matrix)
    assert np.all(np.linalg.norm(y - y_ref, axis=1) <= b0 * rho ** m_star)
    assert np.all((1 <= iters) & (iters <= m_star))
    rep = solve_truncated_step(rs, k, xhat[0], h, eps=eps)
    assert np.linalg.norm(rep.y - y_ref[0]) <= b0 * rho ** m_star
    assert 1 <= rep.iterations <= m_star


def test_truncated_rejects_non_contractive_stepsize():
    # needs h < eps^2 / L strictly
    with pytest.raises(ParameterError):
        solve_truncated_step(D1, [1.0], np.array([0.0]), 1.0, eps=1.0)
    with pytest.raises(ParameterError):
        fixed_point_certificate(D1, [1.0], 2.0, 1.0, 1e-10)


def test_truncated_matches_exact_when_cap_inactive():
    # deep in the chamber the cap never engages and both solvers agree
    rep_t = solve_truncated_step(D1, [1.0], np.array([5.0]), 0.01, eps=0.2)
    rep_e = solve_exact_step(D1, [1.0], np.array([5.0]), 0.01)
    closed = closed_form_step_1d(5.0, 0.01, 1.0)
    assert abs(rep_t.y[0] - closed) <= 1e-10
    assert abs(rep_e.y[0] - closed) <= 1e-10


def test_truncated_geometric_error_bound():
    # where the iteration stops, the distance to a long fixed-point run
    # obeys the a-priori geometric bound
    rng = np.random.default_rng(5)
    rs = make_type_a(2)
    for rho_target in (0.1, 0.5, 0.9):
        for _ in range(10):
            eps = rng.uniform(0.3, 2.0)
            h = rho_target * eps ** 2 / 8.0      # L = 8 for A(2), k = 4
            xhat = rng.normal(size=2) * 3
            m_star, rho, b0 = fixed_point_certificate(rs, [4.0], h, eps, 1e-10)
            assert rho == pytest.approx(rho_target)
            rep = solve_truncated_step(rs, [4.0], xhat, h, eps=eps)
            y = xhat.copy()
            for _ in range(10 * m_star):
                w = 4.0 / np.maximum(eps, rs.pairings(y))
                y = xhat + h * (w @ rs.matrix)
            assert np.linalg.norm(rep.y - y) <= b0 * rho ** m_star + 1e-12


def test_truncated_residual_uses_capped_weights():
    rep = solve_truncated_step(D1, [1.0], np.array([-10.0]), 0.5, eps=1.0)
    assert step_residual(D1, [1.0], np.array([-10.0]), 0.5, rep.y, eps=1.0) <= 1e-12
    # the capped solution sits outside the chamber, where the uncapped
    # residual is undefined
    with pytest.raises(ChamberError):
        step_residual(D1, [1.0], np.array([-10.0]), 0.5, rep.y)


# ---------------------------------------------------------------------------
# cross-solver consistency

@given(st.floats(0.5, 5.0), st.floats(1e-4, 0.01), st.floats(0.1, 3.0))
@settings(max_examples=100, deadline=None)
def test_three_solvers_agree_deep_in_chamber(xhat, h, k):
    eps = 2.0 * math.sqrt(h * k)                 # contraction 1/4, cap inactive
    closed = closed_form_step_1d(xhat, h, k)
    newton = solve_exact_step(D1, [k], np.array([xhat]), h).y[0]
    capped = solve_truncated_step(D1, [k], np.array([xhat]), h, eps=eps).y[0]
    assert abs(newton - closed) <= 1e-10
    if closed - eps > 0.1:                       # solution clear of the cap
        assert abs(capped - closed) <= 1e-9
