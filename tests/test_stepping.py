"""Implicit step solvers: closed form, and one damped Newton kernel for the
exact and the capped step."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsim import (
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
from dunklsim.stepping import _newton_batch, _per_root_k

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

def test_exact_step_failure_reports_newton_cap(monkeypatch):
    """No iterate certifies tol = 1e-300.  The A(2) iterate stops moving
    after 6 iterations, so the 7th reports a stall, well before the cap; a
    restart from it stalls at once and moves nothing.  Below the stall
    count the cap stops it."""
    rs = make_type_a(2)
    with pytest.raises(SolverError) as exc:
        solve_exact_step(rs, [4.0], np.zeros(2), 0.25, tol=1e-300)
    assert exc.value.iterations == 7 < stepping._NEWTON_CAP
    assert "1 stalled, 0 hit the cap" in str(exc.value)
    assert exc.value.best.shape == (2,)
    assert exc.value.residual > 1e-300
    with pytest.raises(SolverError) as again:
        solve_exact_step(rs, [4.0], np.zeros(2), 0.25, tol=1e-300, initial=exc.value.best)
    assert again.value.iterations == 1
    assert again.value.best.tobytes() == exc.value.best.tobytes()
    assert again.value.residual == exc.value.residual
    monkeypatch.setattr(stepping, "_NEWTON_CAP", 3)
    with pytest.raises(SolverError) as capped:
        solve_exact_step(rs, [4.0], np.zeros(2), 0.25, tol=1e-300)
    assert capped.value.iterations == 3
    assert "0 stalled, 1 hit the cap of 3 iterations" in str(capped.value)


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
        p = rs.pairings(rep.y)
        assert p.min() > 0.0
        resid = rep.y - xhat - 0.02 * repulsion(rs.matrix, _per_root_k(rs, [1.5, 0.7]), p)
        assert float(np.linalg.norm(resid)) == pytest.approx(rep.residual, abs=1e-15)


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
# d = 8: the residual's sum of squares runs over 8 columns
A3_B2_A3 = (direct_sum(direct_sum(make_type_a(3), make_type_b(2)), make_type_a(3)),
            [2.0, 1.5, 0.7, 1.0])


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
    whether a row converged early, late, or was stopped by the cap; also at
    d = 8, where the residual sums 8 columns."""
    if cap is not None:
        monkeypatch.setattr(stepping, "_NEWTON_CAP", cap)
    for rs, k in (NEWTON_SYSTEMS["A3"], A3_B2_A3):
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


@given(st.sampled_from(sorted(NEWTON_SYSTEMS)), st.floats(1e-3, 0.1),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sweeps_alone_certify_strictly_inside(name, h, spread, seed):
    """A row that takes no Newton iteration was certified by the explicit
    sweeps: it is strictly inside the chamber, its residual is <= tol and is
    the fresh residual of its iterate bitwise.  Rows whose walls lie 10
    sqrt(h L) away contract by 1/100 a sweep and always certify that way."""
    rs, k = NEWTON_SYSTEMS[name]
    kv = np.asarray(k)[rs.orbit_of]
    rng = np.random.default_rng(seed)
    far = 10.0 * math.sqrt(h * float(np.sum(kv * rs.norms_sq)))
    xhat = np.vstack([_predictors(rs, 6, seed, spread),
                      sample_chamber_points(rs, 6, rng, wall_lo=far, wall_hi=2.0 * far)])
    y, iters, res, ok = _newton_batch(rs, kv, xhat, h, 1e-10)
    assert ok.all() and np.all(iters[6:] == 0)
    swept = iters == 0
    assert np.all(rs.pairings(y[swept]).min(axis=1) > 0.0)
    assert np.all(res[swept] <= 1e-10)
    assert res.tobytes() == _fresh_residual(rs, kv, xhat, h, y).tobytes()


def test_sweeps_leaving_the_chamber_fall_back_to_pushed_start(monkeypatch):
    """From a predictor far outside (-20 eta) the sweeps leave the chamber, so
    Newton starts from the predictor pushed in to the smallest pairing
    target = sqrt(h L) / 2, and certifies from there."""
    rs, k = NEWTON_SYSTEMS["B3"]
    kv = np.asarray(k)[rs.orbit_of]
    h = 0.02
    eta = rs.interior_direction
    target = math.sqrt(h * float(np.sum(kv * rs.norms_sq))) / 2.0
    deep = sample_chamber_points(rs, 3, np.random.default_rng(3),
                                 wall_lo=20.0 * target, wall_hi=40.0 * target)
    xhat = np.vstack([deep, -20.0 * eta])
    p = rs.pairings(xhat[-1:])[0]
    pushed = xhat[-1] + np.max((target - p) / (rs.matrix @ eta)) * eta
    monkeypatch.setattr(stepping, "_NEWTON_CAP", 0)     # returns the start itself
    start, iters, res, ok = _newton_batch(rs, kv, xhat, h, 1e-10)
    assert np.array_equal(ok, [True, True, True, False]) and not iters.any()
    assert np.allclose(start[-1], pushed, rtol=0.0, atol=1e-12)
    assert rs.pairings(start[-1:]).min() == pytest.approx(target, rel=1e-12)
    monkeypatch.undo()
    y, iters, res, ok = _newton_batch(rs, kv, xhat, h, 1e-10)
    assert ok.all() and iters[-1] >= 1 and not iters[:-1].any()
    assert rs.pairings(y).min() > 0.0
    assert y[:-1].tobytes() == start[:-1].tobytes()


@given(st.sampled_from(sorted(NEWTON_SYSTEMS)), st.floats(1e-3, 0.1),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_solve_spd_matches_lapack(name, h, seed):
    """On Newton's Hessians I + h sum k / <alpha, y>^2 alpha alpha^T at
    chamber points (condition number below about 5e3 at these wall
    distances), the in-numpy solve matches LAPACK to a relative 1e-12, and
    each row's solution is that row solved in a two-row batch, bitwise."""
    rs, k = NEWTON_SYSTEMS[name]
    kv = np.asarray(k)[rs.orbit_of]
    rng = np.random.default_rng(seed)
    y = sample_chamber_points(rs, 8, rng, wall_lo=1e-2, wall_hi=5.0)
    w = h * kv / rs.pairings(y) ** 2
    hess = np.eye(rs.dim) + np.einsum("mr,ri,rj->mij", w, rs.matrix, rs.matrix)
    rhs = rng.normal(size=y.shape)
    x = stepping._solve_spd(hess.reshape(8, -1), rhs)
    ref = np.linalg.solve(hess, rhs[..., None])[..., 0]
    assert np.all(np.linalg.norm(x - ref, axis=1) <= 1e-12 * np.linalg.norm(ref, axis=1))
    for i in range(8):
        two = stepping._solve_spd(hess[[i, i]].reshape(2, -1), rhs[[i, i]])
        assert two[0].tobytes() == x[i].tobytes()


def test_newton_batch_runs_without_lapack_solve(monkeypatch):
    """The Newton step is solved in numpy: with np.linalg.solve disabled,
    batches on A(3), A(5) and B(3) reach Newton and still certify."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for name in ("A3", "A5", "B3"):
        rs, k = NEWTON_SYSTEMS[name]
        kv = np.asarray(k)[rs.orbit_of]
        y, iters, res, ok = _newton_batch(rs, kv, _predictors(rs, 16, 5, 0.5), 0.05, 1e-10)
        assert ok.all() and iters.max() >= 1


# ---------------------------------------------------------------------------
# capped step

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
    # the explicit sweeps that start Newton land on the solution -9.5, whose
    # residual 0 certifies at once: no Newton iteration runs
    rep = solve_truncated_step(D1, [1.0], np.array([-10.0]), 0.5, eps=1.0)
    assert (rep.iterations, rep.residual) == (0, 0.0)
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
    """Every row of a capped Newton batch, and the reference solve, stops at
    residual B0 rho^{m*} and lies within B0 rho^{m*} of the fixed point
    that 10 m* sweeps reach."""
    rs, k = CAPPED_SYSTEMS[name]
    kv = np.asarray(k, dtype=float)[rs.orbit_of]
    h = rho_target * eps * eps / float(np.sum(kv * rs.norms_sq))
    xhat = np.random.default_rng(seed).normal(size=(16, rs.dim)) * spread
    m_star, rho, b0 = fixed_point_certificate(rs, k, h, eps, 1e-10)
    bound = b0 * rho ** m_star
    y, iters, res, ok = _newton_batch(rs, kv, xhat, h, bound, eps=eps)
    y_ref = xhat.copy()
    for _ in range(10 * m_star):
        w = kv / np.maximum(eps, rs.pairings(y_ref))
        y_ref = xhat + h * (w @ rs.matrix)
    assert ok.all()
    assert np.all(np.linalg.norm(y - y_ref, axis=1) <= bound)
    assert np.all(iters < stepping._NEWTON_CAP)
    rep = solve_truncated_step(rs, k, xhat[0], h, eps=eps)
    assert np.linalg.norm(rep.y - y_ref[0]) <= bound
    assert rep.residual <= bound


def _stacked_parameter_sets(rs, kv, rho_target, seed, shared_k):
    """Three (kv, h, eps, tol, predictors) sets of 8 rows each, and their
    per-row arrays as the capped kernels take them."""
    rng = np.random.default_rng(seed)
    sets = []
    for j in range(3):
        kj = kv if shared_k else kv * (1.0 + 0.5 * j)
        eps = 0.3 + 0.4 * j
        h = rho_target * eps * eps / float(np.sum(kj * rs.norms_sq))
        m_star, rho, b0 = stepping._certificate(rs, kj, h, eps, 1e-10)
        sets.append((kj, h, eps, b0 * rho ** m_star, rng.normal(size=(8, rs.dim))))
    kv_rows = kv if shared_k else np.repeat([s[0] for s in sets], 8, axis=0)
    h_rows = np.repeat([[s[1]] * rs.dim for s in sets], 8, axis=0)
    eps_rows = np.repeat([[s[2]] * rs.n_roots for s in sets], 8, axis=0)
    tol_rows = np.repeat([s[3] for s in sets], 8)
    xhat = np.vstack([s[4] for s in sets])
    return sets, (kv_rows, xhat, h_rows, tol_rows, eps_rows)


@given(st.sampled_from(sorted(CAPPED_SYSTEMS)), st.floats(0.05, 0.95),
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_capped_per_row_parameters_equal_scalar_calls(name, rho_target, seed, shared_k):
    """Rows stacked with their own h, eps, tolerance and strengths (or one
    strength row for all) step as the call on their own scalars does,
    bitwise, by Newton and, on A(2), in closed form."""
    rs, k = CAPPED_SYSTEMS[name]
    sets, (kv, xhat, h, tol, eps) = _stacked_parameter_sets(
        rs, np.asarray(k, dtype=float)[rs.orbit_of], rho_target, seed, shared_k)
    y, iters, res, ok = _newton_batch(rs, kv, xhat, h, tol, eps=eps)
    for j, (kj, hj, ej, tj, xj) in enumerate(sets):
        own = _newton_batch(rs, kj, xj, hj, tj, eps=ej)
        assert [v.tobytes() for v in own] == [
            v[8 * j:8 * j + 8].tobytes() for v in (y, iters, res, ok)]
    a2 = make_type_a(2)
    sets, (kv, xhat, h, _, eps) = _stacked_parameter_sets(
        a2, np.array([1.5]), rho_target, seed, shared_k)
    y = stepping._orthogonal_batch(a2, kv, xhat, h, eps)
    for j, (kj, hj, ej, _, xj) in enumerate(sets):
        own = stepping._orthogonal_batch(a2, kj, xj, hj, ej)
        assert own.tobytes() == y[8 * j:8 * j + 8].tobytes()


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
    xhat = np.array([-10.0])
    rep = solve_truncated_step(D1, [1.0], xhat, 0.5, eps=1.0)
    p = D1.pairings(rep.y)
    resid = rep.y - xhat - 0.5 * repulsion(D1.matrix, np.array([1.0]), p, eps=1.0)
    assert float(np.linalg.norm(resid)) <= 1e-12
    # the capped solution sits outside the chamber, where the uncapped
    # residual is undefined
    assert p.min() <= 0.0


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
