"""Model layer: the repulsion drift and its cap, scale constants, assumption checks."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunklsim import (
    ChamberError,
    ConstantFn,
    DimensionError,
    ParameterError,
    RootSystem,
    SqrtAffineFn,
    TableFn,
    bessel_model,
    dyson_model,
    make_type_a,
    make_type_b,
    sample_chamber_points,
    type_b_model,
)
from dunklsim.coefficients import (ConstantDrift, DiagonalSigma, LinearSigma,
                                   MatrixSigma, ZeroDrift)
from dunklsim.model import (ModelSpec, _noise_lattice, lipschitz_scale, moment_threshold,
                            repulsion, validate_assumptions)
from dunklsim.roots import min_pairing

D1 = RootSystem(dim=1, positive_roots=((1.0,),), orbits=((0,),))


def _drift(m, t, x, eps=None):
    """The engine's drift at x: f, or f_eps when a cap level is given."""
    return repulsion(m.rs.matrix, m.k_at(t), m.rs.pairings(x), eps)


def _capped_inverse(eps, s):
    """1 / max(eps, s), read off the capped drift of a unit d = 1 model."""
    return float(repulsion(D1.matrix, np.ones(1), np.array([[s]]), eps)[0, 0])


# ---------------------------------------------------------------------------
# capped inverse g_eps(s) = 1 / max(eps, s)

def test_capped_inverse_values():
    assert _capped_inverse(0.5, 0.2) == 2.0
    assert _capped_inverse(0.5, 4.0) == 0.25
    assert _capped_inverse(0.5, -7.0) == 2.0
    assert _capped_inverse(1.0, 1.0) == 1.0


@given(st.floats(0.01, 10), st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=200, deadline=None)
def test_capped_inverse_lipschitz_bound(eps, s1, s2):
    g1, g2 = _capped_inverse(eps, s1), _capped_inverse(eps, s2)
    assert abs(g1 - g2) <= abs(s1 - s2) / eps ** 2 + 1e-12


@given(st.floats(0.01, 10), st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=200, deadline=None)
def test_capped_inverse_monotone(eps, s1, s2):
    lo, hi = min(s1, s2), max(s1, s2)
    assert _capped_inverse(eps, lo) >= _capped_inverse(eps, hi)


@given(st.floats(0.01, 10), st.floats(1e-3, 50))
@settings(max_examples=200, deadline=None)
def test_capped_inverse_gap_bound(eps, s):
    gap = 1.0 / s - _capped_inverse(eps, s)
    assert -1e-15 <= gap <= eps / s ** 2 + 1e-12


# ---------------------------------------------------------------------------
# drifts

def test_singular_drift_oracles():
    m1 = bessel_model(k=1.0)
    assert _drift(m1, 0.0, np.array([2.0])) == pytest.approx([0.5])
    m2 = dyson_model(2, k=1.0, xi=(1.0, -1.0))
    f = _drift(m2, 0.0, np.array([1.0, -1.0]))
    assert f == pytest.approx([0.5, -0.5])


def test_singular_drift_batch():
    m = dyson_model(2, k=2.0)
    x = np.array([[1.0, -1.0], [2.0, 0.0]])
    f = _drift(m, 0.0, x)
    assert f.shape == (2, 2)
    assert f[0] == pytest.approx([1.0, -1.0])


def test_truncated_drift_matches_exact_when_uncapped():
    m = dyson_model(3, k=2.5)
    x = np.array([3.0, 0.0, -3.0])
    exact = _drift(m, 0.3, x)
    capped = _drift(m, 0.3, x, eps=1.0)
    assert np.allclose(exact, capped, atol=1e-15)


def test_truncated_drift_cap_active():
    m = bessel_model(k=1.0)
    # pairing 0.1 < eps 0.5 -> weight k/eps = 2
    assert _drift(m, 0.0, np.array([0.1]), eps=0.5) == pytest.approx([2.0])


_interior_pair = st.tuples(st.floats(-10, 10), st.floats(-10, 10),
                           st.floats(-10, 10), st.floats(-10, 10))


@given(_interior_pair, st.floats(0.05, 2.0))
@settings(max_examples=150, deadline=None)
def test_truncated_drift_monotone(pts, eps):
    # one-sided Lipschitz constant 0: <x-y, f(x)-f(y)> <= 0
    m = dyson_model(2, k=3.0)
    x = np.array(pts[:2])
    y = np.array(pts[2:])
    fx = _drift(m, 0.0, x, eps)
    fy = _drift(m, 0.0, y, eps)
    assert float((x - y) @ (fx - fy)) <= 1e-12


@given(_interior_pair, st.floats(0.05, 2.0))
@settings(max_examples=150, deadline=None)
def test_truncated_drift_lipschitz(pts, eps):
    m = dyson_model(2, k=3.0)
    x = np.array(pts[:2])
    y = np.array(pts[2:])
    fx = _drift(m, 0.0, x, eps)
    fy = _drift(m, 0.0, y, eps)
    L = lipschitz_scale(m)
    assert np.linalg.norm(fx - fy) <= L / eps ** 2 * np.linalg.norm(x - y) + 1e-9


@given(_interior_pair, st.floats(0.05, 2.0))
@settings(max_examples=150, deadline=None)
def test_truncated_drift_inner_product_bound(pts, eps):
    # <x, f_eps(x)> <= sum_alpha k_alpha since p * g_eps(p) <= 1
    m = dyson_model(2, k=3.0)
    x = np.array(pts[:2])
    f = _drift(m, 0.0, x, eps)
    assert float(x @ f) <= float(np.sum(m.k_at(0.0))) + 1e-12


def test_exact_drift_gap_bound_sampled():
    # |f_k - f_{k,eps}| <= sum k |alpha| * eps / p^2 at interior points
    m = dyson_model(2, k=2.0)
    rng = np.random.default_rng(3)
    pts = sample_chamber_points(m.rs, 50, rng)
    for eps in (0.01, 0.1, 1.0):
        for x in pts:
            gap = np.linalg.norm(_drift(m, 0.0, x) - _drift(m, 0.0, x, eps))
            p = m.rs.pairings(x)
            bound = float(np.sum(m.k_at(0.0) * np.sqrt(m.rs.norms_sq) * eps / p ** 2))
            assert gap <= bound + 1e-12


# ---------------------------------------------------------------------------
# scale constants

def test_lipschitz_scale_oracles():
    # A(3): 3 roots of squared norm 2, k=1 -> 6
    m = ModelSpec(rs=make_type_a(3), T=1.0, xi=(1.0, 0.0, -1.0),
                  sigma=DiagonalSigma((1.0,)), drift=ZeroDrift(), k=(1.0,))
    assert lipschitz_scale(m) == pytest.approx(6.0)
    # B(2) with k=(1,2): 2*2*1 + 2*1*2 = 8
    mb = type_b_model(2, k_long=1.0, k_short=2.0)
    assert lipschitz_scale(mb) == pytest.approx(8.0)
    # time-dependent k: sup on [0,T] enters
    mt = ModelSpec(rs=D1, T=4.0, xi=(1.0,), sigma=DiagonalSigma((1.0,)),
                   drift=ZeroDrift(), k=(SqrtAffineFn(1.0, 1.0),))
    assert lipschitz_scale(mt) == pytest.approx(3.0)


def test_diffusion_scale_forms():
    m = bessel_model(k=1.0, sigma0=2.0)
    assert m.sigma.bar(0.0) == 2.0
    md = ModelSpec(rs=make_type_a(2), T=1.0, xi=(1.0, -1.0),
                   sigma=MatrixSigma(((2.0, 0.0), (0.0, -3.0))),
                   drift=ZeroDrift(), k=(1.0,))
    assert md.sigma.bar(0.0) == 3.0          # max |diagonal|
    mf = ModelSpec(rs=make_type_a(2), T=1.0, xi=(1.0, -1.0),
                   sigma=MatrixSigma(((1.0, 1.0), (0.0, 1.0))),
                   drift=ZeroDrift(), k=(1.0,))
    assert mf.sigma.bar(0.0) == pytest.approx(math.sqrt(3.0))  # Frobenius



def test_constant_coefficient_arrays_are_built_once_and_read_only():
    # the engine reads them on every step
    for form in (MatrixSigma(((1.0, 0.5, 0.0), (0.0, 1.0, 0.2))), ConstantDrift((0.3, 0.1))):
        assert form.array is form.array
        assert np.array_equal(form.array, np.array(form.values))
        with pytest.raises(ValueError):
            form.array[0] = 1.0


_positive = st.floats(0.1, 10.0)
_strength = st.one_of(
    _positive.map(ConstantFn),
    st.builds(SqrtAffineFn, _positive, st.floats(0.0, 5.0)),
    st.lists(st.tuples(st.floats(-0.5, 1.5), _positive), min_size=2, max_size=6,
             unique_by=lambda node: node[0]).map(lambda nodes: TableFn(*zip(*sorted(nodes)))),
)


@given(_strength, _strength, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
@example(ConstantFn(0.1), TableFn((-2.2250738585e-313, 5e-324), (2.0, 1.0)), [0.0])
@settings(max_examples=200, deadline=None)
def test_k_at_grid_rows_equal_scalar_calls_bitwise(k_long, k_short, times):
    m = ModelSpec(rs=make_type_b(2), T=1.0, xi=(2.0, 1.0), sigma=DiagonalSigma((1.0,)),
                  drift=ZeroDrift(), k=(k_long, k_short))
    grid = m.k_at(np.array(times))
    assert grid.shape == (len(times), m.rs.n_roots)
    for row, t in zip(grid, times):
        single = m.k_at(t)
        assert single.shape == (m.rs.n_roots,)
        assert row.tobytes() == single.tobytes()


def test_moment_threshold_oracles():
    assert moment_threshold(dyson_model(2, k=4.0)) == pytest.approx(7.0)
    assert moment_threshold(dyson_model(2, k=5.0)) == pytest.approx(9.0)
    assert moment_threshold(type_b_model(2, k_long=5.0, k_short=5.0)) == pytest.approx(9.0)
    m0 = ModelSpec(rs=D1, T=1.0, xi=(1.0,), sigma=DiagonalSigma((0.0,)),
                   drift=ZeroDrift(), k=(1.0,))
    assert moment_threshold(m0) == math.inf


@given(st.floats(0.5, 5.0), st.floats(0.2, 3.0), st.floats(0.1, 8.0))
@settings(max_examples=50, deadline=None)
def test_moment_threshold_scaling_invariance(k, sigma, c):
    base = bessel_model(k=k, sigma0=sigma)
    scaled = bessel_model(k=c * k, sigma0=math.sqrt(c) * sigma)
    assert moment_threshold(scaled) == pytest.approx(moment_threshold(base), rel=1e-12)


def _bar_sup(sigma, T):
    """sup over [0, T] of the diffusion size, from the time functions'
    exact extrema (the oracle for the lattice maximum `describe` prints)."""
    if isinstance(sigma, DiagonalSigma):
        return max(max(abs(f.sup_on(T)), abs(f.inf_on(T))) for f in sigma.fns)
    return sigma.bar(0.0)  # MatrixSigma and LinearSigma are constant in t


_signed = st.floats(-5.0, 5.0)
_noise_fn = st.one_of(
    _signed.map(ConstantFn),
    st.builds(SqrtAffineFn, _signed, _signed),
    st.lists(st.tuples(st.floats(-1.0, 3.0), _signed), min_size=2, max_size=6,
             unique_by=lambda node: node[0]).map(lambda nodes: TableFn(*zip(*sorted(nodes)))),
)


def _linear_sigmas(d):
    """LinearSigma forms of dimension d: general (d, r) blocks, or square
    diagonal ones, which are sized by their largest |diagonal entry|."""
    def build(r, diagonal, entries, radius):
        e = np.array(entries).reshape(d + 1, d, r)
        if diagonal:
            e = e * np.eye(d)
        return LinearSigma(base=e[0].tolist(), coeffs=e[1:].tolist(), radius=radius)
    shape = st.one_of(st.tuples(st.integers(1, 3), st.just(False)),
                      st.tuples(st.just(d), st.booleans()))
    return shape.flatmap(lambda rd: st.builds(
        build, st.just(rd[0]), st.just(rd[1]),
        st.lists(_signed, min_size=(d + 1) * d * rd[0], max_size=(d + 1) * d * rd[0]),
        st.floats(0.1, 5.0)))


@st.composite
def _noise_models(draw):
    rs, xi = draw(st.sampled_from([(D1, (1.0,)), (make_type_a(2), (1.0, -1.0)),
                                   (make_type_a(3), (1.0, 0.0, -1.0))]))
    d = rs.dim
    sigma = draw(st.one_of(
        _noise_fn.map(lambda f: DiagonalSigma((f,))),
        st.lists(_noise_fn, min_size=d, max_size=d).map(lambda fs: DiagonalSigma(tuple(fs))),
        st.integers(1, 3).flatmap(lambda r: st.lists(
            st.lists(_signed, min_size=r, max_size=r), min_size=d, max_size=d)).map(
            lambda rows: MatrixSigma(tuple(map(tuple, rows)))),
        _linear_sigmas(d)))
    return ModelSpec(rs=rs, T=draw(st.floats(0.1, 2.0)), xi=xi, sigma=sigma,
                     drift=ZeroDrift(), k=(1.0,))


@given(_noise_models())
@settings(max_examples=300, deadline=None)
def test_lattice_max_is_exact_diffusion_sup(m):
    assert float(np.max(_noise_lattice(m)[1])) == _bar_sup(m.sigma, m.T)


def _corners(d, radius):
    """The 2^d vertices of the box |x_l| <= radius."""
    return radius * (1.0 - 2.0 * ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1))


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    _linear_sigmas(d), st.lists(st.lists(st.floats(-50.0, 50.0), min_size=d, max_size=d),
                                min_size=1, max_size=32))))
@settings(max_examples=300, deadline=None)
def test_linear_sigma_bar_is_the_size_sup(case):
    # points reach 50 radii out: sigma is constant outside the box, and the
    # size is convex inside it, so no point exceeds the largest vertex (up
    # to the rounding of the matrix entries)
    sigma, units = case
    bar = sigma.bar(0.0)
    sizes = sigma.size(np.array(units) * sigma.radius)
    assert np.all(sizes <= bar * (1.0 + 1e-12))
    corners = _corners(len(units[0]), sigma.radius)
    top = corners[np.argmax(sigma.size(corners))]
    assert sigma.size(top[None])[0] == bar


@given(st.integers(1, 4).flatmap(lambda d: _linear_sigmas(d)))
@settings(max_examples=100, deadline=None)
def test_linear_sigma_without_coefficients_is_its_base(sigma):
    flat = LinearSigma(sigma.base, np.zeros_like(sigma.coeff_array).tolist(), sigma.radius)
    assert flat.bar(0.0) == MatrixSigma(sigma.base).bar(0.0)
    assert flat.lipschitz(1.0) == 0.0


def test_moment_threshold_uses_computed_bound():
    # sigma = 0.5 I + 0.3 sum_l clip(x_l, -R, R) I is diagonal: its size is
    # |0.5 + 0.3 (z_0 + z_1)|, largest at z = (R, R)
    eye = np.eye(2)
    for radius, bar, passes in ((2.0, 1.7, True), (10.0, 6.5, False)):
        sig = LinearSigma(base=(0.5 * eye).tolist(), coeffs=[(0.3 * eye).tolist()] * 2,
                          radius=radius)
        m = dyson_model(2, k=4.0, sigma=sig)
        assert sig.bar(0.0) == pytest.approx(bar, rel=1e-15)
        assert moment_threshold(m) == pytest.approx(2.0 * 4.0 / bar ** 2 - 1.0)
        assert validate_assumptions(m).strength_dominates_noise.ok == passes
    # a general form is sized by its Frobenius norm: |[[1, +-2], [0, 1]]|_F = sqrt(6)
    sig = LinearSigma(base=eye.tolist(), coeffs=[[[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)).tolist()],
                      radius=2.0)
    assert sig.bar(0.0) == pytest.approx(math.sqrt(6.0))
    assert sig.lipschitz(1.0) == 1.0
    assert moment_threshold(dyson_model(2, k=4.0, sigma=sig)) == pytest.approx(8.0 / 6.0 - 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["base", "coeffs", "radius"])
def test_linear_sigma_rejects_non_finite_entries(where, bad):
    # a NaN pairing passes every `<= 0` chamber check, so a non-finite
    # coefficient would run to NaN states without any error; the radius
    # must also be positive for the box to bound the state
    base = [[1.0, 0.0], [0.0, 1.0]]
    coeffs = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    radii = (bad, 0.0, -1.0) if where == "radius" else (2.0,)
    if where != "radius":
        (base[1] if where == "base" else coeffs[1][0])[1] = bad
    for radius in radii:
        with pytest.raises(ParameterError):
            LinearSigma(base=base, coeffs=coeffs, radius=radius)


def test_linear_sigma_rejects_dimension_above_16():
    # the sup is a max over 2^d box vertices
    with pytest.raises(ParameterError):
        LinearSigma(base=np.zeros((17, 1)).tolist(), coeffs=np.zeros((17, 17, 1)).tolist(),
                    radius=1.0)


# ---------------------------------------------------------------------------
# ModelSpec validation

def test_model_rejects_start_outside_chamber():
    with pytest.raises(ChamberError):
        dyson_model(2, k=1.0, xi=(-1.0, 1.0))
    with pytest.raises(ChamberError):
        type_b_model(2, k_long=1.0, k_short=1.0, xi=(1.0, 2.0))
    with pytest.raises(ChamberError):
        bessel_model(k=1.0, xi=-1.0)


def test_model_rejects_bad_horizon():
    with pytest.raises(ParameterError):
        ModelSpec(rs=D1, T=0.0, xi=(1.0,), sigma=DiagonalSigma((1.0,)),
                  drift=ZeroDrift(), k=(1.0,))


def test_model_rejects_wrong_k_count():
    with pytest.raises(DimensionError):
        ModelSpec(rs=make_type_b(2), T=1.0, xi=(2.0, 1.0),
                  sigma=DiagonalSigma((1.0,)), drift=ZeroDrift(), k=(1.0,))


def test_model_rejects_nonpositive_k():
    with pytest.raises(ParameterError):
        bessel_model(k=0.0)
    with pytest.raises(ParameterError):
        ModelSpec(rs=D1, T=4.0, xi=(1.0,), sigma=DiagonalSigma((1.0,)),
                  drift=ZeroDrift(), k=(SqrtAffineFn(1.0, -1.0),))  # hits 0 at t=1


def test_model_rejects_sigma_shape_mismatch():
    with pytest.raises(DimensionError):
        ModelSpec(rs=make_type_a(2), T=1.0, xi=(1.0, -1.0),
                  sigma=DiagonalSigma((1.0, 1.0, 1.0)), drift=ZeroDrift(), k=(1.0,))


def test_model_rejects_drift_shape_mismatch():
    for values in ((1.0, 0.0, 0.0), ()):
        with pytest.raises(DimensionError):
            ModelSpec(rs=make_type_a(2), T=1.0, xi=(1.0, -1.0), sigma=DiagonalSigma((1.0,)),
                      drift=ConstantDrift(values), k=(1.0,))


# ---------------------------------------------------------------------------
# assumption validation

def test_assumptions_pass_for_presets():
    assert validate_assumptions(bessel_model(k=1.0)).all_ok()          # sigma^2 = 1 <= 2
    assert validate_assumptions(dyson_model(3, k=4.0)).all_ok()
    assert validate_assumptions(type_b_model(2, k_long=5.0, k_short=5.0)).all_ok()


def test_assumptions_fail_when_noise_dominates():
    rep = validate_assumptions(bessel_model(k=0.4, sigma0=1.0))  # 1 > 0.8
    assert not rep.strength_dominates_noise.ok
    assert not rep.all_ok()


def test_assumptions_constant_drift_alignment():
    good = ModelSpec(rs=make_type_a(2), T=1.0, xi=(1.0, -1.0),
                     sigma=DiagonalSigma((1.0,)), drift=ConstantDrift((1.0, -1.0)),
                     k=(4.0,))
    assert validate_assumptions(good).drift_alignment.ok
    bad = ModelSpec(rs=make_type_a(2), T=1.0, xi=(1.0, -1.0),
                    sigma=DiagonalSigma((1.0,)), drift=ConstantDrift((-1.0, 1.0)),
                    k=(4.0,))
    rep = validate_assumptions(bad)
    assert not rep.drift_alignment.ok


def test_assumptions_linear_drift_bound():
    m = bessel_model(k=1.0, lam=-0.7)
    rep = validate_assumptions(m)
    assert rep.drift_alignment.ok
    assert rep.alignment_bound == pytest.approx(0.7)


def test_sample_chamber_points_respect_wall_range():
    rs = make_type_b(3)
    rng = np.random.default_rng(11)
    pts = sample_chamber_points(rs, 200, rng, wall_lo=1e-3, wall_hi=10.0)
    dists = rs.pairings(pts).min(axis=1)
    assert np.all(dists > 0)
    assert dists.min() >= 1e-3 * (1 - 1e-9)
    assert dists.max() <= 10.0 * (1 + 1e-9)


def test_min_pairing_batch():
    rs = make_type_a(2)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    mp = min_pairing(rs, x)
    assert mp.shape == (2,)
    assert mp[0] == 1.0 and mp[1] == -1.0
