"""Root systems: construction, axioms, chamber predicates, pairing identity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsim import (
    ChamberError,
    DimensionError,
    ParameterError,
    RootSystem,
    direct_sum,
    make_type_a,
    make_type_b,
    pairing_identity_residual,
    validate_axioms,
)
from dunklsim.roots import Root, min_pairing


# ---------------------------------------------------------------------------
# construction

def test_root_rejects_zero_vector():
    with pytest.raises(ParameterError):
        Root((0.0, 0.0))


def test_root_rejects_nonfinite():
    with pytest.raises(ParameterError):
        Root((1.0, math.nan))


def test_type_a_counts():
    for d in range(2, 7):
        rs = make_type_a(d)
        assert rs.dim == d
        assert rs.n_roots == d * (d - 1) // 2
        assert rs.n_orbits == 1


def test_type_a_rejects_d1():
    with pytest.raises(DimensionError):
        make_type_a(1)


def test_type_a_chamber_is_ordering():
    rs = make_type_a(3)
    assert min_pairing(rs, np.array([3.0, 2.0, 1.0])) > 0
    assert min_pairing(rs, np.array([1.0, 2.0, 3.0])) < 0
    assert min_pairing(rs, np.array([2.0, 2.0, 1.0])) == 0.0


def test_type_b_counts_and_orbits():
    rs = make_type_b(2)
    assert rs.dim == 2
    assert rs.n_roots == 4
    assert rs.n_orbits == 2
    # long orbit: e_i -+ e_j; short orbit: e_i
    lengths = rs.norms_sq[rs.orbit_of == 0]
    assert np.allclose(lengths, 2.0)
    shorts = rs.norms_sq[rs.orbit_of == 1]
    assert np.allclose(shorts, 1.0)


def test_type_b_chamber_is_ordered_positive():
    rs = make_type_b(2)
    assert min_pairing(rs, np.array([2.0, 1.0])) > 0
    assert min_pairing(rs, np.array([2.0, -1.0])) < 0
    assert min_pairing(rs, np.array([1.0, 2.0])) < 0


def test_direct_sum_block_structure():
    rs = direct_sum(make_type_a(2), make_type_b(2))
    assert rs.dim == 4
    assert rs.n_roots == 1 + 4
    assert rs.n_orbits == 1 + 2
    assert validate_axioms(rs).passed
    # chamber factorizes
    assert min_pairing(rs, np.array([1.0, -1.0, 2.0, 1.0])) > 0
    assert min_pairing(rs, np.array([-1.0, 1.0, 2.0, 1.0])) < 0


def test_orbits_must_partition():
    with pytest.raises(ParameterError):
        RootSystem(dim=2, positive_roots=((1.0, 0.0), (0.0, 1.0)), orbits=((0,),))
    with pytest.raises(ParameterError):
        RootSystem(dim=2, positive_roots=((1.0, 0.0), (0.0, 1.0)),
                   orbits=((0,), (0, 1)))


def test_pairings_batch_shapes():
    rs = make_type_a(3)
    x = np.random.default_rng(0).normal(size=(5, 3))
    p = rs.pairings(x)
    assert p.shape == (5, rs.n_roots)
    single = rs.pairings(x[0])
    assert np.array_equal(single, p[0])
    with pytest.raises(DimensionError):
        rs.pairings(np.zeros(4))


def test_interior_direction_is_interior():
    for rs in (make_type_a(2), make_type_a(4), make_type_b(3),
               direct_sum(make_type_a(2), make_type_b(2))):
        assert min_pairing(rs, rs.interior_direction) > 0


# ---------------------------------------------------------------------------
# axioms

def test_axioms_pass_for_presets():
    for rs in (make_type_a(2), make_type_a(5), make_type_b(2), make_type_b(4)):
        rep = validate_axioms(rs)
        assert rep.passed
        assert rep.worst_reflection_residual <= 1e-9


def test_axiom_r1_fails_on_parallel_pair():
    rs = RootSystem(dim=2, positive_roots=((1.0, 0.0), (2.0, 0.0)),
                    orbits=((0, 1),))
    rep = validate_axioms(rs)
    assert not rep.no_parallel_pass
    assert not rep.passed
    assert rep.parallel_violations


def test_axiom_r2_fails_on_non_closed_set():
    # reflecting (1,1) through (1,0) gives (-1,1), which is not in +-R
    rs = RootSystem(dim=2, positive_roots=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
                    orbits=((0, 1, 2),))
    rep = validate_axioms(rs)
    assert rep.no_parallel_pass
    assert not rep.reflection_pass
    assert not rep.passed


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=30, deadline=None)
def test_reflections_preserve_norms(d, data):
    rs = make_type_a(d)
    mat = rs.matrix
    i = data.draw(st.integers(min_value=0, max_value=rs.n_roots - 1))
    j = data.draw(st.integers(min_value=0, max_value=rs.n_roots - 1))
    a, b = mat[i], mat[j]
    refl = b - 2.0 * (a @ b) / (a @ a) * a
    assert math.isclose(refl @ refl, b @ b, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# weighted pairing identity: the reason these systems work at all

def _random_interior(rs, rng, count):
    u = rng.uniform(0.2, 1.0, size=(count, rs.n_roots))
    z = u @ rs.matrix
    eta = rs.interior_direction
    mp = rs.pairings(z).min(axis=1)
    shift = np.maximum(0.0, (0.05 - mp) / min_pairing(rs, eta))
    return z + shift[:, None] * eta[None, :]


@pytest.mark.parametrize("maker,arg", [(make_type_a, 2), (make_type_a, 4),
                                       (make_type_b, 2), (make_type_b, 3)])
def test_pairing_identity_small_residual(maker, arg):
    rs = maker(arg)
    rng = np.random.default_rng(42)
    k = rng.uniform(0.1, 10.0, size=rs.n_orbits)
    for x in _random_interior(rs, rng, 25):
        assert pairing_identity_residual(rs, k, x) <= 1e-10


def test_pairing_identity_requires_interior_point():
    rs = make_type_a(2)
    with pytest.raises(ChamberError):
        pairing_identity_residual(rs, np.array([1.0]), np.array([1.0, 2.0]))


def test_pairing_identity_fails_for_non_root_geometry():
    # a set violating reflection closure does not satisfy the identity
    rs = RootSystem(dim=2, positive_roots=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
                    orbits=((0, 1, 2),))
    r = pairing_identity_residual(rs, np.array([1.0]), np.array([2.0, 1.0]))
    assert r > 1e-3
