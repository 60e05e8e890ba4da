"""Time-dependent coefficient functions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklsim import ConstantFn, ParameterError, SqrtAffineFn, TableFn
from dunklsim.timefn import as_timefn, time_lattice


def test_constant_basics():
    f = ConstantFn(3.5)
    assert f(0.0) == 3.5
    assert f(0.7) == 3.5
    assert f.sup_on(2.0) == 3.5
    assert f.inf_on(2.0) == 3.5
    assert f.is_constant
    out = f(np.linspace(0, 1, 5))
    assert out.shape == (5,)
    assert np.all(out == 3.5)


def test_as_timefn_coerces_numbers():
    f = as_timefn(2)
    assert isinstance(f, ConstantFn)
    assert f(0.3) == 2.0
    g = as_timefn(f)
    assert g is f


def test_sqrt_affine_values_and_extrema():
    f = SqrtAffineFn(1.0, 2.0)
    assert f(0.0) == 1.0
    assert f(0.25) == 2.0
    assert f.sup_on(4.0) == 1.0 + 2.0 * 2.0
    assert f.inf_on(4.0) == 1.0
    assert not f.is_constant
    # decreasing branch
    g = SqrtAffineFn(5.0, -1.0)
    assert g.sup_on(4.0) == 5.0
    assert g.inf_on(4.0) == 3.0


@given(st.floats(-3, 3), st.floats(-2, 2), st.floats(0.01, 5), st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_sqrt_affine_extrema_bracket_values(a, b, T, frac):
    f = SqrtAffineFn(a, b)
    t = frac * T
    assert f.inf_on(T) - 1e-12 <= f(t) <= f.sup_on(T) + 1e-12


def test_table_interpolation_and_extension():
    f = TableFn((0.0, 1.0, 2.0), (1.0, 3.0, 2.0))
    assert f(0.5) == 2.0
    assert f(1.5) == 2.5
    assert f(-1.0) == 1.0   # constant extension
    assert f(5.0) == 2.0
    assert f.sup_on(2.0) == 3.0
    assert f.inf_on(2.0) == 1.0
    # horizon shorter than the table: extrema only over covered nodes
    assert f.sup_on(0.5) == 2.0


def test_table_requires_increasing_times():
    with pytest.raises(ParameterError):
        TableFn((0.0, 0.0, 1.0), (1.0, 2.0, 3.0))
    with pytest.raises(ParameterError):
        TableFn((1.0, 0.0), (1.0, 2.0))


def test_table_finite_between_close_nodes():
    # the slope (v1 - v0) / (t1 - t0) overflows across subnormal spacings
    assert TableFn((0.0, 1e-310), (2.0, 1.0))(5e-311) == pytest.approx(1.5)
    f = TableFn((-2.2250738585e-313, 5e-324), (2.0, 1.0))
    assert 1.0 <= f(0.0) <= 2.0
    assert f.inf_on(1.0) == 1.0
    for nodes in (((0.0, 1.0), (-1e308, 1e308)), ((-1e308, 1e308), (0.0, 1.0))):
        with pytest.raises(ParameterError):           # a step between nodes overflows
            TableFn(*nodes)


def test_table_length_mismatch():
    with pytest.raises(ParameterError):
        TableFn((0.0, 1.0), (1.0,))


def test_time_lattice_includes_breakpoints():
    f = TableFn((0.0, 0.3, 0.9), (1.0, 2.0, 1.0))
    ts = time_lattice(1.0, (f,), points=16)
    assert 0.3 in ts
    assert 0.9 in ts
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.all(np.diff(ts) > 0)
