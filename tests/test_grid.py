"""Transverse grid and field container contracts."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ghostsim as gs
from ghostsim import GridMismatchError, InvalidArgumentError


def test_make_grid_basic():
    g = gs.make_grid(-5e-3, 5e-3, 1001)
    assert g.n_points == 1001
    assert g.dx == pytest.approx(10e-6, rel=1e-12)
    assert g.span == pytest.approx(10e-3, rel=1e-12)
    assert g.x.shape == (1001,)
    assert g.x[0] == -5e-3
    assert g.x[-1] == pytest.approx(5e-3, rel=1e-15)


def test_grid_points_are_affine():
    g = gs.make_grid(0.0, 1.0, 11)
    assert np.allclose(g.x, np.arange(11) * 0.1, rtol=0, atol=1e-15)
    steps = np.diff(g.x)
    assert steps.max() - steps.min() < 3e-16  # a couple of ulp, no drift


def test_grid_two_points():
    g = gs.make_grid(0.0, 1.0, 2)
    assert g.dx == 1.0
    assert list(g.x) == [0.0, 1.0]


@pytest.mark.parametrize(
    "args",
    [(-1.0, 1.0, 1), (1.0, 1.0, 5), (1.0, -1.0, 5)],
)
def test_make_grid_rejects_bad_input(args):
    with pytest.raises(InvalidArgumentError):
        gs.make_grid(*args)


@given(
    lo=st.floats(-1e-2, 1e-2),
    width=st.floats(1e-6, 1e-2),
    n=st.integers(2, 4096),
)
def test_grid_properties_hold(lo, width, n):
    g = gs.make_grid(lo, lo + width, n)
    assert g.n_points == n
    assert g.dx > 0
    assert np.all(np.diff(g.x) > 0)
    assert g.dx == pytest.approx(width / (n - 1), rel=1e-12)


def test_index_range_inclusive_window():
    g = gs.make_grid(0.0, 1.0, 11)
    i0, i1 = g.index_range(0.25, 0.65)
    assert (i0, i1) == (3, 7)
    assert np.all(g.x[i0:i1] >= 0.25) and np.all(g.x[i0:i1] <= 0.65)


def test_index_range_clamps_to_grid():
    g = gs.make_grid(0.0, 1.0, 11)
    assert g.index_range(-5.0, 5.0) == (0, 11)


def test_field_total_power_riemann_sum():
    g = gs.make_grid(-1.0, 1.0, 21)
    f = gs.ComplexField(g, np.ones(21, complex))
    # n * dx * |1|^2
    assert f.total_power == pytest.approx(21 * g.dx, rel=1e-14)
    f2 = gs.ComplexField(g, np.full(21, 1 + 1j))
    assert f2.total_power == pytest.approx(2 * 21 * g.dx, rel=1e-14)


def test_field_rejects_mismatched_amplitude():
    g = gs.make_grid(-1.0, 1.0, 21)
    with pytest.raises(GridMismatchError):
        gs.ComplexField(g, np.ones(20, complex))


def test_last_sample_is_x_max():
    # i * dx rounds one ulp past x_max for thousands of point counts; a
    # top-hat source on [-a, a] would then read 0 at its last node
    profile = gs.UniformProfile(6e-3)
    for n in range(65, 6001):
        x = gs.make_grid(-6e-3, 6e-3, n).x
        assert x[-1] == 6e-3
        assert profile.intensity(x[[0, -1]]).tolist() == [1.0, 1.0]
