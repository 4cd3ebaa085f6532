import numpy as np
import pytest

from dynmr.volume import (
    check_same_shape,
    from_channels,
    real_inner,
    to_channels,
)


def rand_volume(rng, shape=(4, 4, 2)):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_to_channels_single_voxel():
    v = np.array([[[3.0 + 4.0j]]])
    c = to_channels(v)
    assert c.shape == (2, 1, 1, 1)
    assert c[0, 0, 0, 0] == 3.0
    assert c[1, 0, 0, 0] == 4.0


def test_to_channels_zero():
    c = to_channels(np.zeros((3, 3, 2), dtype=complex))
    assert c.dtype == np.float64
    assert not c.any()


def test_from_channels_single_voxel():
    c = np.array([[[[1.0]]], [[[-2.0]]]])
    v = from_channels(c)
    assert v[0, 0, 0] == 1.0 - 2.0j


def test_from_channels_rejects_three_channels():
    with pytest.raises(ValueError):
        from_channels(np.zeros((3, 2, 2, 2)))


def test_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    v = rand_volume(rng)
    back = from_channels(to_channels(v))
    assert np.array_equal(back, v)
    c = to_channels(v)
    assert np.array_equal(to_channels(from_channels(c)), c)


def test_shape_mismatch_raises():
    a = np.zeros((2, 2, 2), dtype=complex)
    b = np.zeros((2, 2, 3), dtype=complex)
    with pytest.raises(ValueError):
        check_same_shape(a, b)
    with pytest.raises(ValueError):
        real_inner(a, b)


def test_real_inner_is_the_gradient_pairing():
    # d/dt Re<u, v + t*w> at t=0 must equal real_inner(u, w) whether the
    # perturbation hits the real or the imaginary channel
    rng = np.random.default_rng(4)
    u, w = rand_volume(rng), rand_volume(rng)
    got = real_inner(u, w)
    want = float(np.sum(u.real * w.real + u.imag * w.imag))
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))

