import numpy as np
import pytest

from dynmr.encoding import (
    Encoder,
    add_noise,
    fft2_frames,
    make_pseudo_radial_mask,
    make_vds_mask,
)
from dynmr.volume import fro_norm
from oracles import make_pseudo_radial_mask_loop


def rand_volume(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_mask(rng, shape):
    # random Bernoulli mask with the DC sample forced on so every frame
    # carries at least one measurement
    m = (rng.uniform(size=shape) < 0.4).astype(np.uint8)
    m[shape[0] // 2, shape[1] // 2, :] = 1
    return m


# ---------------------------------------------------------------- frame DFT


def test_constant_frame_concentrates_at_dc():
    n = 8
    v = np.ones((n, n, 1), dtype=complex)
    k = fft2_frames(v, "forward")
    dc = k[n // 2, n // 2, 0]
    assert abs(dc - n) < 1e-12
    off = k.copy()
    off[n // 2, n // 2, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-12


def test_fft_unitary_round_trip():
    rng = np.random.default_rng(0)
    v = rand_volume(rng, (6, 10, 3))
    back = fft2_frames(fft2_frames(v, "forward"), "inverse")
    assert np.max(np.abs(back - v)) < 1e-12


def test_fft_preserves_energy():
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rand_volume(rng, (8, 8, 2))
        k = fft2_frames(v, "forward")
        assert abs(fro_norm(k) - fro_norm(v)) < 1e-12 * fro_norm(v)


def test_fft_rejects_unknown_direction():
    with pytest.raises(ValueError):
        fft2_frames(np.zeros((2, 2, 1), dtype=complex), "sideways")


# ------------------------------------------------------------------ encoder


def test_encoder_validates_mask():
    with pytest.raises(ValueError):
        Encoder(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        Encoder(2 * np.ones((4, 4, 2), dtype=np.uint8))
    empty_frame = np.ones((4, 4, 2), dtype=np.uint8)
    empty_frame[:, :, 1] = 0
    with pytest.raises(ValueError):
        Encoder(empty_frame)


def test_forward_zeroes_unsampled_entries():
    rng = np.random.default_rng(2)
    shape = (8, 8, 3)
    mask = rand_mask(rng, shape)
    enc = Encoder(mask)
    b = enc.forward(rand_volume(rng, shape))
    assert np.all(b[mask == 0] == 0)


def test_adjoint_dot_test_hundred_trials():
    rng = np.random.default_rng(3)
    shape = (8, 8, 4)
    for _ in range(100):
        enc = Encoder(rand_mask(rng, shape))
        x = rand_volume(rng, shape)
        y = rand_volume(rng, shape)
        lhs = np.vdot(enc.forward(x), y)
        rhs = np.vdot(x, enc.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_fully_sampled_encoder_is_unitary():
    rng = np.random.default_rng(4)
    shape = (8, 8, 2)
    enc = Encoder(np.ones(shape, dtype=np.uint8))
    x = rand_volume(rng, shape)
    assert np.max(np.abs(enc.adjoint(enc.forward(x)) - x)) < 1e-12


@pytest.mark.parametrize("shape", [(8, 8, 4), (33, 21, 5)])
def test_zero_data_step_is_self_adjoint(shape):
    # on zero data the step is J = I - c P, the Jacobian the network backward
    # pulls gradients through; odd sides put the k-space centre off the
    # half-way point, where the centring shifts the step leaves out do not
    # trivially cancel
    rng = np.random.default_rng(41)
    for c in (0.3, 0.9):
        enc = Encoder(rand_mask(rng, shape))
        u = rand_volume(rng, shape)
        v = rand_volume(rng, shape)
        lhs = np.vdot(u, enc.data_consistency(v.copy(), 0.0, c))
        rhs = np.vdot(enc.data_consistency(u.copy(), 0.0, c), v)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("shape", [(8, 8, 4), (17, 12, 6), (33, 21, 5), (37, 29, 6)])
def test_data_consistency_is_the_image_space_step(shape):
    # F^-1[Y + c M'(D - Y)] with D = samples(A^H b) is y + c (A^H b - P y),
    # P = A^H A, and on zero data y - c P y; odd sides are where a centring
    # mix-up between D and M' would show
    rng = np.random.default_rng(43)
    masks = [
        make_pseudo_radial_mask(shape, 5, seed=1),
        make_vds_mask(shape, 2.5, center_lines=2, seed=2),
    ]
    for mask in masks:
        enc = Encoder(mask)
        atb = enc.adjoint(enc.forward(rand_volume(rng, shape)))
        d = enc.samples(atb)
        for mu in (0.05, 0.7, 3.0):
            y = rand_volume(rng, shape)
            c = 1.0 / (1.0 + mu)
            py = enc.adjoint(enc.forward(y))
            for data, want in ((d, y + c * (atb - py)), (0.0, y - c * py)):
                got = enc.data_consistency(y.copy(), data, c)
                assert fro_norm(got - want) <= 1e-12 * fro_norm(want)


def test_forward_adjoint_forward_is_projection():
    # A A^H is the projector onto the sampled set, so applying the forward
    # model to a zero-filled reconstruction returns the data unchanged
    rng = np.random.default_rng(5)
    shape = (8, 8, 3)
    enc = Encoder(rand_mask(rng, shape))
    b = enc.forward(rand_volume(rng, shape))
    again = enc.forward(enc.adjoint(b))
    assert np.max(np.abs(again - b)) < 1e-12


# -------------------------------------------------------------- radial mask


def test_radial_mask_basics():
    shape = (64, 64, 8)
    mask = make_pseudo_radial_mask(shape, 16, seed=0)
    assert mask.shape == shape
    assert mask.dtype == np.uint8
    assert set(np.unique(mask)) <= {0, 1}
    assert np.all(mask[32, 32, :] == 1)


def test_radial_mask_deterministic():
    a = make_pseudo_radial_mask((32, 32, 4), 8, seed=7)
    b = make_pseudo_radial_mask((32, 32, 4), 8, seed=7)
    c = make_pseudo_radial_mask((32, 32, 4), 8, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_radial_frames_differ():
    mask = make_pseudo_radial_mask((64, 64, 4), 16, seed=0)
    assert not np.array_equal(mask[:, :, 0], mask[:, :, 1])


def test_radial_point_symmetry():
    h = w = 33
    cy, cx = h // 2, w // 2
    mask = make_pseudo_radial_mask((h, w, 3), 12, seed=3)
    for f in range(3):
        frame = mask[:, :, f]
        flipped = frame[::-1, ::-1]
        # odd grid: mirroring about the center maps the grid onto itself
        assert np.array_equal(frame, flipped)
    # even grid: check only pairs whose mirror stays in bounds
    mask = make_pseudo_radial_mask((32, 32, 2), 10, seed=1)
    cy = cx = 16
    for f in range(2):
        frame = mask[:, :, f]
        ys, xs = np.nonzero(frame)
        my, mx = 2 * cy - ys, 2 * cx - xs
        keep = (my >= 0) & (my < 32) & (mx >= 0) & (mx < 32)
        assert np.all(frame[my[keep], mx[keep]] == 1)


def test_radial_saturates_to_full_sampling():
    shape = (16, 16, 2)
    mask = make_pseudo_radial_mask(shape, 400, seed=0)
    assert np.all(mask == 1)


@pytest.mark.parametrize(
    "shape",
    [(32, 32, 8), (64, 64, 16), (17, 12, 6), (16, 16, 4), (33, 47, 5), (1, 1, 1), (8, 8, 3)],
)
def test_radial_mask_is_byte_equal_to_the_spoke_loop(shape):
    for n_spokes in (1, 4, 5, 8, 16):
        for seed in range(6):
            got = make_pseudo_radial_mask(shape, n_spokes, seed=seed)
            want = make_pseudo_radial_mask_loop(shape, n_spokes, seed=seed)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (shape, n_spokes, seed)


def test_radial_sixteen_spokes_fraction():
    # regression pin for the standard desk-scale configuration
    mask = make_pseudo_radial_mask((128, 128, 1), 16, seed=0)
    fraction = mask.mean()
    assert 0.05 < fraction < 0.25


# ----------------------------------------------------------------- vds mask


def test_vds_mask_line_counts_exact():
    import math

    shape = (24, 30, 5)
    for accel in (2.0, 3.0, 4.5):
        mask = make_vds_mask(shape, accel, center_lines=4, seed=2)
        target = math.ceil(30 / accel)
        for f in range(5):
            frame = mask[:, :, f]
            # full lines: each column is all-on or all-off
            cols = frame.sum(axis=0)
            assert set(np.unique(cols)) <= {0, 24}
            assert int((cols == 24).sum()) == target


def test_vds_center_lines_always_on():
    mask = make_vds_mask((16, 32, 3), 4.0, center_lines=4, seed=0)
    start = 16 - 2
    assert np.all(mask[:, start : start + 4, :] == 1)


def test_vds_acceleration_one_gives_full_mask():
    mask = make_vds_mask((8, 16, 2), 1.0, center_lines=4, seed=5)
    assert np.all(mask == 1)


def test_vds_deterministic_and_frames_differ():
    a = make_vds_mask((8, 64, 4), 4.0, seed=11)
    b = make_vds_mask((8, 64, 4), 4.0, seed=11)
    assert np.array_equal(a, b)
    frames = [a[:, :, f].tobytes() for f in range(4)]
    assert len(set(frames)) > 1


def test_vds_validation_errors():
    with pytest.raises(ValueError):
        make_vds_mask((8, 16, 2), 0.5)
    with pytest.raises(ValueError, match="acceleration must be >= 1, got nan"):
        make_vds_mask((8, 16, 2), float("nan"))
    with pytest.raises(ValueError):
        make_vds_mask((8, 16, 2), 2.0, center_lines=16)
    with pytest.raises(ValueError):
        make_vds_mask((8, 16, 2), 16.0, center_lines=4)
    # a negative count would leave more lines on than the acceleration allows
    with pytest.raises(ValueError, match="center_lines"):
        make_vds_mask((8, 8, 2), 4.0, center_lines=-3)
    # zero center lines is allowed: every line of a frame is drawn
    mask = make_vds_mask((8, 8, 2), 4.0, center_lines=0, seed=1)
    assert (mask[0].sum(axis=0) == 2).all()


# -------------------------------------------------------------------- noise


def test_noise_statistics():
    shape = (320, 320, 1)
    sigma = 0.05
    b = np.zeros(shape, dtype=complex)
    mask = np.ones(shape, dtype=np.uint8)
    noisy = add_noise(b, sigma, seed=0, mask=mask)
    n = noisy.size
    assert n >= 100_000
    assert abs(np.std(noisy.real) - sigma) < 0.05 * sigma
    assert abs(np.std(noisy.imag) - sigma) < 0.05 * sigma


def test_noise_respects_support():
    rng = np.random.default_rng(6)
    shape = (16, 16, 2)
    mask = rand_mask(rng, shape)
    enc = Encoder(mask)
    b = enc.forward(rand_volume(rng, shape))
    noisy = add_noise(b, 0.1, seed=1, mask=mask)
    assert np.all(noisy[mask == 0] == 0)
    assert not np.array_equal(noisy, b)


def test_noise_sigma_zero_copies():
    b = np.ones((4, 4, 1), dtype=complex)
    out = add_noise(b, 0.0, np.ones(b.shape, dtype=np.uint8))
    assert np.array_equal(out, b)
    out[0, 0, 0] = 5.0
    assert b[0, 0, 0] == 1.0


def test_noise_deterministic_by_seed():
    b = np.ones((8, 8, 1), dtype=complex)
    m = np.ones((8, 8, 1), dtype=np.uint8)
    a = add_noise(b, 0.2, seed=3, mask=m)
    b2 = add_noise(b, 0.2, seed=3, mask=m)
    c = add_noise(b, 0.2, seed=4, mask=m)
    assert np.array_equal(a, b2)
    assert not np.array_equal(a, c)


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        add_noise(np.ones((2, 2, 1), dtype=complex), -0.1, np.ones((2, 2, 1)))
