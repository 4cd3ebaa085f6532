import math

import numpy as np
import pytest

from dynmr.encoding import add_noise
from dynmr.metrics import SSIM_K1, SSIM_K2, SSIM_WINDOW, psnr, ssim
from dynmr.phantom import PhantomSpec, generate_phantom


def brute_psnr(x_hat, x_gt):
    peak = np.max(np.abs(x_gt))
    err = np.abs(x_hat - x_gt) ** 2
    return 10.0 * math.log10(peak**2 / err.mean())


def brute_ssim(x_hat, x_gt):
    """Window-by-window reference implementation with explicit loops."""
    h, w, t = x_gt.shape
    peak = np.max(np.abs(x_gt))
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    k = SSIM_WINDOW
    vals = []
    for f in range(t):
        a = np.abs(x_hat[:, :, f])
        b = np.abs(x_gt[:, :, f])
        for i in range(h - k + 1):
            for j in range(w - k + 1):
                wa = a[i : i + k, j : j + k].ravel()
                wb = b[i : i + k, j : j + k].ravel()
                mu_a, mu_b = wa.mean(), wb.mean()
                var_a = (wa * wa).mean() - mu_a**2
                var_b = (wb * wb).mean() - mu_b**2
                cov = (wa * wb).mean() - mu_a * mu_b
                num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
                vals.append(num / den)
    return float(np.mean(vals))


# ---------------------------------------------------------------- psnr


def test_psnr_twenty_db_example():
    # every voxel off by a tenth of the peak puts the rmse at peak/10
    gt = np.ones((4, 4, 2), dtype=complex)
    x_hat = gt + 0.1
    assert abs(psnr(x_hat, gt) - 20.0) < 1e-9


def test_psnr_identical_is_infinite():
    gt = generate_phantom(PhantomSpec(shape=(8, 8, 2), seed=0))
    assert psnr(gt.copy(), gt) == math.inf


def test_psnr_overflowing_error_is_minus_infinite():
    # an inf voxel, or one whose squared error overflows, scores -inf without
    # a warning (warnings are errors under pytest); a NaN voxel stays NaN
    gt = generate_phantom(PhantomSpec(shape=(8, 8, 2), seed=0))
    for bad in (np.inf, 1e300, -1e300j):
        x_hat = gt.copy()
        x_hat[3, 5, 1] = bad
        assert psnr(x_hat, gt) == -math.inf, bad
    x_hat[3, 5, 1] = np.nan
    assert math.isnan(psnr(x_hat, gt))


def test_psnr_rejects_zero_ground_truth():
    z = np.zeros((4, 4, 2), dtype=complex)
    with pytest.raises(ValueError):
        psnr(z.copy(), z)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.ones((2, 2, 2), dtype=complex), np.ones((2, 2, 3), dtype=complex))


def test_psnr_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(10):
        gt = rng.standard_normal((8, 8, 3)) + 1j * rng.standard_normal((8, 8, 3))
        x_hat = gt + 0.1 * (
            rng.standard_normal((8, 8, 3)) + 1j * rng.standard_normal((8, 8, 3))
        )
        got = psnr(x_hat, gt)
        want = brute_psnr(x_hat, gt)
        assert abs(got - want) < 1e-9


def test_psnr_monotone_in_noise():
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=2))
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(gt.shape) + 1j * rng.standard_normal(gt.shape)
    values = [psnr(gt + s * noise, gt) for s in (0.01, 0.02, 0.05, 0.1, 0.2)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_psnr_insensitive_to_scale():
    # scaling both volumes together rescales peak and rmse alike
    rng = np.random.default_rng(4)
    gt = rng.standard_normal((8, 8, 2)) + 1j * rng.standard_normal((8, 8, 2))
    x_hat = gt + 0.05 * rng.standard_normal((8, 8, 2))
    assert abs(psnr(3.0 * x_hat, 3.0 * gt) - psnr(x_hat, gt)) < 1e-9


# ---------------------------------------------------------------- ssim


def test_ssim_identical_is_one():
    gt = generate_phantom(PhantomSpec(shape=(12, 12, 3), seed=5))
    assert abs(ssim(gt.copy(), gt) - 1.0) < 1e-12


def test_ssim_negated_reconstruction_is_one():
    # the metric sees magnitudes only
    gt = generate_phantom(PhantomSpec(shape=(12, 12, 3), seed=6))
    assert abs(ssim(-gt, gt) - 1.0) < 1e-12


def test_ssim_matches_brute_force():
    rng = np.random.default_rng(7)
    gt = generate_phantom(PhantomSpec(shape=(10, 9, 2), seed=7))
    x_hat = gt + 0.05 * (
        rng.standard_normal(gt.shape) + 1j * rng.standard_normal(gt.shape)
    )
    got = ssim(x_hat, gt)
    want = brute_ssim(x_hat, gt)
    assert abs(got - want) < 1e-9


def test_ssim_monotone_in_noise():
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 3), seed=8))
    rng = np.random.default_rng(9)
    noise = rng.standard_normal(gt.shape) + 1j * rng.standard_normal(gt.shape)
    values = [ssim(gt + s * noise, gt) for s in (0.02, 0.05, 0.1, 0.3)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_ssim_rejects_small_frames():
    small = np.ones((6, 8, 2), dtype=complex)
    with pytest.raises(ValueError, match="window"):
        ssim(small.copy(), small)
    small = np.ones((8, 6, 2), dtype=complex)
    with pytest.raises(ValueError):
        ssim(small.copy(), small)


def test_ssim_shape_mismatch():
    with pytest.raises(ValueError):
        ssim(np.ones((8, 8, 2), dtype=complex), np.ones((8, 8, 3), dtype=complex))


def test_metrics_on_reconstruction_pipeline():
    # degraded reconstructions must rank below the ground truth on both axes
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=10))
    mild = add_noise(gt, 0.01, seed=0, mask=np.ones(gt.shape, dtype=np.uint8))
    harsh = add_noise(gt, 0.1, seed=0, mask=np.ones(gt.shape, dtype=np.uint8))
    assert psnr(mild, gt) > psnr(harsh, gt)
    assert ssim(mild, gt) > ssim(harsh, gt)
