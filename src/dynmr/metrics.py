"""Reconstruction quality metrics on complex volumes.

Both metrics work on magnitudes.  PSNR uses the peak ground-truth magnitude
over the whole volume and the mean squared complex-magnitude error.  SSIM is
computed per frame with a 7x7 uniform window over valid (fully inside)
positions, biased (divide by N) window moments, K1 = 0.01, K2 = 0.03, and the
peak ground-truth magnitude as the dynamic range; the result is the mean over
windows and frames.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(x_hat, x_gt):
    """20*log10(peak / rmse) in dB; +inf when identical, -inf on overflow."""
    if x_hat.shape != x_gt.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_gt.shape}")
    peak = float(np.max(np.abs(x_gt)))
    if peak == 0:
        raise ValueError("ground truth is identically zero")
    with np.errstate(over="ignore"):
        mse = float(np.mean(np.abs(x_hat - x_gt) ** 2))
    if mse == 0:
        return math.inf
    ratio = peak / math.sqrt(mse)
    return 20.0 * math.log10(ratio) if ratio else -math.inf


def _window_means(img):
    win = sliding_window_view(img, (SSIM_WINDOW, SSIM_WINDOW))
    return win.mean(axis=(2, 3))


def ssim(x_hat, x_gt):
    """Mean structural similarity over all frames of a dynamic volume."""
    if x_hat.shape != x_gt.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_gt.shape}")
    h, w, t = x_gt.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(
            f"frame {h}x{w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    peak = float(np.max(np.abs(x_gt)))
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    total = 0.0
    count = 0
    for f in range(t):
        a = np.abs(x_hat[:, :, f]).astype(np.float64)
        b = np.abs(x_gt[:, :, f]).astype(np.float64)
        mu_a = _window_means(a)
        mu_b = _window_means(b)
        # Luminance times contrast-structure, each a ratio of second-order
        # terms: nothing overflows while psnr is finite, and a score that is
        # still not finite is the caller's to report, not a warning.
        with np.errstate(all="ignore"):
            var_a = _window_means(a * a) - mu_a**2
            var_b = _window_means(b * b) - mu_b**2
            cov = _window_means(a * b) - mu_a * mu_b
            lum = (2.0 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
            smap = lum * ((2.0 * cov + c2) / (var_a + var_b + c2))
        total += float(smap.sum())
        count += smap.size
    return total / count
