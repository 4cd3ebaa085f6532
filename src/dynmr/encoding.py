"""Fourier sampling operator and k-space undersampling masks.

k-space arrays use the centered convention: the DC component sits at index
(h//2, w//2) of each frame.  The per-frame 2-D DFT is unitary, so the adjoint
of the masked forward operator is mask-then-inverse-DFT with no extra scaling.
Masks are uint8 arrays of shape (h, w, t) with entries in {0, 1}.
"""

import math

import numpy as np

from .volume import check_same_shape

_AXES = (0, 1)

GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


def _dft2(v, out=None, inverse=False):
    """Uncentered unitary 2-D DFT of every frame, into out (which may be v).

    Axis 1 and then axis 0, the order fft2 and ifft2 run them in, so the
    bytes are theirs; the second pass works in place.  Every 2-D transform
    in the package is these two passes.
    """
    step = np.fft.ifft if inverse else np.fft.fft
    k = step(v, axis=1, norm="ortho", out=out)
    return step(k, axis=0, norm="ortho", out=k)


def fft2_frames(v, direction="forward", keep=None):
    """Centered unitary 2-D DFT applied independently to every frame.

    keep, a boolean array of v's shape in the uncentered layout of k-space
    (Encoder._keep), zeroes the k-space entries it does not hold: the
    forward transform's output or the inverse transform's input.  The passes
    run in place in the uncentering copy, so a call holds two volumes.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    inverse = direction == "inverse"
    k = np.fft.ifftshift(v, axes=_AXES).astype(np.complex128, copy=False)
    if keep is not None and inverse:
        np.copyto(k, 0, where=~keep)
    _dft2(k, k, inverse)
    if keep is not None and not inverse:
        np.copyto(k, 0, where=~keep)
    return np.fft.fftshift(k, axes=_AXES)


class Encoder:
    """Masked Fourier sampling operator; forward and adjoint share one mask."""

    def __init__(self, mask):
        mask = np.asarray(mask)
        if mask.ndim != 3:
            raise ValueError(f"mask must be (h, w, t), got shape {mask.shape}")
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask entries must be 0 or 1")
        if not np.all(mask.reshape(-1, mask.shape[2]).sum(axis=0) >= 1):
            raise ValueError("every frame needs at least one sampled location")
        self.mask = mask.astype(np.uint8)
        # A^H A is circulant in each frame, so the centring shifts of
        # fft2_frames cancel around it: only the mask needs uncentring.
        self._keep = np.fft.ifftshift(self.mask, axes=_AXES).astype(bool)
        self._sampled = np.flatnonzero(self._keep)

    def forward(self, x):
        """Sample k-space: mask * FFT(x).  Unsampled entries are exactly zero."""
        check_same_shape(x, self.mask)
        return fft2_frames(x, "forward", self._keep)

    def adjoint(self, b):
        """Adjoint of forward: inverse FFT of the masked data."""
        check_same_shape(b, self.mask)
        return fft2_frames(b, "inverse", self._keep)

    def samples(self, v, work=None):
        """F(v) at the sampled entries: the d of data_consistency for v = A^H b.

        F is the uncentered per-frame DFT that data_consistency works in.
        work, a complex128 array of v's shape that may be v, holds F(v).
        """
        check_same_shape(v, self.mask)
        return np.take(_dft2(v, work), self._sampled)

    def data_consistency(self, y, d, c):
        """y <- F^-1[Y + c M'(d - Y)], Y = F(y), in place in complex128 y.

        M' keeps the sampled entries and d = samples(A^H b).  A^H b lies in
        the sampled subspace, so this is y + c (A^H b - P y), P = A^H A,
        with one gather and one scatter over the sampled entries in place of
        the volume passes of that image-space form.
        """
        check_same_shape(y, self.mask)
        _dft2(y, y)
        sampled = np.take(y, self._sampled)
        step = np.subtract(d, sampled)
        step *= c
        step += sampled
        np.put(y, self._sampled, step)
        return _dft2(y, y, inverse=True)


def make_pseudo_radial_mask(shape, n_spokes, seed=0):
    """Rasterize straight spokes through the k-space center, per frame.

    Spoke angles are uniformly spaced by pi/n_spokes.  Frame f rotates the
    whole set by f * (pi/n_spokes) * golden-fraction so consecutive frames
    sample different lines; the seed draws an additional global base rotation.
    Each spoke is walked in half-pixel radius steps in both directions and
    rounded to the nearest grid point, which keeps every frame point-symmetric
    about the center.  The DC sample is always on.
    """
    h, w, t = shape
    if n_spokes < 1:
        raise ValueError("n_spokes must be >= 1")
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, math.pi / n_spokes)
    cy, cx = h // 2, w // 2
    rmax = math.hypot(max(cy, h - 1 - cy), max(cx, w - 1 - cx))
    radii = np.arange(0.0, rmax + 0.5, 0.5)
    angles = [
        base + f * (math.pi / n_spokes) * GOLDEN_FRACTION + s * math.pi / n_spokes
        for f in range(t)
        for s in range(n_spokes)
    ]
    # (frame * spoke, radius) arrays, rounded as one spoke at a time would be
    dy = np.array([math.sin(a) for a in angles])[:, None] * radii
    dx = np.array([math.cos(a) for a in angles])[:, None] * radii
    frames = np.broadcast_to(np.repeat(np.arange(t), n_spokes)[:, None], dy.shape)
    mask = np.zeros((h, w, t), dtype=np.uint8)
    for sign in (1.0, -1.0):
        ys = np.rint(cy + sign * dy).astype(np.int64)
        xs = np.rint(cx + sign * dx).astype(np.int64)
        keep = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
        mask[ys[keep], xs[keep], frames[keep]] = 1
    mask[cy, cx, :] = 1
    return mask


def make_vds_mask(shape, acceleration, center_lines=4, seed=0):
    """Variable-density Cartesian mask: full ky lines, Gaussian-weighted draw.

    Per frame, ceil(w / acceleration) lines are on: `center_lines` consecutive
    lines around DC always, the rest drawn without replacement with
    probability decaying as a Gaussian (std w/6) of the distance from center.
    Frames draw independently from the seeded generator.
    """
    h, w, t = shape
    if not acceleration >= 1:  # NaN fails this too
        raise ValueError(f"acceleration must be >= 1, got {acceleration}")
    if not 0 <= center_lines < w:
        raise ValueError(f"center_lines must be in [0, w), got {center_lines}")
    target = math.ceil(w / acceleration)
    if target < center_lines:
        raise ValueError(
            f"target line count {target} is below center_lines {center_lines}"
        )
    rng = np.random.default_rng(seed)
    center = w // 2
    start = center - center_lines // 2
    center_idx = np.arange(start, start + center_lines)
    lines = np.arange(w)
    density = np.exp(-0.5 * ((lines - center) / (w / 6.0)) ** 2)
    rest = np.setdiff1d(lines, center_idx)
    weights = density[rest] / density[rest].sum()
    mask = np.zeros((h, w, t), dtype=np.uint8)
    for f in range(t):
        extra = rng.choice(rest, size=target - center_lines, replace=False, p=weights)
        mask[:, center_idx, f] = 1
        mask[:, extra, f] = 1
    return mask


def add_noise(b, sigma, mask, seed=0):
    """Add i.i.d. complex Gaussian noise (std sigma per real component).

    Noise lands only on the sampled locations of mask.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    check_same_shape(b, mask)
    out = np.array(b, copy=True)
    if sigma == 0:
        return out
    support = mask != 0
    n = int(support.sum())
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # the caller's finiteness check reports it
        noise = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    out[support] += noise
    return out
