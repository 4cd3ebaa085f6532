"""Complex dynamic volumes and real channel tensors.

Array conventions used throughout the package:

- dynamic volume: C-contiguous complex128 ndarray of shape (h, w, t);
  two spatial axes, then time, with time the fastest-varying axis.
- channel tensor: C-contiguous float64 ndarray of shape (nc, h, w, t).
- channel 0 carries real parts, channel 1 imaginary parts.  This ordering is
  load-bearing for checkpoint/file portability; never reorder it.
"""

import numpy as np


def check_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def to_channels(v):
    """Split a complex volume into a 2-channel real tensor (real, imag)."""
    v = np.asarray(v)
    return np.stack([v.real, v.imag]).astype(np.float64, copy=False)


def from_channels(c):
    """Recombine a 2-channel real tensor into a complex volume."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim < 1 or c.shape[0] != 2:
        raise ValueError(f"expected 2 channels, got shape {c.shape}")
    return c[0] + 1j * c[1]


def fro_norm(v):
    return float(np.linalg.norm(np.ravel(v)))


def real_inner(u, v):
    """Real-valued inner product sum(re*re + im*im); the gradient pairing."""
    check_same_shape(u, v)
    return float(np.vdot(u, v).real)
