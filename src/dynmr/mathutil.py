"""Small numerically-stable scalar nonlinearities."""

import numpy as np


def sigmoid(x):
    """1/(1+exp(-x)) without overflow; underflows cleanly to exact 0/1."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def softplus(x):
    """log(1 + exp(x)), stable for large |x|."""
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    """Inverse of softplus for y > 0."""
    if np.any(np.asarray(y) <= 0):
        raise ValueError("softplus_inv needs y > 0")
    return y + np.log1p(-np.exp(-y))
