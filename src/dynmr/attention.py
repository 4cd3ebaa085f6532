"""Channel-attention soft thresholding with an analytic backward pass.

One learned threshold per channel of a (nc, h, w, t) feature tensor:

    a_i  = mean over h*w*t of |u_i|          (global average pooling)
    v    = w2 @ relu(w1 @ a + b1) + b2       (two fully connected layers)
    s    = sigmoid(v)                        (gate in [0, 1])
    tau_i = s_i * a_i
    out_i = sign(u_i) * max(|u_i| - tau_i, 0)

Since 0 <= s <= 1, the threshold never exceeds the channel's mean absolute
value.  The forward shrinks a chunk of channels in four passes,
o = u + 0.0, m = o - clip(o, -tau_i, tau_i), out = copysign(m, o): the
formula's bytes, signed zeros included.  The backward pass is the exact chain
rule through this map, with the usual subgradient conventions at the
shrinkage kink (derivative 0 where |u| <= tau) and at u = 0 (sign contributes
0).  It keeps no cache: the backward recomputes the gate (a few length-nc
vectors) and the |u| > tau mask from u, holding its output and one scratch
of u's size.
"""

from dataclasses import dataclass

import numpy as np

from .mathutil import sigmoid


@dataclass
class AttnParams:
    """Two FC layers of the gating network; all matrices are nc x nc."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        nc = self.b1.shape[0]
        for name, want in (
            ("w1", (nc, nc)),
            ("b1", (nc,)),
            ("w2", (nc, nc)),
            ("b2", (nc,)),
        ):
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} shape {got}, expected {want}")

    @property
    def nc(self):
        return self.b1.shape[0]


def init_attn_params(nc, rng):
    """Seeded init: uniform(+-1/sqrt(nc)) weights, zero biases (gate starts ~0.5)."""
    bound = 1.0 / np.sqrt(nc)
    return AttnParams(
        w1=rng.uniform(-bound, bound, size=(nc, nc)),
        b1=np.zeros(nc),
        w2=rng.uniform(-bound, bound, size=(nc, nc)),
        b2=np.zeros(nc),
    )


def _chunks(u, scratch):
    """Yield (channel slice, scratch rows for it), len(scratch) channels at a time."""
    for c in range(0, len(u), len(scratch)):
        m = scratch[:len(u) - c]
        yield slice(c, c + len(m)), m


def _gate(u, params, mag):
    """Return (a, hidden, s, tau_b), tau_b broadcast over u.

    |u| is formed in mag, a float64 array of u's plane shape, len(mag)
    channels at a time; mag holds all of |u| when it is u's size.
    """
    a = np.concatenate([np.mean(np.abs(u[part], out=m), axis=(1, 2, 3))
                        for part, m in _chunks(u, mag)])
    hidden = np.maximum(params.w1 @ a + params.b1, 0.0)
    s = sigmoid(params.w2 @ hidden + params.b2)
    return a, hidden, s, (s * a)[:, None, None, None]


def attn_forward(u, params, work=None):
    """Apply the operator and return its output.

    With work, a float64 array apart from u of u's plane shape and any
    number of channels, the output overwrites u and work is the scratch, a
    chunk of len(work) channels at a time: plain inference allocates nothing
    the size of u.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 4 or u.shape[0] != params.nc:
        raise ValueError(
            f"input shape {u.shape} does not match nc={params.nc} channel tensor"
        )
    out = np.empty_like(u) if work is None else u
    mag = np.empty_like(u) if work is None else work
    tau_b = _gate(u, params, mag)[3]
    # u + 0.0 turns -0.0 into +0.0, as the formula's sign(-0.0) * 0 does
    for part, m in _chunks(u, mag):
        o = np.add(u[part], 0.0, out=out[part])
        np.clip(o, -tau_b[part], tau_b[part], out=m)
        np.subtract(o, m, out=m)
        np.copysign(m, o, out=o)
    return out


def attn_backward(grad_out, u, params):
    """Exact gradients of a scalar loss through attn_forward at input u.

    Returns (grad_input, AttnParams-shaped gradients).  The threshold feeds
    back along two routes: through the gate s (FC stack) and through the
    pooled magnitude a (d a_i / d u = sign(u) / (h*w*t)).
    """
    if grad_out.shape != u.shape:
        raise ValueError(f"grad shape {grad_out.shape} does not match {u.shape}")
    nvox = u[0].size
    mag = np.empty_like(u)
    a, hidden, s, tau_b = _gate(u, params, mag)
    # direct shrinkage route: d out/d u = 1 on active voxels (mag > tau)
    grad_in = np.multiply(grad_out, np.greater(mag, tau_b, out=mag))
    sign_u = np.sign(u, out=mag)  # the mask is no longer read
    # d out/d tau_i = -sign(u) on active voxels, a channel at a time
    prod = np.empty_like(u[0])
    g_tau = -np.array([np.multiply(g, sg, out=prod).sum()
                       for g, sg in zip(grad_in, sign_u)])

    # tau = s * a
    g_s = g_tau * a
    g_a = g_tau * s
    # gate: sigmoid then the two FC layers; hidden > 0 exactly where pre1 > 0
    g_pre2 = g_s * s * (1.0 - s)
    g_w2 = np.outer(g_pre2, hidden)
    g_b2 = g_pre2.copy()
    g_hidden = params.w2.T @ g_pre2
    g_pre1 = g_hidden * (hidden > 0)
    g_w1 = np.outer(g_pre1, a)
    g_b1 = g_pre1.copy()
    g_a = g_a + params.w1.T @ g_pre1

    # pooling route back to the input
    grad_in += np.multiply(sign_u, g_a[:, None, None, None] / nvox, out=sign_u)
    return grad_in, AttnParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)
