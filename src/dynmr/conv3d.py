"""3x3x3 convolution layers on (channels, h, w, t) tensors.

Convolutions are cross-correlations (no kernel flip), stride 1, zero padded
by one voxel on every spatial/temporal side so output size equals input size.
Each layer is 9 GEMMs, one per in-plane tap, on shifted views of one padded
buffer of the input's three temporal shifts (3x the input; no im2col, as in
MEC, Cho & Brand 2017).  The input gradient is the same kernel with the
flipped, transposed weights; the weight gradient is 9 GEMMs on those views.

A stack is a plain list of layers applied in order.  Factory helpers build
the two stacks the reconstruction network needs: an encode stack 2 -> nc and
a decode stack nc -> 2, ReLU between layers and a linear final layer.
"""

from dataclasses import dataclass

import numpy as np

KERNEL = 3


@dataclass
class Conv3dLayer:
    weights: np.ndarray  # (out_ch, in_ch, 3, 3, 3)
    bias: np.ndarray  # (out_ch,)
    activation: str = "linear"

    def __post_init__(self):
        w = self.weights
        if w.ndim != 5 or w.shape[2:] != (KERNEL, KERNEL, KERNEL):
            raise ValueError(f"weights shape {w.shape}, expected (*, *, 3, 3, 3)")
        if self.bias.shape != (w.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match {w.shape[0]} outputs"
            )
        if self.activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(self.bias))):
            raise ValueError("non-finite layer parameters")

    @property
    def in_channels(self):
        return self.weights.shape[1]

    @property
    def out_channels(self):
        return self.weights.shape[0]


@dataclass
class Conv3dCache:
    x: np.ndarray  # layer input, (in_ch, h, w, t)
    pre: np.ndarray  # pre-activation output, (out_ch, h, w, t)


def _tap_views(x):
    """The 9 in-plane tap views of (C, h, w, t) x, lowered along t only.

    One buffer holds x's three temporal shifts, zero padded, as rows k*C + i
    (temporal tap k, channel i), flat with t zeros at each end.  View a*3 + b
    is its zero-copy (3C, h(w+2)t) slice under in-plane tap (a, b) of the
    output widened by one w column each side; those junk columns get cropped.
    """
    c, h, w, t = x.shape
    plane = (w + 2) * t
    buf = np.zeros((3, c, (h + 2) * plane + 2 * t))
    grid = buf[:, :, t:-t].reshape(3, c, h + 2, w + 2, t)
    grid[0, :, 1:-1, 1:-1, 1:] = x[..., :-1]
    grid[1, :, 1:-1, 1:-1] = x
    grid[2, :, 1:-1, 1:-1, :-1] = x[..., 1:]
    buf = buf.reshape(3 * c, -1)
    offsets = (t + a * plane + (b - 1) * t for a, b in np.ndindex(KERNEL, KERNEL))
    return [buf[:, o:o + h * plane] for o in offsets]


def _correlate(x, weights):
    """Zero-padded cross-correlation of (C_in, h, w, t) x with (C_out, C_in, 3, 3, 3)."""
    _, h, w, t = x.shape
    taps = weights.transpose(2, 3, 0, 4, 1).reshape(KERNEL**2, weights.shape[0], -1)
    acc = np.zeros((weights.shape[0], h * (w + 2) * t))
    tmp = np.empty_like(acc)
    for tap, view in zip(taps, _tap_views(x)):
        acc += np.matmul(tap, view, out=tmp)
    return acc.reshape(-1, h, w + 2, t)[:, :, 1:-1]


def conv3d_forward(x, layer):
    """Apply one layer; returns (output, cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[0] != layer.in_channels:
        raise ValueError(
            f"input shape {x.shape} does not match {layer.in_channels} in-channels"
        )
    pre = _correlate(x, layer.weights) + layer.bias[:, None, None, None]
    out = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return out, Conv3dCache(x=x, pre=pre)


def conv3d_backward(grad_out, cache, layer):
    """Gradients of one layer; returns (grad_input, grad_weights, grad_bias)."""
    if grad_out.shape != cache.pre.shape:
        raise ValueError(
            f"grad shape {grad_out.shape} does not match output {cache.pre.shape}"
        )
    g_pre = grad_out * (cache.pre > 0) if layer.activation == "relu" else grad_out
    g_bias = g_pre.sum(axis=(1, 2, 3))
    # d/d input: correlate the output gradient with the flipped, transposed kernel
    w_adj = np.transpose(layer.weights[:, :, ::-1, ::-1, ::-1], (1, 0, 2, 3, 4))
    grad_in = _correlate(g_pre, w_adj)
    # d/d weights: g_pre on the widened grid, zero in the junk columns
    c_out, h, w, t = g_pre.shape
    g_wide = np.zeros((c_out, h, w + 2, t))
    g_wide[:, :, 1:-1] = g_pre
    g_wide = g_wide.reshape(c_out, -1)
    g_taps = np.array([g_wide @ view.T for view in _tap_views(cache.x)])
    g_weights = g_taps.reshape(KERNEL, KERNEL, c_out, KERNEL, -1).transpose(2, 4, 0, 1, 3)
    return grad_in, g_weights, g_bias


def stack_forward(x, layers):
    """Run a list of layers; returns (output, list of caches)."""
    caches = []
    for layer in layers:
        x, cache = conv3d_forward(x, layer)
        caches.append(cache)
    return x, caches


def stack_backward(grad_out, caches, layers):
    """Backprop a stack; returns (grad_input, [(grad_w, grad_b), ...])."""
    grads = [None] * len(layers)
    g = grad_out
    for j in range(len(layers) - 1, -1, -1):
        g, gw, gb = conv3d_backward(g, caches[j], layers[j])
        grads[j] = (gw, gb)
    return g, grads


def init_conv_layer(in_ch, out_ch, activation, rng):
    """Seeded uniform init with bound sqrt(6 / fan_in), zero bias."""
    bound = np.sqrt(6.0 / (in_ch * KERNEL**3))
    return Conv3dLayer(
        weights=rng.uniform(-bound, bound, size=(out_ch, in_ch, KERNEL, KERNEL, KERNEL)),
        bias=np.zeros(out_ch),
        activation=activation,
    )


def _plan(ch_in, ch_out, nc, depth):
    if depth < 1:
        raise ValueError("stack depth must be >= 1")
    widths = [ch_in] + [nc] * (depth - 1) + [ch_out]
    acts = ["relu"] * (depth - 1) + ["linear"]
    return list(zip(widths[:-1], widths[1:], acts))


def make_encode_stack(nc, depth, rng):
    """2 -> nc feature stack (ReLU between layers, linear last)."""
    return [init_conv_layer(i, o, a, rng) for i, o, a in _plan(2, nc, nc, depth)]


def make_decode_stack(nc, depth, rng):
    """nc -> 2 feature stack (ReLU between layers, linear last)."""
    return [init_conv_layer(i, o, a, rng) for i, o, a in _plan(nc, 2, nc, depth)]


def _center_tap(weights, out_ch, in_ch, value):
    weights[out_ch, in_ch, 1, 1, 1] = value


def identity_encode_stack(nc):
    """Depth-2 encode stack computing the identity on channels 0 and 1.

    Layer 1 splits each input channel into positive and negative ReLU halves,
    layer 2 recombines them, so the composite is exact (relu(x) - relu(-x) = x)
    for any input sign.  Needs nc >= 4 for the four half channels.
    """
    if nc < 4:
        raise ValueError("identity stacks need nc >= 4")
    w1 = np.zeros((nc, 2, KERNEL, KERNEL, KERNEL))
    _center_tap(w1, 0, 0, 1.0)
    _center_tap(w1, 1, 1, 1.0)
    _center_tap(w1, 2, 0, -1.0)
    _center_tap(w1, 3, 1, -1.0)
    w2 = np.zeros((nc, nc, KERNEL, KERNEL, KERNEL))
    _center_tap(w2, 0, 0, 1.0)
    _center_tap(w2, 0, 2, -1.0)
    _center_tap(w2, 1, 1, 1.0)
    _center_tap(w2, 1, 3, -1.0)
    return [
        Conv3dLayer(weights=w1, bias=np.zeros(nc), activation="relu"),
        Conv3dLayer(weights=w2, bias=np.zeros(nc), activation="linear"),
    ]


def identity_decode_stack(nc):
    """Depth-2 decode stack inverting identity_encode_stack exactly."""
    if nc < 4:
        raise ValueError("identity stacks need nc >= 4")
    w1 = np.zeros((nc, nc, KERNEL, KERNEL, KERNEL))
    _center_tap(w1, 0, 0, 1.0)
    _center_tap(w1, 1, 1, 1.0)
    _center_tap(w1, 2, 0, -1.0)
    _center_tap(w1, 3, 1, -1.0)
    w2 = np.zeros((2, nc, KERNEL, KERNEL, KERNEL))
    _center_tap(w2, 0, 0, 1.0)
    _center_tap(w2, 0, 2, -1.0)
    _center_tap(w2, 1, 1, 1.0)
    _center_tap(w2, 1, 3, -1.0)
    return [
        Conv3dLayer(weights=w1, bias=np.zeros(nc), activation="relu"),
        Conv3dLayer(weights=w2, bias=np.zeros(2), activation="linear"),
    ]
