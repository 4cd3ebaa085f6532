"""3x3x3 convolution layers on (channels, h, w, t) tensors.

Convolutions are cross-correlations (no kernel flip), stride 1, zero padded
by one voxel on every spatial/temporal side so output size equals input size.
A pass works through bands of output rows.  Each band fills one small buffer
with the input's three temporal shifts (no im2col, as in MEC, Cho & Brand
2017) and runs one GEMM per kernel row: the row's three in-plane taps are
stacked on the output rows, and their blocks are added at column shifts of
0, t and 2t.  The input gradient is the same kernel with the flipped,
transposed weights.  The weight gradient is the transposed product: per band
and kernel row, one GEMM of the output gradient, stacked at the same three
shifts, with the row's view of the buffer.

A layer is linear: correlation plus bias.  A stack is a plain list of
layers applied in order, with a ReLU after every layer but the last, so
activations are positional by construction and no layer stores one.  A stack's
forward keeps the list of its layer inputs or, given one buffer, streams
through it, each layer writing over its own input.  Its backward forms the
parameter gradients and, unless told not to, the input gradient;
stack_input_grad forms the input gradient alone.
Factory helpers build the two stacks the reconstruction network needs: an
encode stack 2 -> nc and a decode stack nc -> 2.
"""

from dataclasses import dataclass

import numpy as np

KERNEL = 3
# Band working sets, a band's (3 C_out) kernel-row product and (3 C_in) tap
# rows; they bound a pass's transient memory.  The weight gradient adds one
# partial GEMM per band, so its bytes depend on the band partition: it keeps
# BAND_BYTES.  A correlation's bytes do not, and its bands are a quarter of
# that, which takes paper-default streamed inference on 32x32x8 from 3.7 to
# 2.3 MB traced (an activation is 1 MB).  Forward pass, best of 40, 1.5 MB /
# 384 KB bands, 2-vCPU x86 VM, one BLAS thread: at 32x32x8, 16 -> 16 4.8 /
# 4.1 ms, 2 -> 16 2.0 / 1.4 ms, 16 -> 2 0.8 / 1.0 ms; at 64x64x8, where most
# bands become one row, 14.7 / 16.1, 5.2 / 6.2 and 3.7 / 5.8 ms.
BAND_BYTES = 3 << 19  # 1.5 MB
CORRELATE_BYTES = BAND_BYTES // 4  # 384 KB


@dataclass
class Conv3dLayer:
    weights: np.ndarray  # (out_ch, in_ch, 3, 3, 3)
    bias: np.ndarray  # (out_ch,)

    def __post_init__(self):
        w = self.weights
        if w.ndim != 5 or w.shape[2:] != (KERNEL, KERNEL, KERNEL):
            raise ValueError(f"weights shape {w.shape}, expected (*, *, 3, 3, 3)")
        if self.bias.shape != (w.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match {w.shape[0]} outputs"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(self.bias))):
            raise ValueError("non-finite layer parameters")

    @property
    def in_channels(self):
        return self.weights.shape[1]

    @property
    def out_channels(self):
        return self.weights.shape[0]


def _band_rows(c_in, c_out, h, w, t, budget):
    """Rows per band: the fewest bands whose working set stays near budget bytes."""
    rows = max(1, budget // (KERNEL * (c_in + c_out) * (w + 2) * t * 8))
    bands = -(-h // rows)
    return -(-h // bands)


def _tap_bands(x, rows):
    """Yield (r0, r1, taps) for bands of output rows r0:r1 of (C, h, w, t) x.

    taps is one reused (3C, (rows+2)(w+2)t + 2t) buffer holding x's three
    temporal shifts (row k*C + i for temporal tap k, channel i) over the
    band's padded rows r0-1 .. r1, zero padded, flat with t zeros in front.
    Band column j of the output widened by one w column each side reads
    in-plane tap (a, b) at taps column j + a(w+2)t + bt; the junk columns
    get cropped.  Past a short last band the buffer keeps the previous band's
    rows; the band's views reach past its bottom pad row only into a zero pad
    column.  Rows r0 .. r1 come from x (row h is the bottom pad); the top
    halo row r0-1 is carried over from the previous band's buffer, so once a
    band is yielded its output rows r0 .. r1-1 of x may be overwritten.
    """
    c, h, w, t = x.shape
    plane = (w + 2) * t
    buf = np.zeros((3, c, (rows + 2) * plane + 2 * t))
    grid = buf[:, :, t:t + (rows + 2) * plane].reshape(3, c, rows + 2, w + 2, t)
    taps = buf.reshape(3 * c, -1)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        hi = min(r1 + 1, h)
        if r0:  # the first band's top row stays the zero pad
            grid[:, :, 0] = grid[:, :, rows]
        grid[:, :, hi - r0 + 1:r1 - r0 + 2] = 0
        src = x[:, r0:hi]
        dst = grid[:, :, 1:hi - r0 + 1, 1:-1]
        dst[0, ..., 1:] = src[..., :-1]
        dst[1] = src
        dst[2, ..., :-1] = src[..., 1:]
        yield r0, r1, taps


def _correlate(x, weights, out=None):
    """Zero-padded cross-correlation of (C_in, h, w, t) x with (C_out, C_in, 3, 3, 3).

    The result goes to out, a (C_out, h, w, t) float64 array, when given.  out
    may hold x's leading planes in place: a band is written only after its
    input rows are in the tap buffer, and later bands read only rows below it.
    """
    c_in, h, w, t = x.shape
    c_out = weights.shape[0]
    plane = (w + 2) * t
    rows = _band_rows(c_in, c_out, h, w, t, CORRELATE_BYTES)
    # kernel row a: rows b*C_out + o, columns k*C_in + i
    w_rows = list(weights.transpose(2, 3, 0, 4, 1).reshape(KERNEL, KERNEL * c_out, -1))
    if out is None:
        out = np.empty((c_out, h, w, t))
    prod = np.empty((KERNEL * c_out, rows * plane + 2 * t))
    # Summing into out's strided rows instead is bit-identical but 1.1-1.8x slower.
    acc = np.empty((c_out, rows * plane))
    for r0, r1, taps in _tap_bands(x, rows):
        n = (r1 - r0) * plane
        p = prod[:, :n + 2 * t]
        blocks = [p[b * c_out:(b + 1) * c_out, b * t:b * t + n] for b in range(KERNEL)]
        band = acc[:, :n]
        band.fill(0.0)
        for a, w_row in enumerate(w_rows):
            np.matmul(w_row, taps[:, a * plane:a * plane + n + 2 * t], out=p)
            for block in blocks:
                band += block
        out[:, r0:r1] = band.reshape(c_out, -1, w + 2, t)[:, :, 1:-1]
    return out


def _param_grads(g_pre, x):
    """(grad_weights, grad_bias) from a layer's output gradient and input."""
    c_out, h, w, t = g_pre.shape
    c_in = x.shape[0]
    plane = (w + 2) * t
    rows = _band_rows(c_in, c_out, h, w, t, BAND_BYTES)
    # The forward's kernel-row product, transposed: g_pre on the band's widened
    # grid (zero in the junk columns) at column shifts 0, t and 2t, row b*C_out + o.
    # Past a short last band the previous band's values meet only zero pad columns.
    g_rows = np.zeros((KERNEL, c_out, rows * plane + 2 * t))
    g_taps = np.zeros((KERNEL, KERNEL * c_out, KERNEL * c_in))
    for r0, r1, taps in _tap_bands(x, rows):
        n = (r1 - r0) * plane
        for b in range(KERNEL):
            grid = g_rows[b, :, b * t:b * t + n].reshape(c_out, r1 - r0, w + 2, t)
            grid[:, :, 1:-1] = g_pre[:, r0:r1]
        g_stack = g_rows[:, :, :n + 2 * t].reshape(KERNEL * c_out, -1)
        for a in range(KERNEL):
            g_taps[a] += g_stack @ taps[:, a * plane:a * plane + n + 2 * t].T
    g_weights = g_taps.reshape(KERNEL, KERNEL, c_out, KERNEL, c_in)
    return g_weights.transpose(2, 4, 0, 1, 3), g_pre.sum(axis=(1, 2, 3))


def _same_voxels(x, out):
    """True when out[i] and x[i] are one element for every index both have."""
    return out.strides == x.strides and out.ctypes.data == x.ctypes.data


def conv3d_forward(x, layer, out=None):
    """Apply one layer; returns its output.

    The output is written into out when given, a float64 array of the output
    shape that either does not overlap x or starts at x's first element with
    x's strides, such as buf[:C_out] when x is buf[:C_in]: the layer then
    writes over its own input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[0] != layer.in_channels:
        raise ValueError(
            f"input shape {x.shape} does not match {layer.in_channels} in-channels"
        )
    want = (layer.out_channels, *x.shape[1:])
    if out is not None and (
        out.shape != want or (np.may_share_memory(x, out) and not _same_voxels(x, out))
    ):
        raise ValueError(f"out must be a {want} array apart from the input or over it")
    out = _correlate(x, layer.weights, out)
    out += layer.bias[:, None, None, None]
    return out


def _input_grad(g_pre, layer):
    """Correlate an output gradient with the flipped, transposed kernel."""
    w_adj = np.transpose(layer.weights[:, :, ::-1, ::-1, ::-1], (1, 0, 2, 3, 4))
    return _correlate(g_pre, w_adj)


def conv3d_backward(grad_out, x, layer, want_input=True):
    """Gradients of one layer at input x; returns (grad_input, grad_weights, grad_bias).

    grad_input is None when want_input is False.
    """
    want = (layer.out_channels, *x.shape[1:])
    if grad_out.shape != want:
        raise ValueError(f"grad shape {grad_out.shape} does not match output {want}")
    grad_in = _input_grad(grad_out, layer) if want_input else None
    return (grad_in, *_param_grads(grad_out, x))


def stack_forward(x, layers, buf=None):
    """Run a list of layers, ReLU after all but the last; returns (output, ins).

    ins lists the float64 input each layer read.  With buf, a float64 array
    of at least every layer's output shape, each layer writes its output into
    buf[:C_out], over its input when that is buf[:C_in]; ins is None.
    """
    x = np.asarray(x, dtype=np.float64)
    ins = []
    for j, layer in enumerate(layers):
        ins.append(x)
        x = conv3d_forward(x, layer, None if buf is None else buf[:layer.out_channels])
        if j < len(layers) - 1:
            np.maximum(x, 0.0, out=x)
    return x, ins if buf is None else None


def stack_backward(grad_out, ins, layers, want_input=True):
    """Backprop a stack; returns (grad_input or None, [(grad_w, grad_b), ...])."""
    grads = [None] * len(layers)
    g = grad_out
    for j in range(len(layers) - 1, -1, -1):
        if j < len(layers) - 1:  # relu(pre) > 0 exactly where pre > 0, NaN included
            g *= ins[j + 1] > 0  # g is layer j + 1's fresh input gradient
        g, gw, gb = conv3d_backward(g, ins[j], layers[j], want_input or j > 0)
        grads[j] = (gw, gb)
    return g, grads


def stack_input_grad(grad_out, ins, layers):
    """The input gradient alone of a stack's backward, one correlation per layer."""
    g = grad_out
    for j in range(len(layers) - 1, -1, -1):
        if j < len(layers) - 1:
            g *= ins[j + 1] > 0
        g = _input_grad(g, layers[j])
    return g


def init_conv_layer(in_ch, out_ch, rng):
    """Seeded uniform init with bound sqrt(6 / fan_in), zero bias."""
    bound = np.sqrt(6.0 / (in_ch * KERNEL**3))
    return Conv3dLayer(
        weights=rng.uniform(-bound, bound, size=(out_ch, in_ch, KERNEL, KERNEL, KERNEL)),
        bias=np.zeros(out_ch),
    )


def _plan(ch_in, ch_out, nc, depth):
    if depth < 1:
        raise ValueError("stack depth must be >= 1")
    widths = [ch_in] + [nc] * (depth - 1) + [ch_out]
    return list(zip(widths[:-1], widths[1:]))


def make_encode_stack(nc, depth, rng):
    """2 -> nc feature stack."""
    return [init_conv_layer(i, o, rng) for i, o in _plan(2, nc, nc, depth)]


def make_decode_stack(nc, depth, rng):
    """nc -> 2 feature stack."""
    return [init_conv_layer(i, o, rng) for i, o in _plan(nc, 2, nc, depth)]
