"""3x3x3 convolution layers on (channels, h, w, t) tensors.

Convolutions are cross-correlations (no kernel flip), stride 1, zero padded
by one voxel on every spatial/temporal side so output size equals input size.
A pass reads its input through one small band buffer of padded input rows,
each laid out as (temporal tap, channel, w+2, t): the input's three temporal
shifts (no im2col, as in MEC, Cho & Brand 2017), each filled as one copy of
the flattened (w t) input row at flat offset +1, 0 or -1, with the w voxels
a shifted copy wraps into zeroed after.  The three buffer rows an
output row reads are one contiguous (9 C_in x (w+2)t) matrix, so each output
row is one GEMM, with kernel rows and temporal taps on K and the three
in-plane column taps stacked on the output rows; their blocks are added into
the output row at column shifts of 0, t and 2t.  The input gradient is the
same kernel with the flipped, transposed weights.  The weight gradient is the
transposed product: per output row, one GEMM of the output gradient, stacked
at the same three shifts, with the row's tap matrix, summed in row order.

A layer is linear: correlation plus bias.  A stack is a plain list of
layers applied in order, with a ReLU after every layer but the last, so
activations are positional by construction and no layer stores one.  A stack's
forward keeps the list of its layer inputs or, given one buffer, streams
through it, each layer writing over its own input.  Its backward forms the
parameter gradients and, unless told not to, the input gradient.
Factory helpers build the two stacks the reconstruction network needs: an
encode stack 2 -> nc and a decode stack nc -> 2.
"""

from dataclasses import dataclass

import numpy as np

KERNEL = 3
# The one band budget, for every pass: about 384 KB of padded input rows in
# the tap buffer.  No pass's bytes depend on the band partition (each output
# row is one GEMM, and the weight gradient sums them in row order).
BAND_BYTES = 3 << 17  # 384 KB


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


def _band_rows(c, h, w, t):
    """Rows per band: the fewest even bands whose tap buffer stays near BAND_BYTES."""
    # at least 2, so the two halo rows a band carries never overlap their source
    rows = max(2, BAND_BYTES // (KERNEL * c * (w + 2) * t * 8) - 2)
    bands = -(-h // rows)
    return -(-h // bands)


def _row_taps(x):
    """Yield (y, taps) for every output row y of (C, h, w, t) x.

    taps is the contiguous (9C, (w+2)t) stack of x's zero-padded rows y-1, y
    and y+1: row (3a + k)C + i holds kernel row a, temporal tap k, channel i,
    and column (j+1)t + s holds x[i, y+a-1, j, s+k-1].  It is a view of one
    reused band buffer of padded rows, each laid out as (k, i, w+2, t).  A band
    of output rows r0 .. r1-1 fills its rows from x when r0 is asked for; its
    top two rows (input rows r0-1 and r0) come over from the previous band's
    bottom two, so once row y is yielded, x's rows up to y may be overwritten.
    Past a short last band the buffer keeps the previous band's rows; the last
    band zeroes its bottom pad row and reads no row below it.

    Tap k copies each channel's flat (w t) input row whole, at flat offset
    1 - k of the padded row's interior, then zeroes the w voxels the shift
    wraps into (s = 0 for k = 0, s = t-1 for k = 2).  The flat rows are a view
    of x when its planes are C-contiguous, as every caller's are; any other x
    is copied once here.
    """
    c, h, w, t = x.shape
    flat = x.reshape(c, h, w * t)
    rows = _band_rows(c, h, w, t)
    buf = np.zeros((rows + 2, KERNEL, c, w + 2, t))
    runs = buf.reshape(rows + 2, KERNEL, c, (w + 2) * t)[..., t:(w + 1) * t]
    stack = buf.reshape(-1, (w + 2) * t)
    k = KERNEL * c  # stack rows per padded row
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        if r0:  # else the top row stays the zero pad
            buf[:2] = buf[rows:]
        lo, hi = (r0 + 1 if r0 else 0), min(r1 + 1, h)
        src = flat[:, lo:hi].transpose(1, 0, 2)
        dst = runs[lo - r0 + 1:hi - r0 + 1]
        dst[:, 0, :, 1:] = src[..., :-1]
        dst[:, 0, :, ::t] = 0.0  # s = 0, which the shift wrapped into
        dst[:, 1] = src
        dst[:, 2, :, :-1] = src[..., 1:]
        dst[:, 2, :, t - 1::t] = 0.0  # s = t - 1
        buf[hi - r0 + 1:r1 - r0 + 2] = 0.0  # the bottom pad row, in the last band
        for j in range(r1 - r0):
            yield r0 + j, stack[j * k:(j + 3) * k]


def _correlate(x, weights, out=None):
    """Zero-padded cross-correlation of (C_in, h, w, t) x with (C_out, C_in, 3, 3, 3).

    The result goes to out, a (C_out, h, w, t) float64 array, when given.  out
    may hold x's leading planes in place: row y is written only after the tap
    buffer holds every input row it reads, and later rows read only rows below.
    """
    c_in, h, w, t = x.shape
    c_out = weights.shape[0]
    # rows b*C_out + o (in-plane column tap b), columns (3a + k)C_in + i
    w_mat = weights.transpose(3, 0, 2, 4, 1).reshape(KERNEL * c_out, -1)
    if out is None:
        out = np.empty((c_out, h, w, t))
    prod = np.empty((KERNEL * c_out, (w + 2) * t))
    # column tap b's block, shifted b columns: the output row's three addends
    p0, p1, p2 = (prod[b * c_out:(b + 1) * c_out].reshape(c_out, w + 2, t)[:, b:b + w]
                  for b in range(KERNEL))
    # the first two meet in a contiguous row, so out's strided row is written once
    pair = np.empty((c_out, w, t))
    for y, taps in _row_taps(x):
        np.matmul(w_mat, taps, out=prod)
        np.add(p0, p1, out=pair)
        np.add(pair, p2, out=out[:, y])
    return out


def _param_grads(g_pre, x):
    """(grad_weights, grad_bias) from a layer's output gradient and input."""
    c_out, h, w, t = g_pre.shape
    c_in = x.shape[0]
    # The forward's product, transposed: g_pre's row y at column shifts 0, t
    # and 2t of a padded row (row b*C_out + o), zero elsewhere.
    g_row = np.zeros((KERNEL * c_out, (w + 2) * t))
    blocks = [g_row[b * c_out:(b + 1) * c_out].reshape(c_out, w + 2, t)[:, b:b + w]
              for b in range(KERNEL)]
    g_mat = np.zeros((KERNEL * c_out, KERNEL * KERNEL * c_in))
    part = np.empty_like(g_mat)
    for y, taps in _row_taps(x):
        for block in blocks:
            block[...] = g_pre[:, y]
        np.matmul(g_row, taps.T, out=part)
        g_mat += part
    g_weights = g_mat.reshape(KERNEL, c_out, KERNEL, KERNEL, c_in)
    return g_weights.transpose(1, 4, 2, 0, 3), g_pre.sum(axis=(1, 2, 3))


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


def conv3d_backward(grad_out, x, layer, want_input=True):
    """Gradients of one layer at input x; returns (grad_input, grad_weights, grad_bias).

    grad_input is None when want_input is False.
    """
    want = (layer.out_channels, *x.shape[1:])
    if grad_out.shape != want:
        raise ValueError(f"grad shape {grad_out.shape} does not match output {want}")
    grad_in = None
    if want_input:  # correlate with the flipped, transposed kernel
        w_adj = np.transpose(layer.weights[:, :, ::-1, ::-1, ::-1], (1, 0, 2, 3, 4))
        grad_in = _correlate(grad_out, w_adj)
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
