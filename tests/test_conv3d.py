import tracemalloc

import numpy as np
import pytest

import dynmr.conv3d
from dynmr.conv3d import (
    BAND_BYTES,
    Conv3dLayer,
    _band_rows,
    _row_taps,
    conv3d_backward,
    conv3d_forward,
    init_conv_layer,
    make_decode_stack,
    make_encode_stack,
    stack_backward,
    stack_forward,
)
from dynmr.gradcheck import fd_at
from oracles import identity_decode_stack, identity_encode_stack


def center_tap_layer(value=1.0, bias=0.0):
    w = np.zeros((1, 1, 3, 3, 3))
    w[0, 0, 1, 1, 1] = value
    return Conv3dLayer(weights=w, bias=np.array([bias]))


def identity_layer(c):
    """c -> c layer whose output is its input, and so is its input gradient."""
    w = np.zeros((c, c, 3, 3, 3))
    w[range(c), range(c), 1, 1, 1] = 1.0
    return Conv3dLayer(weights=w, bias=np.zeros(c))


# ------------------------------------------------------------- forward


def test_center_tap_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 5, 4, 3))
    out = conv3d_forward(x, center_tap_layer())
    assert np.array_equal(out, x)


def test_all_ones_kernel_counts_neighbors():
    w = np.ones((1, 1, 3, 3, 3))
    layer = Conv3dLayer(weights=w, bias=np.array([0.5]))
    x = np.ones((1, 5, 5, 5))
    out = conv3d_forward(x, layer)
    # interior voxels see the full 27-point neighborhood, corners only 8
    assert abs(out[0, 2, 2, 2] - 27.5) < 1e-12
    assert abs(out[0, 0, 0, 0] - 8.5) < 1e-12
    assert abs(out[0, 0, 2, 2] - 18.5) < 1e-12


def test_zero_padding_at_borders():
    # a tap one step off center shifts the volume and pulls zeros in
    w = np.zeros((1, 1, 3, 3, 3))
    w[0, 0, 0, 1, 1] = 1.0  # reads from row above
    layer = Conv3dLayer(weights=w, bias=np.zeros(1))
    x = np.arange(8.0).reshape(1, 2, 2, 2)
    out = conv3d_forward(x, layer)
    assert np.all(out[0, 0] == 0.0)
    assert np.array_equal(out[0, 1], x[0, 0])


def test_linearity():
    rng = np.random.default_rng(1)
    layer = init_conv_layer(2, 3, rng)
    x, y = rng.standard_normal((2, 2, 4, 4, 3))
    ax = conv3d_forward(2.0 * x - 3.0 * y, layer)
    ox = conv3d_forward(x, layer)
    oy = conv3d_forward(y, layer)
    np.testing.assert_allclose(ax - layer.bias[:, None, None, None],
                               2.0 * (ox - layer.bias[:, None, None, None])
                               - 3.0 * (oy - layer.bias[:, None, None, None]),
                               rtol=0, atol=1e-12)


def test_relu_activation_clamps():
    # a stack clamps the output of every layer but the last
    stack = [center_tap_layer(), center_tap_layer(-1.0)]
    x = np.array([[-1.0, 2.0]]).reshape(1, 1, 1, 2)
    out, ins = stack_forward(x, stack)
    assert ins[0] is x and np.array_equal(ins[1].ravel(), [0.0, 2.0])
    assert np.array_equal(out.ravel(), [0.0, -2.0])


def test_forward_validation():
    layer = center_tap_layer()
    with pytest.raises(ValueError):
        conv3d_forward(np.zeros((2, 4, 4, 2)), layer)
    buf = np.zeros((1, 5, 4, 2))
    x = buf[:, :4]
    # reversed views of x, a view of x's memory one row on, a wrong shape; x
    # itself is the in-place case
    for out in (x[:, :, ::-1], x[:, ::-1], buf[:, 1:], np.zeros((1, 4, 4, 3))):
        with pytest.raises(ValueError, match="out must be"):
            conv3d_forward(x, layer, out=out)
    assert conv3d_forward(x, layer, out=x) is x
    with pytest.raises(ValueError):
        Conv3dLayer(weights=np.zeros((1, 1, 3, 3)), bias=np.zeros(1))
    with pytest.raises(ValueError):
        Conv3dLayer(weights=np.zeros((2, 1, 3, 3, 3)), bias=np.zeros(1))
    bad = np.zeros((1, 1, 3, 3, 3))
    bad[0, 0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        Conv3dLayer(weights=bad, bias=np.zeros(1))


# ------------------------------------------------------------ backward


def test_input_gradient_is_the_adjoint():
    # <conv(x), g> == <x, grad_in(g)> for a bias-free linear layer
    rng = np.random.default_rng(2)
    layer = init_conv_layer(2, 3, rng)
    layer.bias[:] = 0.0
    for _ in range(10):
        x = rng.standard_normal((2, 4, 4, 3))
        g = rng.standard_normal((3, 4, 4, 3))
        out = conv3d_forward(x, layer)
        grad_in, _, _ = conv3d_backward(g, x, layer)
        lhs = float(np.sum(out * g))
        rhs = float(np.sum(x * grad_in))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_bias_gradient_sums_upstream():
    rng = np.random.default_rng(3)
    layer = init_conv_layer(2, 3, rng)
    x = rng.standard_normal((2, 4, 4, 2))
    g = rng.standard_normal((3, 4, 4, 2))
    _, _, g_bias = conv3d_backward(g, x, layer)
    np.testing.assert_allclose(g_bias, g.sum(axis=(1, 2, 3)), rtol=1e-13, atol=0)


def test_backward_zero_upstream():
    rng = np.random.default_rng(4)
    layer = init_conv_layer(2, 2, rng)
    x = rng.standard_normal((2, 3, 3, 2))
    grad_in, gw, gb = conv3d_backward(np.zeros((2, 3, 3, 2)), x, layer)
    assert not grad_in.any() and not gw.any() and not gb.any()


def test_backward_shape_validation():
    rng = np.random.default_rng(5)
    layer = init_conv_layer(1, 1, rng)
    x = rng.standard_normal((1, 2, 2, 2))
    with pytest.raises(ValueError):
        conv3d_backward(np.zeros((1, 2, 2, 3)), x, layer)


def test_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    layer = init_conv_layer(2, 3, rng)
    layer.bias += rng.uniform(-0.05, 0.05, size=3)
    x = rng.standard_normal((2, 4, 4, 2))
    c = rng.standard_normal((3, 4, 4, 2))

    def loss():
        return float(np.sum(c * conv3d_forward(x, layer)))

    grad_in, gw, gb = conv3d_backward(c, x, layer)

    def check(arr, an_arr, label):
        for idx in np.ndindex(arr.shape):
            num = fd_at(loss, arr, idx)
            an = an_arr[idx]
            if abs(num) + abs(an) < 1e-8:
                continue
            rel = abs(num - an) / max(abs(num), abs(an))
            assert rel < 1e-5, f"{label}[{idx}]: fd={num} an={an}"

    check(layer.weights, gw, "w")
    check(layer.bias, gb, "b")
    check(x, grad_in, "x")


# -------------------------------------------------- direct-sum oracle

# 41x23x8 spans several bands, the last one short, at every channel pair but 1->1
SHAPES = [(1, 1, 1), (3, 3, 1), (2, 5, 3), (33, 21, 5), (41, 23, 8)]
CHANNELS = [(1, 1), (2, 16), (16, 2), (3, 5), (8, 8), (16, 16)]


def direct_forward(x, weights, bias):
    """Pre-activation output as a literal sum of 27 shifted, padded slices."""
    _, h, w, t = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    pre = np.zeros((weights.shape[0], h, w, t)) + bias[:, None, None, None]
    for a, b, c in np.ndindex(3, 3, 3):
        window = xp[:, a:a + h, b:b + w, c:c + t]
        pre += np.tensordot(weights[:, :, a, b, c], window, axes=1)
    return pre


def direct_backward(g_pre, x, weights):
    """(grad_in, grad_weights, grad_bias) of sum(g_pre * pre), tap by tap."""
    _, h, w, t = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(weights)
    for a, b, c in np.ndindex(3, 3, 3):
        window = xp[:, a:a + h, b:b + w, c:c + t]
        gxp[:, a:a + h, b:b + w, c:c + t] += np.tensordot(
            weights[:, :, a, b, c].T, g_pre, axes=1)
        gw[:, :, a, b, c] = np.tensordot(g_pre, window, axes=([1, 2, 3], [1, 2, 3]))
    return gxp[:, 1:-1, 1:-1, 1:-1], gw, g_pre.sum(axis=(1, 2, 3))


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


def assert_layer_matches_direct_sum(layer, x, g, activation):
    """The layer last in a stack ("linear") or followed by the stack's ReLU."""
    pre = direct_forward(x, layer.weights, layer.bias)
    if activation == "relu":
        # an identity layer after it passes its ReLU output and g unchanged
        stack = [layer, identity_layer(layer.out_channels)]
        out, ins = stack_forward(x, stack)
        grad_in, [(gw, gb), _] = stack_backward(g, ins, stack)
        assert np.array_equal(ins[1], out)
        want_out, g_pre = np.maximum(pre, 0.0), g * (pre > 0)
    else:
        out = conv3d_forward(x, layer)
        grad_in, gw, gb = conv3d_backward(g, x, layer)
        # written into a given array (NaN-filled, so every voxel must be set)
        buf = np.full_like(out, np.nan)
        into = conv3d_forward(x, layer, out=buf)
        assert into is buf and into.tobytes() == out.tobytes()
        want_out, g_pre = pre, g
    want_in, want_w, want_b = direct_backward(g_pre, x, layer.weights)
    assert rel_err(out, want_out) <= 1e-12
    assert rel_err(grad_in, want_in) <= 1e-12
    assert rel_err(gw, want_w) <= 1e-12
    assert rel_err(gb, want_b) <= 1e-12


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("ch", CHANNELS, ids=lambda c: f"{c[0]}to{c[1]}")
@pytest.mark.parametrize("activation", ["relu", "linear"])
def test_layer_matches_direct_sum(shape, ch, activation):
    rng = np.random.default_rng(12)
    layer = init_conv_layer(ch[0], ch[1], rng)
    layer.bias[:] = rng.uniform(-0.5, 0.5, size=ch[1])
    x = rng.standard_normal((ch[0],) + shape)
    g = rng.standard_normal((ch[1],) + shape)
    assert_layer_matches_direct_sum(layer, x, g, activation)


@pytest.mark.parametrize("depth", [2, 3])
def test_stack_matches_composed_direct_sums(depth):
    # ReLU between the layers, none after the last; the backward chains the
    # direct-sum layer backwards through the direct ReLU masks
    rng = np.random.default_rng(19)
    layers = make_encode_stack(5, depth, rng)
    for layer in layers:
        layer.bias[:] = rng.uniform(-0.5, 0.5, size=layer.out_channels)
    x = rng.standard_normal((2, 33, 21, 5))
    g = rng.standard_normal((5, 33, 21, 5))
    out, ins = stack_forward(x, layers)
    grad_in, grads = stack_backward(g, ins, layers)

    want_ins, pres = [x], []
    for layer in layers:
        pres.append(direct_forward(want_ins[-1], layer.weights, layer.bias))
        want_ins.append(np.maximum(pres[-1], 0.0))
    assert rel_err(out, pres[-1]) <= 1e-12
    for got, want in zip(ins[1:], want_ins[1:-1], strict=True):
        assert rel_err(got, want) <= 1e-12
    g_pre = g
    for j in range(depth - 1, -1, -1):
        want_in, want_w, want_b = direct_backward(g_pre, want_ins[j], layers[j].weights)
        assert rel_err(grads[j][0], want_w) <= 1e-12, j
        assert rel_err(grads[j][1], want_b) <= 1e-12, j
        if j:
            g_pre = want_in * (pres[j - 1] > 0)
    assert rel_err(grad_in, want_in) <= 1e-12


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_input_gradient_is_the_adjoint_on_odd_shapes(shape):
    rng = np.random.default_rng(13)
    layer = init_conv_layer(3, 5, rng)
    layer.bias[:] = 0.0
    x = rng.standard_normal((3,) + shape)
    g = rng.standard_normal((5,) + shape)
    out = conv3d_forward(x, layer)
    grad_in, _, _ = conv3d_backward(g, x, layer)
    lhs = float(np.sum(out * g))
    rhs = float(np.sum(x * grad_in))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_oracle_shape_spans_several_bands():
    # every pass reads its input through the band buffer: the forward and the
    # weight gradient C_in-channel input, the input gradient its C_out-channel one
    h, w, t = SHAPES[-1]
    for ch in CHANNELS[1:]:
        for c in ch:
            rows = _band_rows(c, h, w, t)
            assert 2 <= rows < h and h % rows, (ch, c, rows)


@pytest.mark.parametrize("band_bytes", [1, 20000, 1 << 30])
@pytest.mark.parametrize("activation", ["relu", "linear"])
def test_band_boundaries_match_direct_sum(monkeypatch, band_bytes, activation):
    # over h = 11, in the forward, the input gradient and the weight gradient
    # alike: bands at the 2-row minimum (the last one row), bands of 6 and 4
    # rows whose last band is short, and one band over the whole of h
    monkeypatch.setattr(dynmr.conv3d, "BAND_BYTES", band_bytes)
    want = {1: (2, 2), 20000: (6, 4), 1 << 30: (11, 11)}[band_bytes]
    assert tuple(_band_rows(c, 11, 7, 3) for c in (3, 5)) == want
    rng = np.random.default_rng(14)
    layer = init_conv_layer(3, 5, rng)
    layer.bias[:] = rng.uniform(-0.5, 0.5, size=5)
    x = rng.standard_normal((3, 11, 7, 3))
    g = rng.standard_normal((5, 11, 7, 3))
    assert_layer_matches_direct_sum(layer, x, g, activation)


@pytest.mark.parametrize("band_bytes", [1, 20000])
@pytest.mark.parametrize("ch", [(2, 5), (5, 5), (5, 2)], ids=lambda c: f"{c[0]}to{c[1]}")
def test_in_place_forward_matches_allocating(monkeypatch, band_bytes, ch):
    # out = buf[:C_out] over x = buf[:C_in]: each band's output lands on input
    # rows the next band's top halo needed, so the halo must come from the tap
    # buffer.  Over h = 11: bands at the 2-row minimum whose last band is one
    # row, bands of 4 rows whose last band is short, and (2 input channels)
    # one band over the whole of h.  The rest of buf starts NaN: reading it
    # would show.
    monkeypatch.setattr(dynmr.conv3d, "BAND_BYTES", band_bytes)
    c_in, c_out = ch
    rows = _band_rows(c_in, 11, 7, 3)
    assert rows == {1: 2, 20000: 11 if c_in == 2 else 4}[band_bytes]
    rng = np.random.default_rng(16)
    layer = init_conv_layer(c_in, c_out, rng)
    layer.bias[:] = rng.uniform(-0.5, 0.5, size=c_out)
    x = rng.standard_normal((c_in, 11, 7, 3))
    want = conv3d_forward(x, layer)
    buf = np.full((max(ch), 11, 7, 3), np.nan)
    buf[:c_in] = x
    got = conv3d_forward(buf[:c_in], layer, buf[:c_out])
    assert np.shares_memory(got, buf) and got.ctypes.data == buf.ctypes.data
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ch", [(2, 16), (16, 16), (16, 2), (8, 8)],
                         ids=lambda c: f"{c[0]}to{c[1]}")
def test_correlation_bytes_do_not_depend_on_the_band_budget(monkeypatch, ch):
    # All three passes are correlations: the forward, the input gradient and
    # the weight gradient (of the input with the output gradient).  Each output
    # row is one GEMM, and the weight gradient sums its per-row products in
    # row order, so no pass's bytes depend on the band partition.  At 37x29x6:
    # 2-row bands, the default budget's and one band over the whole of h.
    c_in, c_out = ch
    shape = (37, 29, 6)
    rng = np.random.default_rng(18)
    layer = init_conv_layer(c_in, c_out, rng)
    layer.bias[:] = rng.uniform(-0.5, 0.5, size=c_out)
    x = rng.standard_normal((c_in, *shape))
    g = rng.standard_normal((c_out, *shape))
    parts, runs = [], set()
    for budget in (1, BAND_BYTES, 1 << 30):
        monkeypatch.setattr(dynmr.conv3d, "BAND_BYTES", budget)
        parts.append([_band_rows(c, *shape) for c in ch])
        out = conv3d_forward(x, layer)
        grad_in, gw, gb = conv3d_backward(g, x, layer)
        runs.add((out.tobytes(), grad_in.tobytes(), gw.tobytes(), gb.tobytes()))
    assert parts[0] == [2, 2] and parts[-1] == [37, 37], parts
    assert len(runs) == 1


def padded_row_stacks(x):
    """Per output row y, the (9C, (w+2)t) tap matrix from np.pad, rows (a, k, i)."""
    c, h, w, t = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    return [np.stack([xp[i, y + a, :, k:k + t].ravel()
                      for a in range(3) for k in range(3) for i in range(c)])
            for y in range(h)]


@pytest.mark.parametrize("band_bytes", [1, BAND_BYTES, 1 << 30])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("c", [2, 16])
def test_row_taps_match_padded_rows(monkeypatch, band_bytes, shape, c):
    # the tap matrix of every output row, byte for byte, under 2-row bands,
    # the default budget and one band over the whole of h: for x on its own,
    # as the leading planes of a wider buffer (a streamed pass), and with
    # Fortran-ordered planes, which the fill copies once
    monkeypatch.setattr(dynmr.conv3d, "BAND_BYTES", band_bytes)
    rng = np.random.default_rng(20)
    wide = rng.standard_normal((c + 3, *shape))
    for x in (wide[:c].copy(), wide[:c], np.asfortranarray(wide[:c])):
        want = padded_row_stacks(x)
        ys = []
        for y, taps in _row_taps(x):
            assert taps.tobytes() == want[y].tobytes(), y
            ys.append(y)
        assert ys == list(range(shape[0]))


def test_in_place_pass_allocates_no_output():
    # A 16 -> 16 layer at 32x32x8 over its own input holds only the band
    # working set: the tap buffer of 2-row bands (4 padded rows), the
    # output row's product and the kernel matrix, plus numpy's own
    # temporaries, under a quarter of an output.  An output-sized array
    # (1 MB, about twice the working set) would break the bound.
    rng = np.random.default_rng(15)
    layer = init_conv_layer(16, 16, rng)
    x = rng.standard_normal((16, 32, 32, 8))
    want = conv3d_forward(x, layer)
    rows, plane = _band_rows(16, 32, 32, 8), 34 * 8
    assert rows == 2
    working = 8 * (
        (rows + 2) * 3 * 16 * plane  # taps
        + 3 * 16 * plane  # the output row's product
        + layer.weights.size
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = conv3d_forward(x, layer, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got is x and got.tobytes() == want.tobytes()
    assert peak <= working + x.nbytes // 4, (peak - working) / x.nbytes


def test_layer_pass_memory_is_bounded():
    # A 16 -> 16 layer at 32x32x8: forward + backward keep two output-sized
    # arrays (the output and grad_in).  The kernel's own buffers are
    # band-sized, so the traced peak stays under 6 outputs; one buffer over
    # the whole input (3.4 outputs) would break it.
    rng = np.random.default_rng(15)
    layer = init_conv_layer(16, 16, rng)
    x = rng.standard_normal((16, 32, 32, 8))
    g = rng.standard_normal((16, 32, 32, 8))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = conv3d_forward(x, layer)
        conv3d_backward(g, x, layer)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6 * out.nbytes, peak / out.nbytes


# --------------------------------------------------------------- stacks


def test_single_layer_stack_matches_plain_conv():
    rng = np.random.default_rng(7)
    layer = init_conv_layer(2, 3, rng)
    x = rng.standard_normal((2, 4, 4, 2))
    out_s, ins = stack_forward(x, [layer])
    assert np.array_equal(out_s, conv3d_forward(x, layer))
    assert len(ins) == 1 and ins[0] is x
    # the recorded input is the float64 array the layer read
    x32 = x.astype(np.float32)
    _, ins = stack_forward(x32, [layer])
    assert ins[0].dtype == np.float64 and np.array_equal(ins[0], x32)


@pytest.mark.parametrize("nc", [1, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_stack_forward_streams_through_two_buffers(monkeypatch, depth, nc):
    # an encode then a decode stack, as in the denoising block; at nc = 1 the
    # decode output (2 channels) is the widest layer.  The two buffers are the
    # stack's input and one streaming buffer: the first layer writes the
    # buffer's leading planes, every later layer writes them over its own
    # input, with the bytes of the allocating run.  The buffer starts NaN and
    # the bands are at the 2-row minimum, the last one row, so a read of an
    # unwritten voxel, or of a row already overwritten, would show.
    monkeypatch.setattr(dynmr.conv3d, "BAND_BYTES", 1)
    rng = np.random.default_rng(17)
    enc, dec = make_encode_stack(nc, depth, rng), make_decode_stack(nc, depth, rng)
    x = rng.standard_normal((2, 5, 4, 3))
    want_u, _ = stack_forward(x, enc)
    want, _ = stack_forward(want_u, dec)
    seen = []

    def recorded(x, layer, out=None, _fn=dynmr.conv3d.conv3d_forward):
        y = _fn(x, layer, out)
        seen.append((x, y))
        return y

    monkeypatch.setattr(dynmr.conv3d, "conv3d_forward", recorded)
    buf = np.full((max(nc, 2), *x.shape[1:]), np.nan)
    u, ins = stack_forward(x, enc, buf)
    assert ins is None and u.tobytes() == want_u.tobytes()
    out, ins = stack_forward(u, dec, buf)
    assert ins is None and out.tobytes() == want.tobytes()
    assert len(seen) == 2 * depth
    for j, (layer_in, layer_out) in enumerate(seen):
        assert layer_out.ctypes.data == buf.ctypes.data
        assert np.shares_memory(layer_out, layer_in) == (j > 0)


def test_stack_shapes_and_plan():
    rng = np.random.default_rng(8)
    enc = make_encode_stack(6, 3, rng)
    dec = make_decode_stack(6, 3, rng)
    assert [(l.in_channels, l.out_channels) for l in enc] == [(2, 6), (6, 6), (6, 6)]
    assert [(l.in_channels, l.out_channels) for l in dec] == [(6, 6), (6, 6), (6, 2)]
    with pytest.raises(ValueError):
        make_encode_stack(4, 0, rng)


def test_stack_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    layers = make_encode_stack(4, 2, rng)
    x = rng.standard_normal((2, 4, 4, 2))
    c = rng.standard_normal((4, 4, 4, 2))

    def loss():
        out, _ = stack_forward(x, layers)
        return float(np.sum(c * out))

    _, ins = stack_forward(x, layers)
    grad_in, grads = stack_backward(c, ins, layers)
    assert len(grads) == len(layers)

    for j, layer in enumerate(layers):
        gw, gb = grads[j]
        for arr, an_arr, label in ((layer.weights, gw, "w"), (layer.bias, gb, "b")):
            for idx in np.ndindex(arr.shape):
                num = fd_at(loss, arr, idx)
                an = an_arr[idx]
                if abs(num) + abs(an) < 1e-8:
                    continue
                rel = abs(num - an) / max(abs(num), abs(an))
                assert rel < 1e-5, f"layer{j}.{label}[{idx}]: fd={num} an={an}"
    for idx in np.ndindex(x.shape):
        num = fd_at(loss, x, idx)
        an = grad_in[idx]
        if abs(num) + abs(an) < 1e-8:
            continue
        assert abs(num - an) / max(abs(num), abs(an)) < 1e-5


@pytest.mark.parametrize("depth", [1, 3])
def test_stack_backward_without_input(monkeypatch, depth):
    # want_input=False drops the bottom layer's correlation and nothing else
    rng = np.random.default_rng(16)
    layers = make_encode_stack(4, depth, rng)
    x = rng.standard_normal((2, 5, 4, 3))
    c = rng.standard_normal((4, 5, 4, 3))
    _, ins = stack_forward(x, layers)
    _, want = stack_backward(c, ins, layers)
    calls = {"_correlate": 0, "_param_grads": 0}
    for name in calls:
        def counted(*args, _fn=getattr(dynmr.conv3d, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(dynmr.conv3d, name, counted)

    got_in, got = stack_backward(c, ins, layers, want_input=False)
    assert got_in is None
    assert calls == {"_correlate": depth - 1, "_param_grads": depth}
    assert len(got) == depth
    for (gw, gb), (ww, wb) in zip(got, want):
        assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


def test_init_bounds_and_determinism():
    a = init_conv_layer(4, 8, np.random.default_rng(10))
    b = init_conv_layer(4, 8, np.random.default_rng(10))
    assert np.array_equal(a.weights, b.weights)
    assert not a.bias.any()
    assert np.max(np.abs(a.weights)) <= np.sqrt(6.0 / (4 * 27))


# ------------------------------------------------------ identity stacks


def test_identity_stacks_are_exact():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 5, 5, 4))
    for nc in (4, 6, 8):
        enc = identity_encode_stack(nc)
        dec = identity_decode_stack(nc)
        feat, _ = stack_forward(x, enc)
        assert feat.shape == (nc, 5, 5, 4)
        assert np.array_equal(feat[0], x[0]) and np.array_equal(feat[1], x[1])
        assert not feat[2:].any()
        back, _ = stack_forward(feat, dec)
        assert np.array_equal(back, x)


def test_identity_stacks_reject_narrow_nc():
    with pytest.raises(ValueError):
        identity_encode_stack(3)
    with pytest.raises(ValueError):
        identity_decode_stack(2)
