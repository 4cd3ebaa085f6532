import tracemalloc

import numpy as np
import pytest

import dynmr.conv3d
from dynmr.conv3d import (
    Conv3dLayer,
    _band_rows,
    conv3d_backward,
    conv3d_forward,
    init_conv_layer,
    make_decode_stack,
    make_encode_stack,
    stack_backward,
    stack_forward,
    stack_param_grads,
)
from dynmr.gradcheck import fd_at
from oracles import identity_decode_stack, identity_encode_stack


def center_tap_layer(value=1.0, bias=0.0, activation="linear"):
    w = np.zeros((1, 1, 3, 3, 3))
    w[0, 0, 1, 1, 1] = value
    return Conv3dLayer(weights=w, bias=np.array([bias]), activation=activation)


# ------------------------------------------------------------- forward


def test_center_tap_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 5, 4, 3))
    out, _ = conv3d_forward(x, center_tap_layer())
    assert np.array_equal(out, x)


def test_all_ones_kernel_counts_neighbors():
    w = np.ones((1, 1, 3, 3, 3))
    layer = Conv3dLayer(weights=w, bias=np.array([0.5]))
    x = np.ones((1, 5, 5, 5))
    out, _ = conv3d_forward(x, layer)
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
    out, _ = conv3d_forward(x, layer)
    assert np.all(out[0, 0] == 0.0)
    assert np.array_equal(out[0, 1], x[0, 0])


def test_linearity():
    rng = np.random.default_rng(1)
    layer = init_conv_layer(2, 3, "linear", rng)
    x, y = rng.standard_normal((2, 2, 4, 4, 3))
    ax, _ = conv3d_forward(2.0 * x - 3.0 * y, layer)
    ox, _ = conv3d_forward(x, layer)
    oy, _ = conv3d_forward(y, layer)
    np.testing.assert_allclose(ax - layer.bias[:, None, None, None],
                               2.0 * (ox - layer.bias[:, None, None, None])
                               - 3.0 * (oy - layer.bias[:, None, None, None]),
                               rtol=0, atol=1e-12)


def test_relu_activation_clamps():
    layer = center_tap_layer(activation="relu")
    x = np.array([[-1.0, 2.0]]).reshape(1, 1, 1, 2)
    out, cache = conv3d_forward(x, layer)
    assert np.array_equal(out.ravel(), [0.0, 2.0])
    assert cache.out is out and cache.x is x


def test_forward_validation():
    layer = center_tap_layer()
    with pytest.raises(ValueError):
        conv3d_forward(np.zeros((2, 4, 4, 2)), layer)
    x = np.zeros((1, 4, 4, 2))
    for out in (x, x[:, :, ::-1], np.zeros((1, 4, 4, 3))):  # overlaps x, wrong shape
        with pytest.raises(ValueError, match="out must be"):
            conv3d_forward(x, layer, out=out)
    with pytest.raises(ValueError):
        Conv3dLayer(weights=np.zeros((1, 1, 3, 3)), bias=np.zeros(1))
    with pytest.raises(ValueError):
        Conv3dLayer(weights=np.zeros((2, 1, 3, 3, 3)), bias=np.zeros(1))
    with pytest.raises(ValueError):
        Conv3dLayer(weights=np.zeros((1, 1, 3, 3, 3)), bias=np.zeros(1),
                    activation="tanh")
    bad = np.zeros((1, 1, 3, 3, 3))
    bad[0, 0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        Conv3dLayer(weights=bad, bias=np.zeros(1))


# ------------------------------------------------------------ backward


def test_input_gradient_is_the_adjoint():
    # <conv(x), g> == <x, grad_in(g)> for a bias-free linear layer
    rng = np.random.default_rng(2)
    layer = init_conv_layer(2, 3, "linear", rng)
    layer.bias[:] = 0.0
    for _ in range(10):
        x = rng.standard_normal((2, 4, 4, 3))
        g = rng.standard_normal((3, 4, 4, 3))
        out, cache = conv3d_forward(x, layer)
        grad_in, _, _ = conv3d_backward(g, cache, layer)
        lhs = float(np.sum(out * g))
        rhs = float(np.sum(x * grad_in))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_bias_gradient_sums_upstream():
    rng = np.random.default_rng(3)
    layer = init_conv_layer(2, 3, "linear", rng)
    x = rng.standard_normal((2, 4, 4, 2))
    g = rng.standard_normal((3, 4, 4, 2))
    _, cache = conv3d_forward(x, layer)
    _, _, g_bias = conv3d_backward(g, cache, layer)
    np.testing.assert_allclose(g_bias, g.sum(axis=(1, 2, 3)), rtol=1e-13, atol=0)


def test_backward_zero_upstream():
    rng = np.random.default_rng(4)
    layer = init_conv_layer(2, 2, "relu", rng)
    x = rng.standard_normal((2, 3, 3, 2))
    _, cache = conv3d_forward(x, layer)
    grad_in, gw, gb = conv3d_backward(np.zeros((2, 3, 3, 2)), cache, layer)
    assert not grad_in.any() and not gw.any() and not gb.any()


def test_backward_shape_validation():
    rng = np.random.default_rng(5)
    layer = init_conv_layer(1, 1, "linear", rng)
    _, cache = conv3d_forward(rng.standard_normal((1, 2, 2, 2)), layer)
    with pytest.raises(ValueError):
        conv3d_backward(np.zeros((1, 2, 2, 3)), cache, layer)


def test_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    layer = init_conv_layer(2, 3, "relu", rng)
    layer.bias += rng.uniform(-0.05, 0.05, size=3)
    x = rng.standard_normal((2, 4, 4, 2))
    c = rng.standard_normal((3, 4, 4, 2))

    def loss():
        out, _ = conv3d_forward(x, layer)
        return float(np.sum(c * out))

    out, cache = conv3d_forward(x, layer)
    grad_in, gw, gb = conv3d_backward(c, cache, layer)

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


def assert_layer_matches_direct_sum(layer, x, g):
    out, cache = conv3d_forward(x, layer)
    grad_in, gw, gb = conv3d_backward(g, cache, layer)

    pre = direct_forward(x, layer.weights, layer.bias)
    relu = layer.activation == "relu"
    want_out = np.maximum(pre, 0.0) if relu else pre
    g_pre = g * (pre > 0) if relu else g
    want_in, want_w, want_b = direct_backward(g_pre, x, layer.weights)
    assert cache.out is out
    assert rel_err(out, want_out) <= 1e-12
    # written into a given array (NaN-filled, so every voxel must be set)
    buf = np.full_like(out, np.nan)
    into, _ = conv3d_forward(x, layer, out=buf)
    assert into is buf and into.tobytes() == out.tobytes()
    assert rel_err(grad_in, want_in) <= 1e-12
    assert rel_err(gw, want_w) <= 1e-12
    assert rel_err(gb, want_b) <= 1e-12


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("ch", CHANNELS, ids=lambda c: f"{c[0]}to{c[1]}")
@pytest.mark.parametrize("activation", ["relu", "linear"])
def test_layer_matches_direct_sum(shape, ch, activation):
    rng = np.random.default_rng(12)
    layer = init_conv_layer(ch[0], ch[1], activation, rng)
    layer.bias[:] = rng.uniform(-0.5, 0.5, size=ch[1])
    x = rng.standard_normal((ch[0],) + shape)
    g = rng.standard_normal((ch[1],) + shape)
    assert_layer_matches_direct_sum(layer, x, g)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_input_gradient_is_the_adjoint_on_odd_shapes(shape):
    rng = np.random.default_rng(13)
    layer = init_conv_layer(3, 5, "linear", rng)
    layer.bias[:] = 0.0
    x = rng.standard_normal((3,) + shape)
    g = rng.standard_normal((5,) + shape)
    out, cache = conv3d_forward(x, layer)
    grad_in, _, _ = conv3d_backward(g, cache, layer)
    lhs = float(np.sum(out * g))
    rhs = float(np.sum(x * grad_in))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_oracle_shape_spans_several_bands():
    h, w, t = SHAPES[-1]
    for c_in, c_out in CHANNELS[1:]:
        rows = _band_rows(c_in, c_out, h, w, t)
        assert rows < h and h % rows, (c_in, c_out, rows)


@pytest.mark.parametrize("band_bytes", [1, 20000])
@pytest.mark.parametrize("activation", ["relu", "linear"])
def test_band_boundaries_match_direct_sum(monkeypatch, band_bytes, activation):
    # one-row bands, and bands of 3 rows over h = 10 (4 bands, the last one row)
    monkeypatch.setattr(dynmr.conv3d, "BAND_BYTES", band_bytes)
    assert _band_rows(3, 5, 10, 7, 3) == (1 if band_bytes == 1 else 3)
    rng = np.random.default_rng(14)
    layer = init_conv_layer(3, 5, activation, rng)
    layer.bias[:] = rng.uniform(-0.5, 0.5, size=5)
    x = rng.standard_normal((3, 10, 7, 3))
    g = rng.standard_normal((5, 10, 7, 3))
    assert_layer_matches_direct_sum(layer, x, g)


def test_layer_pass_memory_is_bounded():
    # A 16 -> 16 ReLU layer at 32x32x8: forward + backward keep three
    # output-sized arrays (the output, g_pre and grad_in).  The kernel's own
    # buffers are band-sized, so the traced peak stays under 6 outputs; one
    # buffer over the whole input (3.4 outputs) would break it.
    rng = np.random.default_rng(15)
    layer = init_conv_layer(16, 16, "relu", rng)
    x = rng.standard_normal((16, 32, 32, 8))
    g = rng.standard_normal((16, 32, 32, 8))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out, cache = conv3d_forward(x, layer)
        conv3d_backward(g, cache, layer)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6 * out.nbytes, peak / out.nbytes


# --------------------------------------------------------------- stacks


def test_single_layer_stack_matches_plain_conv():
    rng = np.random.default_rng(7)
    layer = init_conv_layer(2, 3, "linear", rng)
    x = rng.standard_normal((2, 4, 4, 2))
    out_s, caches = stack_forward(x, [layer])
    out_c, _ = conv3d_forward(x, layer)
    assert np.array_equal(out_s, out_c)
    assert len(caches) == 1


def test_stack_shapes_and_plan():
    rng = np.random.default_rng(8)
    enc = make_encode_stack(6, 3, rng)
    dec = make_decode_stack(6, 3, rng)
    assert [(l.in_channels, l.out_channels, l.activation) for l in enc] == [
        (2, 6, "relu"), (6, 6, "relu"), (6, 6, "linear")]
    assert [(l.in_channels, l.out_channels, l.activation) for l in dec] == [
        (6, 6, "relu"), (6, 6, "relu"), (6, 2, "linear")]
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

    out, caches = stack_forward(x, layers)
    grad_in, grads = stack_backward(c, caches, layers)
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
def test_stack_param_grads_match_stack_backward(monkeypatch, depth):
    # the same parameter gradients, bit for bit, with one correlation fewer:
    # the first layer's input gradient is never formed
    rng = np.random.default_rng(16)
    layers = make_encode_stack(4, depth, rng)
    x = rng.standard_normal((2, 5, 4, 3))
    c = rng.standard_normal((4, 5, 4, 3))
    _, caches = stack_forward(x, layers)
    _, want = stack_backward(c, caches, layers)
    calls = []
    correlate = dynmr.conv3d._correlate
    monkeypatch.setattr(dynmr.conv3d, "_correlate",
                        lambda *args: calls.append(1) or correlate(*args))
    got = stack_param_grads(c, caches, layers)
    assert len(calls) == depth - 1
    assert len(got) == depth
    for (gw, gb), (ww, wb) in zip(got, want):
        assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


def test_init_bounds_and_determinism():
    a = init_conv_layer(4, 8, "relu", np.random.default_rng(10))
    b = init_conv_layer(4, 8, "relu", np.random.default_rng(10))
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
