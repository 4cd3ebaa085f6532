"""Finite-difference spot checks of the analytic backward passes.

Each suite builds a small random problem, computes analytic gradients, and
compares them against central differences at a random subset of coordinates.
This is a fast smoke gate; the exhaustive sweeps live in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .attention import attn_backward, attn_forward, init_attn_params
from .conv3d import (
    conv3d_backward,
    conv3d_forward,
    init_conv_layer,
    make_encode_stack,
    stack_backward,
    stack_forward,
)
from .encoding import Encoder, make_pseudo_radial_mask
from .network import (
    NetworkConfig,
    init_network_params,
    named_tensors,
    network_backward,
    network_forward,
)
from .training import mse_loss

FD_STEP = 1e-6
ATOL = 1e-7
RTOL = 1e-4


@dataclass
class CheckResult:
    name: str
    max_err: float  # worst |fd - analytic| / (atol/rtol allowance)
    ok: bool


def _fd(fun, arr, idx, h=FD_STEP):
    orig = arr[idx]
    arr[idx] = orig + h
    fp = fun()
    arr[idx] = orig - h
    fm = fun()
    arr[idx] = orig
    return (fp - fm) / (2.0 * h)


def _compare(fun, arr, grad, rng, n_coords):
    """Worst scaled error over randomly chosen coordinates of one tensor."""
    flat_idx = rng.choice(arr.size, size=min(n_coords, arr.size), replace=False)
    worst = 0.0
    for k in flat_idx:
        idx = np.unravel_index(int(k), arr.shape) if arr.ndim else ()
        fd = _fd(fun, arr, idx)
        an = float(grad[idx]) if grad.ndim else float(grad)
        scale = ATOL + RTOL * max(abs(fd), abs(an))
        worst = max(worst, abs(fd - an) / scale)
    return worst


def _check_attention(seed):
    rng = np.random.default_rng(seed)
    nc = 3
    params = init_attn_params(nc, rng)
    u = rng.standard_normal((nc, 4, 4, 2))
    c = rng.standard_normal((nc, 4, 4, 2))

    def loss():
        out, _ = attn_forward(u, params)
        return float(np.sum(out * c))

    out, cache = attn_forward(u, params)
    g_in, g_p = attn_backward(c, cache, params)
    worst = _compare(loss, u, g_in, rng, 6)
    for arr, grad in (
        (params.w1, g_p.w1),
        (params.b1, g_p.b1),
        (params.w2, g_p.w2),
        (params.b2, g_p.b2),
    ):
        worst = max(worst, _compare(loss, arr, grad, rng, 4))
    return worst


def _check_conv_layer(seed):
    rng = np.random.default_rng(seed)
    layer = init_conv_layer(2, 3, "relu", rng)
    x = rng.standard_normal((2, 4, 4, 3))
    c = rng.standard_normal((3, 4, 4, 3))

    def loss():
        out, _ = conv3d_forward(x, layer)
        return float(np.sum(out * c))

    out, cache = conv3d_forward(x, layer)
    g_in, g_w, g_b = conv3d_backward(c, cache, layer)
    worst = _compare(loss, x, g_in, rng, 6)
    worst = max(worst, _compare(loss, layer.weights, g_w, rng, 6))
    worst = max(worst, _compare(loss, layer.bias, g_b, rng, 3))
    return worst


def _check_stack(seed):
    rng = np.random.default_rng(seed)
    layers = make_encode_stack(4, 2, rng)
    x = rng.standard_normal((2, 4, 4, 2))
    c = rng.standard_normal((4, 4, 4, 2))

    def loss():
        out, _ = stack_forward(x, layers)
        return float(np.sum(out * c))

    out, caches = stack_forward(x, layers)
    g_in, grads = stack_backward(c, caches, layers)
    worst = _compare(loss, x, g_in, rng, 6)
    for layer, (g_w, g_b) in zip(layers, grads):
        worst = max(worst, _compare(loss, layer.weights, g_w, rng, 4))
        worst = max(worst, _compare(loss, layer.bias, g_b, rng, 2))
    return worst


def _check_network(seed):
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(n_phases=2, nc=4)
    params = init_network_params(cfg, seed=seed)
    shape = (8, 8, 3)
    gt = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    enc = Encoder(make_pseudo_radial_mask(shape, 4, seed=seed))
    b = enc.forward(gt)

    def loss():
        x_hat, _ = network_forward(b, enc, params, cfg, want_cache=False)
        return mse_loss(x_hat, gt)[0]

    x_hat, cache = network_forward(b, enc, params, cfg)
    _, gloss = mse_loss(x_hat, gt)
    grads, _ = network_backward(gloss, cache, params)
    worst = 0.0
    for name, arr in named_tensors(params):
        worst = max(worst, _compare(loss, arr, grads[name], rng, 2))
    return worst


def run_gradcheck(seed=0):
    """Run every suite; returns a list of CheckResult (ok iff err <= 1)."""
    suites = (
        ("attention", _check_attention),
        ("conv-layer", _check_conv_layer),
        ("conv-stack", _check_stack),
        ("network", _check_network),
    )
    results = []
    for name, fn in suites:
        err = fn(seed)
        results.append(CheckResult(name=name, max_err=err, ok=bool(err <= 1.0)))
    return results
