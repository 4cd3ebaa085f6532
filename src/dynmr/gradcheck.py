"""Finite-difference spot check of the network's analytic gradients.

One problem: a two-phase nc=4 network on 8x8x3 under a 4-spoke radial mask,
loss MSE + zeta * sum_p ||decode_p(encode_p(v_p)) - v_p||^2 with each block
input v_p fixed at its reference-forward value, as network_backward has it.
Walking every tensor at zeta 0 gives the conv, attention and mu/eta rows (two
phases chain every conv and attention input gradient into a phase-0 tensor);
walking the conv tensors at ZETA gives the penalty row.
"""

from dataclasses import dataclass

import numpy as np

from .conv3d import stack_forward
from .encoding import Encoder, make_pseudo_radial_mask
from .network import NetworkConfig, init_network_params, named_tensors
from .network import network_backward, network_forward
from .training import mse_loss
from .volume import to_channels

FD_STEP = 1e-6
ATOL = 1e-7
RTOL = 1e-4
ZETA = 0.5  # not 1, so a dropped zeta factor shows
KIND_ROWS = {"attn": "attention", "mu_raw": "mu/eta", "eta_raw": "mu/eta"}  # or conv


@dataclass
class CheckResult:
    name: str
    max_err: float  # worst |fd - analytic| / (atol/rtol allowance)
    ok: bool


def fd_at(fun, arr, idx, h=FD_STEP):
    """Central difference of fun() in arr[idx], restoring arr afterwards."""
    orig = arr[idx]
    arr[idx] = orig + h
    hi = fun()
    arr[idx] = orig - h
    lo = fun()
    arr[idx] = orig
    return (hi - lo) / (2.0 * h)


def run_gradcheck(seed=0):
    """Check the one problem; returns a CheckResult per row (ok iff err <= 1)."""
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(n_phases=2, nc=4)
    params = init_network_params(cfg, seed=seed)
    shape = (8, 8, 3)
    gt = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    enc = Encoder(make_pseudo_radial_mask(shape, 4, seed=seed))
    b = enc.forward(gt)
    x_hat, cache = network_forward(b, enc, params, cfg)
    gloss = mse_loss(x_hat, gt)[1]
    x_prev = [cache.atb] + [pc.x for pc in cache.phases[:-1]]
    inputs = [to_channels(x + pc.l_prev) for x, pc in zip(x_prev, cache.phases)]

    def loss(zeta):
        total = mse_loss(network_forward(b, enc, params, cfg, want_cache=False)[0], gt)[0]
        for v, phase in zip(inputs, params.phases) if zeta else ():
            u = stack_forward(v, phase.f_stack)[0]
            r = stack_forward(u, phase.fhat_stack)[0] - v
            total += zeta * float(np.sum(r * r))
        return total

    worst = {}
    for zeta in (0.0, ZETA):
        grads, _ = network_backward(gloss, cache, params, zeta)
        for name, arr in named_tensors(params):
            row = KIND_ROWS.get(name.split(".")[1], "penalty" if zeta else "conv")
            if zeta and row != "penalty":
                continue
            for k in rng.choice(arr.size, size=min(2, arr.size), replace=False):
                idx = np.unravel_index(k, arr.shape)
                fd = fd_at(lambda: loss(zeta), arr, idx)
                an = float(grads[name][idx])
                err = abs(fd - an) / (ATOL + RTOL * max(abs(fd), abs(an)))
                worst[row] = max(worst.get(row, 0.0), err)
    return [CheckResult(row, err, bool(err <= 1.0)) for row, err in worst.items()]
