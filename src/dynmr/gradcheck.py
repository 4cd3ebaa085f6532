"""Finite-difference spot check of the network's analytic gradients.

One problem: a two-phase nc=4 network on 8x8x3 under a 4-spoke radial mask,
loss MSE + zeta * sum_p ||decode_p(encode_p(v_p)) - v_p||^2, the objective
training reports, with v_p phase p's block input taken from a fresh forward
at every evaluation, so the penalty's gradient flows into earlier phases.
Walking every tensor at zeta 0 gives the conv, attention and mu/eta rows (two
phases chain every conv and attention input gradient into a phase-0 tensor);
walking every tensor again at ZETA gives the penalty row.
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

    def loss(zeta):
        out, fresh = network_forward(b, enc, params, cfg)
        total = mse_loss(out, gt)[0]
        for (x, l), phase in zip(fresh.states, params.phases) if zeta else ():
            v = to_channels(x + l)
            u = stack_forward(v, phase.f_stack)[0]
            r = stack_forward(u, phase.fhat_stack)[0] - v
            total += zeta * float(np.sum(r * r))
        return total

    worst = {}
    for zeta in (0.0, ZETA):
        grads, _ = network_backward(gloss, cache, params, zeta)
        for name, arr in named_tensors(params):
            row = "penalty" if zeta else KIND_ROWS.get(name.split(".")[1], "conv")
            for k in rng.choice(arr.size, size=min(2, arr.size), replace=False):
                idx = np.unravel_index(k, arr.shape)
                fd = fd_at(lambda: loss(zeta), arr, idx)
                an = float(grads[name][idx])
                err = abs(fd - an) / (ATOL + RTOL * max(abs(fd), abs(an)))
                worst[row] = max(worst.get(row, 0.0), err)
    return [CheckResult(row, err, bool(err <= 1.0)) for row, err in worst.items()]
