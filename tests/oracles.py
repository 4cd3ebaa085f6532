"""Independent references the tests compare the library against.

x_update_cg solves the solver's data-consistency normal equations by
conjugate gradients, as the reference for the closed form.  The identity conv
stacks and neutral_phase_params build a phase whose denoising block is the
exact identity, which pins the unrolled network to one classical iteration.
inverse_penalty_two_pass is the inversion penalty as a second pass over a
finished forward cache, the reference for the penalty folded into
network_backward.  The gradient tests take their central difference from
dynmr.gradcheck.fd_at.
"""

from typing import NamedTuple

import numpy as np

from dynmr.attention import AttnParams
from dynmr.conv3d import (
    KERNEL,
    Conv3dLayer,
    stack_backward,
    stack_forward,
    stack_param_grads,
)
from dynmr.errors import NumericalError
from dynmr.network import PhaseParams, _raw
from dynmr.volume import check_same_shape, fro_norm

class CgInfo(NamedTuple):
    n_iters: int
    residual: float  # relative to ||rhs||


def x_update_cg(z, l, atb, encoder, mu):
    """Solve (A^H A + mu I) x = atb + mu (z - l) by conjugate gradients.

    Returns (x, CgInfo).  Stops at a residual of 1e-8 relative to the
    right-hand side, or after 100 iterations.  The operator is Hermitian
    positive definite with spectrum {mu, 1 + mu}, so a handful suffices.
    """
    if mu <= 0:
        raise ValueError("mu must be > 0")
    check_same_shape(z, l)
    check_same_shape(z, atb)

    def apply(v):
        return encoder.normal(v) + mu * v

    rhs = atb + mu * (z - l)
    rhs_norm = fro_norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), CgInfo(0, 0.0)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = np.vdot(r, r).real
    n_done = 0
    for _ in range(100):
        if np.sqrt(rs) <= 1e-8 * rhs_norm:
            break
        ap = apply(p)
        alpha = rs / np.vdot(p, ap).real
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = np.vdot(r, r).real
        if not np.isfinite(rs_new):
            raise NumericalError("non-finite residual in CG x-update")
        p = r + (rs_new / rs) * p
        rs = rs_new
        n_done += 1
    return x, CgInfo(n_done, float(np.sqrt(rs) / rhs_norm))


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


def neutral_phase_params(nc, mu, eta):
    """A phase whose denoising block is the exact identity.

    Identity conv stacks plus a gate biased hard negative, so the learned
    threshold is exactly zero and Z = X + L.  With these parameters one phase
    reduces to one classical iteration, which pins down the unrolled wiring.
    """
    attn = AttnParams(
        w1=np.zeros((nc, nc)),
        b1=np.zeros(nc),
        w2=np.zeros((nc, nc)),
        b2=np.full(nc, -1.0e4),
    )
    return PhaseParams(
        f_stack=identity_encode_stack(nc),
        fhat_stack=identity_decode_stack(nc),
        attn=attn,
        mu_raw=_raw(mu),
        eta_raw=_raw(eta),
    )


def inverse_penalty_two_pass(cache, params):
    """Soft inversion penalty sum_p ||decode(encode(v_p)) - v_p||^2.

    v_p is the denoising-block input of phase p, taken from the forward cache
    and treated as a constant: the returned gradients cover only the conv
    stacks of each phase and do not flow into earlier phases.  The decode
    stack is re-run here without the attention step in between.
    """
    total = 0.0
    grads = {}
    for n, (pc, phase) in enumerate(zip(cache.phases, params.phases)):
        tag = f"phase{n:02d}"
        c_in = pc.f_caches[0].x
        f_out = pc.attn_cache.u
        pen_out, pen_caches = stack_forward(f_out, phase.fhat_stack)
        r = pen_out - c_in
        total += float(np.sum(r * r))
        g, fhat_grads = stack_backward(2.0 * r, pen_caches, phase.fhat_stack)
        f_grads = stack_param_grads(g, pc.f_caches, phase.f_stack)
        for j, (gw, gb) in enumerate(f_grads):
            grads[f"{tag}.f{j}.w"] = gw
            grads[f"{tag}.f{j}.b"] = gb
        for j, (gw, gb) in enumerate(fhat_grads):
            grads[f"{tag}.fhat{j}.w"] = gw
            grads[f"{tag}.fhat{j}.b"] = gb
    return total, grads
