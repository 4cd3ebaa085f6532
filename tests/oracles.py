"""Independent references the tests compare the library against.

x_update_cg solves the solver's data-consistency normal equations by
conjugate gradients, as the reference for the closed form.  The identity conv
stacks and neutral_phase_params build a phase whose denoising block is the
exact identity, which pins the unrolled network to one classical iteration.
stored_block_caches is the training forward that keeps every phase's z and
conv layer inputs and encode output u, the reference for what
network_backward rebuilds from its PhaseCache of l and x.
inverse_penalty_two_pass is the inversion penalty as a second pass over those
stored caches, with its own backward through both conv stacks: the reference
for the last phase's penalty gradients, which network_backward folds into its
one encode stack backward.  make_pseudo_radial_mask_loop is the radial mask
rasterized one spoke at a time, the reference for the vectorized one.  The
gradient tests take their central difference from dynmr.gradcheck.fd_at.
"""

import math
from typing import NamedTuple

import numpy as np

from dynmr.admm import AdmmState, xl_step
from dynmr.attention import AttnParams, attn_forward
from dynmr.conv3d import KERNEL, Conv3dLayer, stack_backward, stack_forward
from dynmr.encoding import GOLDEN_FRACTION
from dynmr.errors import NumericalError
from dynmr.network import BlockCaches, PhaseParams, _raw, eta_of, mu_of
from dynmr.volume import check_same_shape, from_channels, fro_norm, to_channels

class CgInfo(NamedTuple):
    n_iters: int
    residual: float  # relative to ||rhs||


def x_update_cg(z, l, atb, encoder, mu):
    """Solve (A^H A + mu I) x = atb + mu (z - l) by conjugate gradients.

    Returns (x, CgInfo).  Stops at a residual of 1e-8 relative to the
    right-hand side, or after 100 iterations.  The operator is Hermitian
    positive definite with spectrum {mu, 1 + mu}, so a handful suffices.
    """
    if not mu > 0:
        raise ValueError("mu must be > 0")
    check_same_shape(z, l)
    check_same_shape(z, atb)

    def apply(v):
        return encoder.adjoint(encoder.forward(v)) + mu * v

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
    return [Conv3dLayer(weights=w1, bias=np.zeros(nc)),
            Conv3dLayer(weights=w2, bias=np.zeros(nc))]


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
    return [Conv3dLayer(weights=w1, bias=np.zeros(nc)),
            Conv3dLayer(weights=w2, bias=np.zeros(2))]


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


def stored_block_caches(b, encoder, params):
    """Every phase's (z, BlockCaches), from a forward that stores them all."""
    atb = encoder.adjoint(b)
    d = encoder.samples(atb)
    state = AdmmState(x=atb, z=None, l=np.zeros_like(atb))
    stored = []
    for n, phase in enumerate(params.phases):
        u, f_ins = stack_forward(to_channels(state.x + state.l), phase.f_stack)
        fhat_out, fhat_ins = stack_forward(attn_forward(u, phase.attn), phase.fhat_stack)
        state.z = from_channels(fhat_out)
        stored.append((state.z, BlockCaches(f_ins, u, fhat_ins)))
        xl_step(state, d, encoder, mu_of(phase), eta_of(phase), f"phase {n}")
    return stored


def inverse_penalty_two_pass(stored, params):
    """Soft inversion penalty sum_p ||decode(encode(v_p)) - v_p||^2.

    v_p is the denoising-block input of phase p, taken from its stored
    BlockCaches and held constant: the returned gradients are each phase's
    own conv stacks' share of its own penalty, and none flows into earlier
    phases.  That is the whole penalty gradient of the last phase's tensors,
    which no later penalty reads, and of a one-phase net.  The decode stack is
    re-run here without the attention step in between, and the encode stack's
    input gradient is formed and dropped.
    """
    total = 0.0
    grads = {}
    for n, ((_, bc), phase) in enumerate(zip(stored, params.phases)):
        tag = f"phase{n:02d}"
        c_in = bc.f_ins[0]
        f_out = bc.u
        pen_out, pen_ins = stack_forward(f_out, phase.fhat_stack)
        r = pen_out - c_in
        total += float(np.sum(r * r))
        g, fhat_grads = stack_backward(2.0 * r, pen_ins, phase.fhat_stack)
        _, f_grads = stack_backward(g, bc.f_ins, phase.f_stack)
        for j, (gw, gb) in enumerate(f_grads):
            grads[f"{tag}.f{j}.w"] = gw
            grads[f"{tag}.f{j}.b"] = gb
        for j, (gw, gb) in enumerate(fhat_grads):
            grads[f"{tag}.fhat{j}.w"] = gw
            grads[f"{tag}.fhat{j}.b"] = gb
    return total, grads


def make_pseudo_radial_mask_loop(shape, n_spokes, seed=0):
    """The pseudo-radial mask, rasterized one frame, spoke and sign at a time."""
    h, w, t = shape
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, math.pi / n_spokes)
    cy, cx = h // 2, w // 2
    rmax = math.hypot(max(cy, h - 1 - cy), max(cx, w - 1 - cx))
    radii = np.arange(0.0, rmax + 0.5, 0.5)
    mask = np.zeros((h, w, t), dtype=np.uint8)
    for f in range(t):
        offset = base + f * (math.pi / n_spokes) * GOLDEN_FRACTION
        for s in range(n_spokes):
            ang = offset + s * math.pi / n_spokes
            dy = radii * math.sin(ang)
            dx = radii * math.cos(ang)
            for sign in (1.0, -1.0):
                ys = np.rint(cy + sign * dy).astype(np.int64)
                xs = np.rint(cx + sign * dx).astype(np.int64)
                keep = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
                mask[ys[keep], xs[keep], f] = 1
        mask[cy, cx, f] = 1
    return mask
