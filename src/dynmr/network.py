"""Unrolled alternating reconstruction network with analytic gradients.

Each phase repeats the three classical update blocks, but the sparsifying
step is replaced by a learned map:

    Z = decode(attn(encode(X + L)))          denoising block
    X = argmin_x ||A x - b||^2/2 + mu/2 ||x - (Z - L)||^2   data consistency
    L = L - eta * (Z - X)                    multiplier block

encode/decode are 3x3x3 conv stacks (2 <-> nc channels), attn is the
channel-attention soft threshold, and mu, eta are learned per phase through a
softplus so they stay positive.  The initial state is the zero-filled adjoint
with L = 0.  z_block is the one denoising-block forward: it streams the conv
stacks through one buffer by conv3d.stack_forward(buf), every layer writing
over its own input and attention shrinking in place, or records every layer
input in a BlockCaches.  Inference streams every phase.  So does training,
which keeps a PhaseCache of L before the phase and X after it, two complex
volumes per phase; only the last phase runs in record mode, and its Z and
BlockCaches go into the NetCache.  The backward re-runs each other phase's
z_block in record mode just before that phase's reverse step, so one phase's
layer inputs are alive at a time.

The forward is the solver's own loop, admm.unroll, with z_block as each
phase's z step: the data-consistency and multiplier blocks are its x and l
steps (see admm), and its NumericalError names the phase when mu is 0 or X
is non-finite.  The backward pass is written out by hand (one reverse sweep over
phases, exact chain rule through the closed-form x step) and is validated against
finite differences.  It differentiates the objective training reports,
loss + zeta * sum_p ||decode_p(encode_p(v_p)) - v_p||^2 with v_p phase p's
block input, the optional ISTA-Net inversion penalty.
Its data-consistency block is the forward's: the step is linear in y, so on
zero data (D = 0) Encoder.data_consistency is its Jacobian I - P/(1 + mu).
The penalty's gradient at the encode output joins the loss gradient in one
encode-stack backward, and its direct term at v_p joins that pass's input
gradient, so the penalty's gradient flows on into the earlier phases.
Gradients flow as a flat dict keyed by the names from named_tensors, one entry
per learnable array, so the optimizer never needs to know the phase structure.
"""

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .admm import unroll, x_update_closed_form
from .attention import AttnParams, attn_backward, attn_forward, init_attn_params
from .conv3d import make_decode_stack, make_encode_stack, stack_backward, stack_forward
from .mathutil import sigmoid, softplus, softplus_inv
from .volume import from_channels, real_inner, to_channels

MU0 = 0.5
ETA0 = 1.0


@dataclass
class NetworkConfig:
    n_phases: int = 15
    nc: int = 16
    f_depth: int = 2
    fhat_depth: int = 2

    def __post_init__(self):
        if self.n_phases < 1:
            raise ValueError("n_phases must be >= 1")
        if self.nc < 1:
            raise ValueError("nc must be >= 1")
        if self.f_depth < 1 or self.fhat_depth < 1:
            raise ValueError("stack depths must be >= 1")


@dataclass
class PhaseParams:
    f_stack: list
    fhat_stack: list
    attn: AttnParams
    mu_raw: np.ndarray  # 0-d; mu = softplus(mu_raw) > 0
    eta_raw: np.ndarray


@dataclass
class NetworkParams:
    phases: list


def mu_of(phase):
    return float(softplus(phase.mu_raw))


def eta_of(phase):
    return float(softplus(phase.eta_raw))


def _raw(value):
    return np.asarray(softplus_inv(float(value)), dtype=np.float64)


class _Zeros:
    """Draws zeros where a Generator draws uniforms: shells without an RNG."""

    def uniform(self, low, high, size):
        return np.zeros(size)


def _new_params(cfg, rng):
    return NetworkParams(phases=[
        PhaseParams(
            f_stack=make_encode_stack(cfg.nc, cfg.f_depth, rng),
            fhat_stack=make_decode_stack(cfg.nc, cfg.fhat_depth, rng),
            attn=init_attn_params(cfg.nc, rng),
            mu_raw=_raw(MU0),
            eta_raw=_raw(ETA0),
        )
        for _ in range(cfg.n_phases)
    ])


def init_network_params(cfg, seed=0):
    """Seeded fresh parameters; every phase gets its own draws."""
    return _new_params(cfg, np.random.default_rng(seed))


def param_shells(cfg):
    """Parameters of cfg's names and shapes, zero weights, drawn from no RNG."""
    return _new_params(cfg, _Zeros())


def _phase_tensors(p, f, fhat, attn, mu_raw, eta_raw):
    """Yield (name, array) in order for phase p's parameters or their gradients."""
    tag = f"phase{p:02d}"
    for kind, stack in (("f", f), ("fhat", fhat)):
        for j, (w, b) in enumerate(stack):
            yield f"{tag}.{kind}{j}.w", w
            yield f"{tag}.{kind}{j}.b", b
    yield f"{tag}.attn.w1", attn.w1
    yield f"{tag}.attn.b1", attn.b1
    yield f"{tag}.attn.w2", attn.w2
    yield f"{tag}.attn.b2", attn.b2
    yield f"{tag}.mu_raw", mu_raw
    yield f"{tag}.eta_raw", eta_raw


def named_tensors(params):
    """Yield (name, array) for every learnable tensor, in a fixed order."""
    for p, phase in enumerate(params.phases):
        f = [(layer.weights, layer.bias) for layer in phase.f_stack]
        fhat = [(layer.weights, layer.bias) for layer in phase.fhat_stack]
        yield from _phase_tensors(p, f, fhat, phase.attn, phase.mu_raw, phase.eta_raw)


def check_params(params, cfg):
    """Raise ValueError unless params has exactly cfg's tensor names and shapes."""
    have = [(name, arr.shape) for name, arr in named_tensors(params)]
    want = [(name, arr.shape) for name, arr in named_tensors(param_shells(cfg))]
    if have != want:
        got, expected = next(p for p in zip_longest(have, want) if p[0] != p[1])
        raise ValueError(f"params do not match {cfg}: {got} where it has {expected}")


@dataclass
class PhaseCache:
    """What the training forward keeps of one phase; block_caches rebuilds the rest."""

    l_prev: np.ndarray
    x: np.ndarray


@dataclass
class BlockCaches:
    """Every layer input of one phase's denoising block; u is the attention input."""

    f_ins: list
    u: np.ndarray
    fhat_ins: list


@dataclass
class NetCache:
    atb: np.ndarray  # A^H b, the zero-filled start
    encoder: object
    phases: list = field(default_factory=list)
    last: tuple = None  # the last phase's (z, BlockCaches) until a sweep takes it


def z_block(x, l, phase, buf=None):
    """Denoising block; returns (z, BlockCaches of every layer input).

    With buf, a float64 array of at least every layer's output shape, the
    block keeps no intermediate and returns (z, None): the first encode layer
    writes buf[:nc], every later layer writes over its input in buf, and
    attention shrinks u in place, forming |u| in the block's 2-channel input,
    which nothing reads after the first layer.
    """
    c_in = to_channels(x + l)
    u, f_ins = stack_forward(c_in, phase.f_stack, buf)
    attn_out = attn_forward(u, phase.attn, None if buf is None else c_in)
    fhat_out, fhat_ins = stack_forward(attn_out, phase.fhat_stack, buf)
    z = from_channels(fhat_out)
    if buf is not None:
        return z, None
    return z, BlockCaches(f_ins, u, fhat_ins)


def block_caches(cache, n, phase):
    """Phase n's (z, BlockCaches) for its reverse step.

    The last phase's pair is taken out of cache.last, which the forward
    filled, so a second sweep over the same cache rebuilds it.  Any other
    phase re-runs z_block in record mode on x_prev + l_prev, x_prev being
    phase n-1's x (A^H b for phase 0): the same calls on the same inputs as
    the forward's, so every array equals the forward's.
    """
    if n == len(cache.phases) - 1 and cache.last is not None:
        kept, cache.last = cache.last, None
        return kept
    x_prev = cache.phases[n - 1].x if n else cache.atb
    return z_block(x_prev, cache.phases[n].l_prev, phase)


def x_block(z, l, d, encoder, mu):
    """The closed-form x step alone, d = encoder.samples(A^H b).

    Kept for the bench's span table.
    """
    return x_update_closed_form(z, l, d, encoder, mu)


def network_forward(b, encoder, params, cfg, want_cache=True):
    """Run all phases from the zero-filled adjoint, one admm.unroll step each.

    Returns (reconstruction, cache), the cache holding A^H b, one PhaseCache
    per phase and the last phase's (z, BlockCaches).  Each phase is one unroll
    step with z_block as its z step, and its NumericalError names the phase
    ("phase 1" for phase01.*).  Every phase's activations stream through one buffer
    allocated here, so memory does not grow with depth or phases; with
    want_cache the last phase runs in record mode instead.  When want_cache
    is False, for plain inference, the cache is None.  The phases come from
    params; cfg is not read, and is accepted only because the bench passes it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # unroll reports a non-finite x
        atb = encoder.adjoint(b)
    cache = NetCache(atb=atb, encoder=encoder) if want_cache else None
    width = max(
        layer.out_channels
        for phase in params.phases
        for layer in phase.f_stack + phase.fhat_stack
    )
    buf = np.empty((width, *atb.shape))

    def phase_step(n, phase):
        def z_step(state):
            state.z = None  # inference then holds one z at a time
            record = want_cache and n == len(params.phases) - 1
            z, bc = z_block(state.x, state.l, phase, None if record else buf)
            if record:
                cache.last = (z, bc)
            return z
        return z_step, mu_of(phase), eta_of(phase), f"phase {n}"

    steps = (phase_step(n, phase) for n, phase in enumerate(params.phases))
    # inference keeps no A^H b: x starts as it and D stands for it in the DC step
    x, l_prev = (atb.copy(), np.zeros_like(atb)) if want_cache else (atb, None)
    for state in unroll(x, encoder, steps):
        if want_cache:
            cache.phases.append(PhaseCache(l_prev, state.x.copy()))
            l_prev = state.l.copy()
    return state.x, cache


@np.errstate(over="ignore", invalid="ignore")
def network_backward(grad_x, cache, params, zeta=0.0):
    """Pull a loss gradient on the output volume back to every parameter.

    Reverse sweep over the phases; each step first gets the phase's z and
    BlockCaches from block_caches and drops each array after its last reader,
    the decode layer inputs once the decode-stack backward has run, so at most
    one phase's layer inputs are alive at a time.  The data-consistency block
    x = y + (A^H b - P y)/(1 + mu), P = A^H A, is linear in y with the
    self-adjoint Jacobian I - P/(1 + mu): the forward's data_consistency step
    on zero data, which pulls an incoming gradient g back in place in g.  As
    x - y = (A^H b - P y)/(1 + mu), dx/dmu = -(x - y)/(1 + mu), so the
    mu-derivative of the loss is -<g, x - y>/(1 + mu), read from the cached
    x without P g or A^H b.  A real grad_x is taken as complex.
    The denoising block pulls back through the decode stack and attention to
    g_u, the gradient at the encode output u.  With zeta > 0 each phase adds
    zeta times its inverse_penalty gradients: on the decode stack directly,
    and on the encode stack through one stack_backward of g_u + zeta * g_pen_u.
    That pass's input gradient, less zeta * 2r (r the penalty's residual at the
    block input v), is the gradient at v of the loss and the penalty.  Phase
    0 forms no input gradient; nothing reads it.
    Returns (grads, penalty): the unweighted sum in phase order, 0.0 at zeta 0.
    """
    if len(cache.phases) != len(params.phases):
        raise ValueError("cache does not match the parameter phase count")
    grads = dict.fromkeys(name for name, _ in named_tensors(params))
    penalties = []
    gx = np.asarray(grad_x, dtype=np.complex128)
    gl = np.zeros_like(gx)
    for n in range(len(params.phases) - 1, -1, -1):
        pc = cache.phases[n]
        phase = params.phases[n]
        mu = mu_of(phase)
        eta = eta_of(phase)
        z, bc = block_caches(cache, n, phase)
        # locals, so each goes after its last reader; bc itself is left whole
        f_ins, u, fhat_ins = bc.f_ins, bc.u, bc.fhat_ins
        del bc

        step = pc.x - z
        g_eta = np.asarray(real_inner(gl, step) * sigmoid(phase.eta_raw))
        g = gx + eta * gl
        step += pc.l_prev  # x - y
        g_mu = np.asarray(-real_inner(g, step) / (1.0 + mu) * sigmoid(phase.mu_raw))
        del z, step
        gy = cache.encoder.data_consistency(g, 0.0, 1.0 / (1.0 + mu))

        gz = gy - eta * gl
        g, fhat_grads = stack_backward(to_channels(gz), fhat_ins, phase.fhat_stack)
        del gz, fhat_ins
        g_u, attn_grads = attn_backward(g, u, phase.attn)
        g = g_u
        if zeta > 0:
            value, g, pen_fhat, r2 = inverse_penalty(u, f_ins[0], phase)
            penalties.append(value)
            g *= zeta
            g += g_u  # g_u + zeta * g_pen_u, in the penalty's buffer
            for (gw, gb), (pw, pb) in zip(fhat_grads, pen_fhat):
                gw += zeta * pw
                gb += zeta * pb
        del u
        gx, f_grads = stack_backward(g, f_ins, phase.f_stack, n > 0)
        if n and zeta > 0:  # the penalty's direct term at v
            r2 *= zeta
            gx -= r2
        del f_ins, g, g_u  # activations the next phase does not read
        grads.update(_phase_tensors(n, f_grads, fhat_grads, attn_grads, g_mu, g_eta))

        if n:
            gx = from_channels(gx)
            gl = gl - gy + gx
    penalty = 0.0
    for value in reversed(penalties):
        penalty += value
    return grads, penalty


def inverse_penalty(u, v, phase):
    """Soft inversion penalty ||decode(encode(v)) - v||^2 of one phase.

    v is the phase's denoising-block input in channels, the first encode
    layer input.  The decode stack is re-run here on the encode output u
    without the attention step in between.  Returns (value, g_pen_u,
    fhat_grads, r2): the penalty's gradient at u, which network_backward adds
    to the loss gradient before the encode stack's one backward pass, the
    decode stack's gradients as per-layer (w, b) pairs, and 2r, r the residual
    decode(u) - v, whose negative is the penalty's direct gradient at v.
    """
    r, pen_ins = stack_forward(u, phase.fhat_stack)
    r -= v  # the residual, in the decode output
    value = float(np.sum(r * r))
    r *= 2.0
    g_pen_u, fhat_grads = stack_backward(r, pen_ins, phase.fhat_stack)
    return value, g_pen_u, fhat_grads, r
