"""Supervised training on retrospectively undersampled volumes.

Each step simulates an acquisition from one ground-truth volume (mask, FFT,
optional noise), runs the unrolled network, and takes one Adam step on the
mean-squared error, optionally plus a weighted conv-stack inversion penalty
that the same reverse sweep differentiates.  Masks are regenerated per (seed,
epoch, sample) so the network never sees the same sampling twice unless the
sampler ignores the seed.  Everything is deterministic under a fixed seed.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .encoding import Encoder, add_noise
from .errors import NumericalError
from .fileio import save_checkpoint
from .network import (
    check_params,
    init_network_params,
    named_tensors,
    network_backward,
    network_forward,
)

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class TrainConfig:
    lr0: float = 1e-3
    decay: float = 0.95
    decay_steps: int = None  # None: resolved to one epoch's step count
    epochs: int = 1
    batch: int = 1
    seed: int = 0
    zeta: float = 0.0  # inverse-penalty weight
    sigma: float = 0.0  # measurement noise std, 0 = noiseless

    def __post_init__(self):
        if not 0 < self.lr0 < math.inf:
            raise ValueError("lr0 must be finite and positive")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        if self.decay_steps is not None and self.decay_steps < 1:
            raise ValueError("decay_steps must be >= 1")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch must be >= 1")
        if not 0 <= self.seed < 2**63:  # the checkpoint stores it as an i64
            raise ValueError("seed must be in [0, 2^63)")
        if not (0 <= self.zeta < math.inf and 0 <= self.sigma < math.inf):
            raise ValueError("zeta and sigma must be finite and >= 0")


def mse_loss(x_hat, x_gt):
    """Mean squared error over all 2*h*w*t real components.

    Returns (loss, gradient wrt x_hat) with the gradient packed as a complex
    volume (real part = derivative wrt the real channel, imaginary likewise).
    """
    if x_hat.shape != x_gt.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_gt.shape}")
    diff = x_hat - x_gt
    count = 2 * diff.size
    with np.errstate(over="ignore"):  # an overflow is the caller's non-finite loss
        loss = float(np.sum(diff.real**2 + diff.imag**2)) / count
    return loss, 2.0 * diff / count


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam(tensors):
    return AdamState(
        m={name: np.zeros_like(arr) for name, arr in tensors.items()},
        v={name: np.zeros_like(arr) for name, arr in tensors.items()},
    )


def adam_step(tensors, grads, state, lr):
    """One bias-corrected Adam update in place; a NumericalError changes nothing."""
    for name in tensors:
        if not np.all(np.isfinite(grads[name])):
            raise NumericalError(f"non-finite gradient in {name}")
    state.t += 1
    c1 = 1.0 - BETA1**state.t
    c2 = 1.0 - BETA2**state.t
    for name, p in tensors.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def lr_schedule(step, cfg):
    """lr0 * decay^(step / decay_steps), continuous exponent."""
    if cfg.decay_steps is None:
        raise ValueError("decay_steps is unresolved")
    return cfg.lr0 * cfg.decay ** (step / cfg.decay_steps)


@dataclass
class StepRecord:
    step: int
    lr: float
    mse: float
    penalty: float
    total: float


def _sample_seed(cfg, epoch, idx, tag=None):
    entropy = (cfg.seed, epoch, idx) if tag is None else (cfg.seed, epoch, idx, tag)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def train_loop(dataset, sampler, net_cfg, train_cfg, params=None, ckpt_path=None):
    """Train on a list of ground-truth volumes; returns (params, history).

    sampler is a callable (shape, seed) -> mask, called with a fresh derived
    seed per (epoch, sample); one that ignores the seed gives a fixed
    operator.  With batch > 1, gradients are averaged over the batch
    before the Adam step.  A checkpoint is rewritten at ckpt_path after every
    epoch when a path is given.  Given params must match net_cfg (ValueError).
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    cfg = train_cfg
    steps_per_epoch = math.ceil(len(dataset) / cfg.batch)
    if cfg.decay_steps is None:
        cfg = replace(cfg, decay_steps=steps_per_epoch)
    if params is None:
        params = init_network_params(net_cfg, seed=cfg.seed)
    else:
        check_params(params, net_cfg)
    tensors = dict(named_tensors(params))
    state = init_adam(tensors)
    history = []
    step = 0
    for epoch in range(cfg.epochs):
        for start in range(0, len(dataset), cfg.batch):
            idxs = range(start, min(start + cfg.batch, len(dataset)))
            grads = None
            mse_sum = 0.0
            pen_sum = 0.0
            for idx in idxs:
                gt = dataset[idx]
                enc = Encoder(sampler(gt.shape, _sample_seed(cfg, epoch, idx)))
                b = enc.forward(gt)
                if cfg.sigma > 0:
                    b = add_noise(
                        b, cfg.sigma, seed=_sample_seed(cfg, epoch, idx, 1), mask=enc.mask
                    )
                x_hat, cache = network_forward(b, enc, params, net_cfg)
                loss, gloss = mse_loss(x_hat, gt)
                if not np.isfinite(loss):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch}, sample {idx}"
                    )
                sample_grads, pen = network_backward(gloss, cache, params, cfg.zeta)
                if grads is None:
                    grads = sample_grads
                else:
                    for name, grad in grads.items():
                        grad += sample_grads[name]
                mse_sum += loss
                pen_sum += pen
            nb = len(idxs)
            if nb > 1:
                for grad in grads.values():
                    grad /= nb
            lr = lr_schedule(step, cfg)
            adam_step(tensors, grads, state, lr)
            mse = mse_sum / nb
            pen = pen_sum / nb
            history.append(
                StepRecord(
                    step=step, lr=lr, mse=mse, penalty=pen, total=mse + cfg.zeta * pen
                )
            )
            step += 1
        if ckpt_path is not None:
            save_checkpoint(ckpt_path, params, net_cfg, step=step, seed=train_cfg.seed)
    return params, history
