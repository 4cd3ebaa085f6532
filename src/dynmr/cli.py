"""Command-line front end for the reconstruction pipeline.

Subcommands cover the whole workflow: synthesize phantoms and masks, run the
classical solver or a trained network on retrospectively undersampled data,
train from a config file, score reconstructions, and smoke-test the analytic
gradients.  Exit codes: 0 success, 2 usage error, 3 data/format error (a
malformed or missing file, a rejected setting, or a volume too large to
allocate), 4 numerical failure (a non-finite result or a collapsed mu).
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .admm import AdmmConfig, iterate, objective, reconstruct
from .encoding import Encoder, make_pseudo_radial_mask, make_vds_mask
from .errors import FormatError, NumericalError
from .fileio import _write_atomic, load_checkpoint, load_dmrt, save_dmrt
from .gradcheck import run_gradcheck
from .metrics import psnr, ssim
from .network import NetworkConfig, network_forward
from .phantom import PhantomSpec, generate_phantom, make_phantom_dataset
from .training import TrainConfig, train_loop
from .volume import fro_norm

PSNR_DISPLAY_CAP = 999.99


def _shape(text):
    parts = text.lower().split("x")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}, expected HxWxT")
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad shape {text!r}, expected HxWxT")
    return dims


def _load_volume(path):
    v = load_dmrt(path)
    if v.ndim != 3:
        raise FormatError(f"{path}: expected a 3-d volume, got shape {v.shape}")
    return v.astype(np.complex128, copy=False)  # load_dmrt returned a fresh array


def _load_mask(path):
    m = load_dmrt(path)
    if m.ndim != 3:
        raise FormatError(f"{path}: expected a 3-d mask, got shape {m.shape}")
    if np.iscomplexobj(m):
        raise FormatError(f"{path}: mask must be real, got {m.dtype}")
    if not np.all((m == 0) | (m == 1)):
        raise FormatError(f"{path}: mask entries must be 0 or 1")
    return m.astype(np.uint8, copy=False)


def _seed(args):
    """args.seed; a negative one is a rejected setting, named here, not by numpy."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _cmd_phantom(args):
    spec = PhantomSpec(
        shape=args.shape, n_ellipses=args.ellipses, motion=args.motion, seed=_seed(args)
    )
    save_dmrt(args.out, generate_phantom(spec))
    return 0


def _sampler(pattern, spokes, accel, center_lines):
    """The (shape, seed) -> mask function of a sampling pattern."""
    if pattern == "radial":
        return lambda shape, seed: make_pseudo_radial_mask(shape, spokes, seed=seed)
    if pattern == "vds":
        return lambda shape, seed: make_vds_mask(
            shape, accel, center_lines=center_lines, seed=seed
        )
    raise FormatError(f"unknown sampling pattern {pattern!r}")


def _cmd_mask(args, parser):
    needed = {"radial": "spokes", "vds": "accel"}[args.pattern]
    if getattr(args, needed) is None:
        parser.error(f"--pattern {args.pattern} requires --{needed}")
    sampler = _sampler(args.pattern, args.spokes, args.accel, args.center_lines)
    save_dmrt(args.out, sampler(args.shape, _seed(args)))
    return 0


def _acquire(args):
    """Retrospective undersampling of --data by --mask; returns (encoder, b)."""
    gt = _load_volume(args.data)
    encoder = Encoder(_load_mask(args.mask))
    return encoder, encoder.forward(gt)


def _cmd_recon_admm(args):
    encoder, b = _acquire(args)
    cfg = AdmmConfig(lam=args.lam, mu=args.mu, eta=args.eta, n_iters=args.iters)
    if args.diag is None:
        x = reconstruct(b, encoder, cfg)
    else:  # the same loop, walked here to report the objective per iteration
        x = encoder.adjoint(b)  # what n_iters = 0 returns
        lines = ["iteration objective fidelity l1 constraint\n"]
        for it, state in enumerate(iterate(b, encoder, cfg), start=1):
            with np.errstate(over="ignore", invalid="ignore"):  # as in unroll's steps
                total, fidelity, l1 = objective(state.x, b, encoder, cfg)
                constraint = fro_norm(state.z - state.x)
            lines.append(
                f"{it} {total:.12e} {fidelity:.12e} {l1:.12e} {constraint:.12e}\n"
            )
            x = state.x
        # written once the solve succeeds, so a failed run keeps the old file
        _write_atomic(args.diag, "".join(lines).encode())
    save_dmrt(args.out, x)
    return 0


@dataclass
class DataConfig:
    """The training set a train config describes: phantoms and their masks."""

    n_samples: int = 8
    shape: tuple = (32, 32, 8)
    ellipses: int = 6
    motion: float = 0.08
    pattern: str = "radial"
    spokes: int = 8
    accel: float = 4.0
    center_lines: int = 4


_TRAIN_SECTIONS = (DataConfig, NetworkConfig, TrainConfig)


def _parse_train_config(path):
    """Read a key=value file into (DataConfig, NetworkConfig, TrainConfig)."""
    declared = [f for cls in _TRAIN_SECTIONS for f in fields(cls)]
    parsers = {f.name: _shape if f.type is tuple else f.type for f in declared}
    values, seen = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value")
            key, _, raw = (part.strip() for part in line.partition("="))
            if key not in parsers:
                raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
            n = seen.setdefault(key, lineno)
            if n != lineno:
                raise FormatError(f"{path}:{lineno}: key {key!r} already set on line {n}")
            try:
                values[key] = parsers[key](raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return [
        cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
        for cls in _TRAIN_SECTIONS
    ]


def _cmd_train(args):
    data, net_cfg, train_cfg = _parse_train_config(args.config)
    sampler = _sampler(data.pattern, data.spokes, data.accel, data.center_lines)
    dataset = make_phantom_dataset(
        data.n_samples,
        data.shape,
        n_ellipses=data.ellipses,
        motion=data.motion,
        seed=train_cfg.seed,
    )
    params, history = train_loop(
        dataset, sampler, net_cfg, train_cfg, ckpt_path=args.out_ckpt
    )
    print("step lr mse penalty total")
    for rec in history:
        print(
            f"{rec.step} {rec.lr:.10e} {rec.mse:.10e} "
            f"{rec.penalty:.10e} {rec.total:.10e}"
        )
    return 0


def _cmd_recon_net(args):
    params, cfg, _, _ = load_checkpoint(args.ckpt)
    encoder, b = _acquire(args)
    x, _ = network_forward(b, encoder, params, cfg, want_cache=False)
    save_dmrt(args.out, x)
    return 0


def _cmd_eval(args):
    recon = _load_volume(args.recon)
    gt = _load_volume(args.gt)
    p = psnr(recon, gt)
    # +inf is an exact match; a NaN or -inf psnr skips ssim, which would warn
    s = ssim(recon, gt) if p > -math.inf else math.nan
    if not math.isfinite(s):
        raise NumericalError("non-finite score")
    shown = PSNR_DISPLAY_CAP if math.isinf(p) else p
    print(f"psnr_db {shown:.6f}")
    print(f"ssim {s:.6f}")
    return 0


def _cmd_gradcheck(args):
    results = run_gradcheck(seed=_seed(args))
    failed = False
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{r.name} scaled_err={r.max_err:.3e} {status}")
        failed = failed or not r.ok
    if failed:
        print("gradcheck: FAILED", file=sys.stderr)
        return 4
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dynmr", description="Dynamic MR reconstruction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="synthesize a dynamic phantom volume")
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--ellipses", type=int, default=6)
    p.add_argument("--motion", type=float, default=0.08)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("mask", help="generate an undersampling mask")
    p.add_argument("--pattern", choices=("radial", "vds"), required=True)
    p.add_argument("--spokes", type=int)
    p.add_argument("--accel", type=float)
    p.add_argument("--center-lines", type=int, default=4)
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda args, _p=p: _cmd_mask(args, _p))

    p = sub.add_parser("recon-admm", help="classical solver on undersampled data")
    p.add_argument("--data", required=True, help="ground-truth volume (DMRT)")
    p.add_argument("--mask", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--mu", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--out", required=True)
    p.add_argument("--diag", help="per-iteration diagnostics file")
    p.set_defaults(func=_cmd_recon_admm)

    p = sub.add_parser("train", help="train the unrolled network")
    p.add_argument("--config", required=True, help="flat key=value file")
    p.add_argument("--out-ckpt", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("recon-net", help="reconstruct with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="ground-truth volume (DMRT)")
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recon_net)

    p = sub.add_parser("eval", help="PSNR/SSIM of a reconstruction")
    p.add_argument("--recon", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient smoke test")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FormatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
