"""The three benchmark workloads: set-up, one op, per-op checks, validation.

Every workload runs in one process as a closed loop with one client: the next
op starts only after the previous one returned.  Inputs come only from the
workload seed.  The program sees files and arrays, never the seed-to-input
rule.

- `admm`: one op is one in-process `dynmr recon-admm` call (closed-form DC,
  50 iterations) on a 64x64x16 phantom with a 16-spoke radial mask.  About
  half of an op is `fft2_frames` and a quarter the per-iteration objective;
  no network code runs, so it is the bypass workload for every network
  change and the exercise workload for DC and objective work.
- `net_infer`: one op is one in-process `dynmr recon-net` call on the
  paper-default network (15 phases, nc=16) for 32x32x8 with 8 spokes.  The
  im2col conv3d forward is nearly all of it; no backward pass runs.
- `net_train`: one op is one optimizer step inside a single
  `training.train_loop` call at the toy config (3 phases, nc=8, 32x32x8,
  4 spokes, 8 samples per epoch) with the inversion penalty on and a
  checkpoint written every epoch.  conv3d backward and the forward cache
  dominate, at half the channel width of `net_infer`.

Ops on `admm` and `net_infer` rotate through a seeded set of distinct
phantoms and masks, so no two consecutive ops share a mask.  `net_train`
draws a fresh mask every step through the sampler it passes to train_loop,
which is also where step boundaries are timestamped.
"""

import os
import time
import traceback

import numpy as np

from dynmr import cli, encoding, fileio, metrics, network, phantom, training
from dynmr.errors import FormatError

from config import (
    ADMM_LAMBDA,
    ADMM_MU,
    NET_INIT_SEED,
    SIZES,
    TRAIN_DECAY,
    TRAIN_EPOCHS,
    TRAIN_LR0,
    TRAIN_ZETA,
    VALIDATION_SEED,
)

# Seed streams: 0/1 timed phantoms/masks, 2 training set, 10/11 validation.
TRAIN_STREAM = 2
VALIDATION_STREAM = 10


class Stop(Exception):
    """Raised at an op boundary once the run has done its ops."""


class OpClock:
    """Op boundaries.  Op 0 is the untimed warm-up; its end is the ready time.

    The run stops at the first boundary after `seconds` of timed ops, or after
    `n_ops` timed ops; with neither, right after the warm-up (set-up only).
    """

    def __init__(self, tracer, seconds=None, n_ops=None):
        self.tracer = tracer
        self.seconds = seconds
        self.n_ops = n_ops
        self.started = 0
        self.is_open = False
        self.ready_t = None
        self.end_t = None
        self.walls = []
        self.unattributed = []
        self._t0 = 0.0
        self._covered0 = 0.0

    def begin(self):
        now = time.perf_counter()
        if self.started >= 1:
            timed = self.started - 1
            if self.n_ops is not None:
                done = timed >= self.n_ops
            elif self.seconds is None:
                done = True
            else:
                done = now - self.ready_t >= self.seconds
            if done:
                raise Stop
        self.is_open = True
        self._t0 = now
        if self.tracer is not None:
            self.tracer.op = self.started
            self._covered0 = self.tracer.covered_s
        self.started += 1
        return self.started - 1

    def end(self):
        now = time.perf_counter()
        self.is_open = False
        if self.started == 1:
            self.ready_t = now
        else:
            wall = now - self._t0
            self.walls.append(wall)
            if self.tracer is not None:
                self.unattributed.append(wall - (self.tracer.covered_s - self._covered0))
        self.end_t = now


def _seeds(seed, n, stream):
    """n distinct 31-bit seeds for one input stream of a workload seed."""
    state = np.random.SeedSequence([seed, stream]).generate_state(n)
    return [int(s) & 0x7FFFFFFF for s in state]


def _make_inputs(shape, spokes, seed, n, stream=0):
    """n (phantom, radial mask) pairs drawn from one seed; no two masks equal.

    Nearby seeds can rasterize to the same radial mask, so mask seeds that
    repeat an earlier mask are skipped.
    """
    masks = []
    for ms in _seeds(seed, 8 * n, stream + 1):
        mask = encoding.make_pseudo_radial_mask(shape, spokes, seed=ms)
        if not any(np.array_equal(mask, m) for m in masks):
            masks.append(mask)
            if len(masks) == n:
                break
    else:
        raise RuntimeError(f"could not draw {n} distinct masks")
    gts = [
        phantom.generate_phantom(phantom.PhantomSpec(shape=shape, seed=ps))
        for ps in _seeds(seed, n, stream)
    ]
    return list(zip(gts, masks))


def _volume_ok(x, shape):
    return (
        isinstance(x, np.ndarray)
        and x.shape == shape
        and np.iscomplexobj(x)
        and bool(np.all(np.isfinite(x)))
    )


class CliWorkload:
    """`admm` and `net_infer`: each op is one `dynmr.cli.main` call."""

    def __init__(self, name, size, workdir, seed):
        self.name = name
        self.p = SIZES[size][name]
        self.workdir = workdir
        self.seed = seed
        self.inputs = []  # (gt path, mask path) of each timed input
        self.out_path = os.path.join(workdir, "out.dmrt")
        self.reference = {}  # input index -> first output that passed its checks
        self.op_inputs = {}  # op index -> input index
        self.failed = set()
        self.corrupt = False  # self-test hook: spoil the first timed op's output

    def setup(self):
        shape = self.p["shape"]
        pairs = _make_inputs(shape, self.p["spokes"], self.seed, self.p["n_inputs"])
        self.gts, self.masks = zip(*pairs)
        self.inputs = [
            self._write_inputs(f"in{k}", gt, mask)
            for k, (gt, mask) in enumerate(zip(self.gts, self.masks))
        ]
        if self.name == "net_infer":
            cfg = network.NetworkConfig(n_phases=self.p["n_phases"], nc=self.p["nc"])
            params = network.init_network_params(cfg, seed=NET_INIT_SEED)
            self.ckpt_path = os.path.join(self.workdir, "net.dusc")
            fileio.save_checkpoint(self.ckpt_path, params, cfg, seed=NET_INIT_SEED)

    def _write_inputs(self, tag, gt, mask):
        gt_path = os.path.join(self.workdir, f"{tag}.gt.dmrt")
        mask_path = os.path.join(self.workdir, f"{tag}.mask.dmrt")
        fileio.save_dmrt(gt_path, gt)
        fileio.save_dmrt(mask_path, mask)
        return gt_path, mask_path

    def argv(self, gt_path, mask_path):
        if self.name == "admm":
            return [
                "recon-admm", "--data", gt_path, "--mask", mask_path,
                "--lambda", ADMM_LAMBDA, "--mu", ADMM_MU,
                "--iters", str(self.p["iters"]), "--out", self.out_path,
            ]
        return [
            "recon-net", "--ckpt", self.ckpt_path, "--data", gt_path,
            "--mask", mask_path, "--out", self.out_path,
        ]

    def run(self, clock, tracer, log):
        while True:
            op = clock.begin()
            k = op % len(self.inputs)
            self.op_inputs[op] = k
            try:
                code = cli.main(self.argv(*self.inputs[k]))
            except Exception:  # an op that raises counts as failed
                log(f"op {op} raised:\n{traceback.format_exc()}")
                code = None
            clock.end()
            with tracer.paused():
                self._check(op, k, code, log)

    def _check(self, op, k, code, log):
        if code != 0:
            log(f"op {op}: exit code {code}")
            self.failed.add(op)
            return
        out = fileio.load_dmrt(self.out_path)
        if self.corrupt and op == 1:
            out = out.copy()
            out[0, 0, 0] = np.nan
        if not _volume_ok(out, self.p["shape"]):
            log(f"op {op}: output not finite or of the wrong shape")
            self.failed.add(op)
            return
        ref = self.reference.get(k)
        if ref is None:
            self.reference[k] = out
        elif ref.tobytes() != out.tobytes():
            log(f"op {op}: repeated input {k} gave a different output")
            self.failed.add(op)

    def validate(self, tracer, log):
        """Checks on the timed inputs, then psnr_db on the fixed validation set.

        On admm every timed input's output must reach at least the PSNR of
        the zero-filled reconstruction.  psnr_db is the mean PSNR of one op
        on each input of a validation set that does not depend on the
        workload seed, so it compares across seeds.
        """
        if len(self.reference) < len(self.inputs):
            log("not every input produced a checked output")
            return None, {}
        detail = {}
        if self.name == "admm":
            margins = []
            for k, out in sorted(self.reference.items()):
                with tracer.paused():
                    enc = encoding.Encoder(self.masks[k])
                    zf = enc.adjoint(enc.forward(self.gts[k]))
                got, floor = metrics.psnr(out, self.gts[k]), metrics.psnr(zf, self.gts[k])
                margins.append(got - floor)
                if not got >= floor:
                    log(f"input {k}: psnr {got:.3f} dB below zero-filled {floor:.3f} dB")
                    self.failed.update(o for o, i in self.op_inputs.items() if i == k)
            detail["margin_over_zero_filled_db"] = margins
        scores, ssims = [], []
        with tracer.paused():
            val = _make_inputs(
                self.p["shape"], self.p["spokes"], VALIDATION_SEED, self.p["n_val"],
                stream=VALIDATION_STREAM,
            )
        for k, (gt, mask) in enumerate(val):
            with tracer.paused():
                code = cli.main(self.argv(*self._write_inputs(f"val{k}", gt, mask)))
                out = fileio.load_dmrt(self.out_path) if code == 0 else None
            if code != 0 or not _volume_ok(out, gt.shape):
                log(f"validation input {k}: exit code {code} or bad output")
                return None, detail
            scores.append(metrics.psnr(out, gt))
            ssims.append(metrics.ssim(out, gt))
        detail.update(psnr_per_input=scores, ssim_per_input=ssims)
        return float(np.mean(scores)), detail


class TrainWorkload:
    """`net_train`: each op is one optimizer step inside one train_loop call."""

    def __init__(self, name, size, workdir, seed):
        self.p = SIZES[size][name]
        self.workdir = workdir
        self.seed = seed
        self.ckpt_path = os.path.join(workdir, "train.dusc")
        self.snapshots = []  # (op that wrote it, in-memory tensors, file bytes)
        self.failed = set()
        self.corrupt = False  # self-test hook: spoil the first timed checkpoint

    def setup(self):
        shape = self.p["shape"]
        base = _seeds(self.seed, 1, TRAIN_STREAM)[0]
        self.dataset = phantom.make_phantom_dataset(self.p["samples"], shape, seed=base)
        self.net_cfg = network.NetworkConfig(n_phases=self.p["n_phases"], nc=self.p["nc"])
        self.train_cfg = training.TrainConfig(
            lr0=TRAIN_LR0, decay=TRAIN_DECAY, epochs=TRAIN_EPOCHS, batch=1,
            seed=self.seed, zeta=TRAIN_ZETA,
        )
        self.params = network.init_network_params(self.net_cfg, seed=NET_INIT_SEED)
        self.tensors = dict(network.named_tensors(self.params))

    def run(self, clock, tracer, log):
        steps_per_epoch = self.p["samples"]
        spokes = self.p["spokes"]

        def sampler(shape, seed):
            if clock.is_open:
                clock.end()
                op = clock.started - 1
                with tracer.paused():
                    self._check_step(op, clock.started % steps_per_epoch == 0, log)
            clock.begin()
            return encoding.make_pseudo_radial_mask(shape, spokes, seed=seed)

        try:
            training.train_loop(
                self.dataset, sampler, self.net_cfg, self.train_cfg,
                params=self.params, ckpt_path=self.ckpt_path,
            )
        except Stop:
            raise
        except Exception as exc:  # the step in progress failed; training cannot go on
            op = clock.started - 1
            log(f"step {op} raised:\n{traceback.format_exc()}")
            if clock.is_open:
                clock.end()
            self.failed.add(op)
            raise Stop from exc

    def _check_step(self, op, epoch_end, log):
        if not all(np.all(np.isfinite(t)) for t in self.tensors.values()):
            log(f"step {op}: non-finite parameters")
            self.failed.add(op)
        if epoch_end:
            with open(self.ckpt_path, "rb") as fh:
                data = fh.read()
            if self.corrupt and op >= 1 and not self.snapshots:
                data = bytearray(data)
                data[len(data) // 2] ^= 0xFF
                data = bytes(data)
            self.snapshots.append(
                (op, {k: v.copy() for k, v in self.tensors.items()}, data)
            )

    def validate(self, tracer, log):
        """Check each epoch-end checkpoint, then score held-out phantoms."""
        check_path = os.path.join(self.workdir, "check.dusc")
        loaded = []
        for op, tensors, data in self.snapshots:
            with tracer.paused():
                with open(check_path, "wb") as fh:
                    fh.write(data)
                try:
                    params, cfg, _, _ = fileio.load_checkpoint(check_path)
                except FormatError as exc:
                    log(f"step {op}: checkpoint does not load: {exc}")
                    self.failed.add(op)
                    continue
            same = cfg == self.net_cfg and all(
                tensors[name].tobytes() == arr.tobytes()
                for name, arr in network.named_tensors(params)
            )
            if not same:
                log(f"step {op}: checkpoint differs from the in-memory parameters")
                self.failed.add(op)
                continue
            loaded.append(params)
        if not loaded:
            log("no epoch-end checkpoint was written and checked")
            return None, {}
        params = loaded[min(self.p["eval_epoch"], len(loaded)) - 1]
        scores = []
        with tracer.paused():
            held_out = _make_inputs(
                self.p["shape"], self.p["spokes"], VALIDATION_SEED, self.p["n_val"],
                stream=VALIDATION_STREAM,
            )
        for gt, mask in held_out:
            with tracer.paused():
                enc = encoding.Encoder(mask)
                b = enc.forward(gt)
                x1, _ = network.network_forward(b, enc, params, self.net_cfg, want_cache=False)
                x2, _ = network.network_forward(b, enc, params, self.net_cfg, want_cache=False)
            if not _volume_ok(x1, gt.shape) or x1.tobytes() != x2.tobytes():
                log("held-out output is not finite or not repeatable")
                return None, {}
            scores.append(metrics.psnr(x1, gt))
        detail = {
            "epochs_checked": len(loaded),
            "eval_epoch": min(self.p["eval_epoch"], len(loaded)),
            "psnr_per_heldout": scores,
        }
        return float(np.mean(scores)), detail


def make(name, size, workdir, seed):
    cls = TrainWorkload if name == "net_train" else CliWorkload
    return cls(name, size, workdir, seed)
