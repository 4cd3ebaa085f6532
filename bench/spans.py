"""Span tracer that wraps dynmr's public functions from outside the package.

`Tracer.install()` replaces every target function in each dynmr module
namespace that holds it (and the target methods on their classes) with a
wrapper that records a span: name, optional class label, start, end, depth
and the op it ran in.  Nothing under src/ changes; the wrappers only
exist in the traced benchmark process.

Per span the tracer keeps the duration and the self time (duration minus the
time of its child spans).  Work counts (`calls`, `gflop`, `mb_moved`, file
megabytes) are computed from argument shapes and file sizes, never timed, so
two traced runs of the same ops give identical counts.  `peak_alloc_mb` is
the tracemalloc peak inside the outermost span of a few large functions,
relative to the traced size at entry.
"""

import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MB = 1e6

# (module, attribute path) of every traced function, in report order.
TARGETS = [
    ("dynmr.cli", "main"),
    ("dynmr.fileio", "load_dmrt"),
    ("dynmr.fileio", "save_dmrt"),
    ("dynmr.fileio", "load_checkpoint"),
    ("dynmr.fileio", "save_checkpoint"),
    ("dynmr.encoding", "fft2_frames"),
    ("dynmr.encoding", "Encoder.forward"),
    ("dynmr.encoding", "Encoder.adjoint"),
    ("dynmr.encoding", "make_pseudo_radial_mask"),
    ("dynmr.phantom", "generate_phantom"),
    ("dynmr.admm", "reconstruct"),
    ("dynmr.admm", "z_update"),
    ("dynmr.admm", "x_update_closed_form"),
    ("dynmr.admm", "l_update"),
    ("dynmr.admm", "objective"),
    ("dynmr.conv3d", "conv3d_forward"),
    ("dynmr.conv3d", "conv3d_backward"),
    ("dynmr.attention", "attn_forward"),
    ("dynmr.attention", "attn_backward"),
    ("dynmr.volume", "to_channels"),
    ("dynmr.volume", "from_channels"),
    ("dynmr.network", "network_forward"),
    ("dynmr.network", "network_backward"),
    ("dynmr.network", "inverse_penalty"),
    ("dynmr.network", "z_block"),
    ("dynmr.network", "x_block"),
    ("dynmr.training", "train_loop"),
    ("dynmr.training", "adam_step"),
    ("dynmr.training", "mse_loss"),
    ("dynmr.metrics", "psnr"),
    ("dynmr.metrics", "ssim"),
]

# Spans whose peak traced allocation is reported.
PEAK_SPANS = ("admm.reconstruct", "network.network_forward", "network.network_backward")
# Spans reported with total (not self) time: file I/O is a leaf either way.
TOTAL_TIME_SPANS = (
    "fileio.load_dmrt",
    "fileio.save_dmrt",
    "fileio.load_checkpoint",
    "fileio.save_checkpoint",
)
CONV_SPANS = ("conv3d.conv3d_forward", "conv3d.conv3d_backward")
CONV_CLASSES = ("in2", "wide", "out2")


def span_name(module, attr):
    return module.split(".", 1)[1] + "." + attr


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_class(layer):
    if layer.in_channels == 2:
        return "in2"
    if layer.out_channels == 2:
        return "out2"
    return "wide"


def _conv_gflop(layer, voxels, passes):
    """2 * N * C_in * C_out * 27 floating-point operations per pass."""
    return passes * 2.0 * voxels * layer.in_channels * layer.out_channels * 27 / 1e9


def _conv_forward_counts(args, kwargs, result):
    x, layer = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "layer")
    voxels = x.shape[1] * x.shape[2] * x.shape[3]
    return _conv_class(layer), {"gflop": _conv_gflop(layer, voxels, 1)}


def _conv_backward_counts(args, kwargs, result):
    # Backward is two passes of forward size: weight gradient and input gradient.
    g, layer = _arg(args, kwargs, 0, "grad_out"), _arg(args, kwargs, 2, "layer")
    voxels = g.shape[1] * g.shape[2] * g.shape[3]
    return _conv_class(layer), {"gflop": _conv_gflop(layer, voxels, 2)}


def _fft_counts(args, kwargs, result):
    # Computed bytes moved: one read of the input and one write of the output.
    v = _arg(args, kwargs, 0, "v")
    return None, {"mb_moved": (v.nbytes + result.nbytes) / MB}


def _load_counts(args, kwargs, result):
    return None, {"read_mb": os.path.getsize(_arg(args, kwargs, 0, "path")) / MB}


def _save_counts(args, kwargs, result):
    return None, {"written_mb": os.path.getsize(_arg(args, kwargs, 0, "path")) / MB}


COUNTERS = {
    "conv3d.conv3d_forward": _conv_forward_counts,
    "conv3d.conv3d_backward": _conv_backward_counts,
    "encoding.fft2_frames": _fft_counts,
    "fileio.load_dmrt": _load_counts,
    "fileio.load_checkpoint": _load_counts,
    "fileio.save_dmrt": _save_counts,
    "fileio.save_checkpoint": _save_counts,
}


class _Frame:
    __slots__ = ("name", "start", "child_s", "alloc_base", "owns_malloc")

    def __init__(self, name):
        self.name = name
        self.start = 0.0
        self.child_s = 0.0
        self.alloc_base = None
        self.owns_malloc = False


class Tracer:
    """Records spans around dynmr functions; see the module docstring."""

    def __init__(self):
        self.spans = []  # (op, name, cls, start, end, depth); depth 0 is outermost
        self.stats = defaultdict(lambda: defaultdict(float))  # (name, cls) -> stat
        self.covered_s = 0.0  # time under spans at depth 2 (below the op entry)
        self.op = -1  # set by the worker; -1 is set-up
        self._stack = []
        self._paused = 0

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracks_peak = name in PEAK_SPANS
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = _Frame(name)
            if tracks_peak and all(f.name != name for f in stack):
                frame.owns_malloc = not tracemalloc.is_tracing()
                if frame.owns_malloc:
                    tracemalloc.start()
                frame.alloc_base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            stack.append(frame)
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, time.perf_counter(), None, {})
                raise
            end = time.perf_counter()
            cls, counts = (None, {}) if counter is None else counter(args, kwargs, result)
            tracer._close(frame, end, cls, counts)
            return result

        return wrapper

    def _close(self, frame, end, cls, counts):
        self._stack.pop()
        duration = end - frame.start
        depth = len(self._stack)
        if self._stack:
            self._stack[-1].child_s += duration
        if depth == 1:
            self.covered_s += duration
        stats = self.stats[(frame.name, cls)]
        stats["calls"] += 1
        stats["self_s"] += duration - frame.child_s
        stats["total_s"] += duration
        for key, value in counts.items():
            stats[key] += value
        if frame.alloc_base is not None:
            peak = (tracemalloc.get_traced_memory()[1] - frame.alloc_base) / MB
            stats["peak_alloc_mb"] = max(stats["peak_alloc_mb"], peak)
            if frame.owns_malloc:
                tracemalloc.stop()
        self.spans.append((self.op, frame.name, cls, frame.start, end, depth))

    def install(self):
        """Wrap every target in each loaded dynmr namespace that refers to it."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == "dynmr" or n.startswith("dynmr.")
        ]
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def report(self):
        """Per-module metrics named `<module>.<function>[.<class>].<stat>`."""
        out = {}
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            stats = self.stats.get((name, None), {})
            if name in CONV_SPANS:
                gflop = self_s = 0.0
                for cls in CONV_CLASSES:
                    cs = self.stats.get((name, cls), {})
                    out[f"{name}.{cls}.calls"] = int(cs.get("calls", 0))
                    out[f"{name}.{cls}.self_s"] = cs.get("self_s", 0.0)
                    out[f"{name}.{cls}.gflop"] = cs.get("gflop", 0.0)
                    gflop += cs.get("gflop", 0.0)
                    self_s += cs.get("self_s", 0.0)
                out[f"{name}.gflop_per_s"] = gflop / self_s if self_s > 0 else 0.0
                continue
            out[f"{name}.calls"] = int(stats.get("calls", 0))
            if name in TOTAL_TIME_SPANS:
                out[f"{name}.total_s"] = stats.get("total_s", 0.0)
            else:
                out[f"{name}.self_s"] = stats.get("self_s", 0.0)
            if name == "encoding.fft2_frames":
                out[f"{name}.mb_moved"] = stats.get("mb_moved", 0.0)
            if name in PEAK_SPANS:
                out[f"{name}.peak_alloc_mb"] = stats.get("peak_alloc_mb", 0.0)
        out["fileio.read_mb"] = sum(
            self.stats.get((n, None), {}).get("read_mb", 0.0)
            for n in ("fileio.load_dmrt", "fileio.load_checkpoint")
        )
        out["fileio.written_mb"] = sum(
            self.stats.get((n, None), {}).get("written_mb", 0.0)
            for n in ("fileio.save_dmrt", "fileio.save_checkpoint")
        )
        return out


def exact_counts(report):
    """The metrics computed from shapes and sizes; two runs must agree exactly."""
    keys = (".calls", ".gflop", ".mb_moved", "read_mb", "written_mb")
    return {k: v for k, v in report.items() if k.endswith(keys)}
