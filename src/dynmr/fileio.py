"""Bit-exact binary containers for volumes, masks, and checkpoints.

Two bespoke little-endian formats, both fully specified by this module:

DMRT (arrays)
    magic "DMRT" | version u32 = 1 | ndims u32 | dims u32 each
    | dtype u8 | payload, row-major
    dtype 0 = binary mask, one u8 per entry; 1 = complex, f64 re/im pairs;
    3 = real f64.

DUSC (network checkpoints)
    magic "DUSC" | version u32 = 1 | n_phases u32 | nc u32
    | dc u8 = 0 | f_depth u32 | fhat_depth u32
    | n_tensors u32 | per tensor: name_len u32, name utf8, ndims u32,
      dims u32 each, f64 payload | step u64 | seed i64

The dc byte keeps the v1 layout: 0 is the closed-form data-consistency step,
the only one the network has, and any other value is rejected.
Tensors are stored in named_tensors order under its names; any other order is
rejected.  Layer activations are not stored: a conv stack applies a ReLU after
every layer but the last, so they are positional by construction.  Loads
validate magic, version, and exact payload lengths and raise FormatError on
anything malformed.  Round trips are bit-exact.
Saves fsync a temporary file and rename it over the target, so a crash
mid-write leaves either the old file or the new one.
"""

import contextlib
import math
import os
import struct

import numpy as np

from .conv3d import KERNEL
from .errors import FormatError
from .network import NetworkConfig, check_params, init_network_params, named_tensors

DMRT_MAGIC = b"DMRT"
DUSC_MAGIC = b"DUSC"
_DTYPE_MASK = 0
_DTYPE_COMPLEX = 1
_DTYPE_REAL = 3


class _Reader:
    """Cursor over a byte string that refuses to run past the end."""

    def __init__(self, data, label):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, n):
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.label}: truncated at byte {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u8(self):
        return self.take(1)[0]

    def done(self):
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.label}: {len(self.data) - self.pos} trailing bytes"
            )


def _write_atomic(path, data):
    """Replace path with data; on any failure the old file is left as it was.

    An OSError that names the temporary file the data goes to first is raised
    again naming path.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def _read_dims(r):
    ndims = r.u32()
    if ndims > 8:
        raise FormatError(f"{r.label}: implausible ndims {ndims}")
    dims = tuple(r.u32() for _ in range(ndims))
    if any(d < 1 for d in dims):
        raise FormatError(f"{r.label}: zero-sized dimension in {dims}")
    return dims


def save_dmrt(path, arr):
    """Write an array; dtype code is inferred (u8/bool, complex, float)."""
    a = np.asarray(arr)
    if a.dtype == np.uint8 or a.dtype == bool:
        code, payload = _DTYPE_MASK, a.astype("<u1")
    elif np.issubdtype(a.dtype, np.complexfloating):
        code, payload = _DTYPE_COMPLEX, a.astype("<c16")
    elif np.issubdtype(a.dtype, np.floating):
        code, payload = _DTYPE_REAL, a.astype("<f8")
    else:
        raise ValueError(f"unsupported dtype {a.dtype}")
    out = bytearray()
    out += DMRT_MAGIC
    out += struct.pack("<I", 1)
    out += struct.pack("<I", a.ndim)
    for d in a.shape:
        out += struct.pack("<I", d)
    out += struct.pack("<B", code)
    out += payload.tobytes(order="C")
    _write_atomic(path, out)


def load_dmrt(path):
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), str(path))
    magic = r.take(4)
    if magic != DMRT_MAGIC:
        raise FormatError(f"{r.label}: bad magic {magic!r}, expected {DMRT_MAGIC!r}")
    version = r.u32()
    if version != 1:
        raise FormatError(f"{r.label}: unsupported version {version}")
    dims = _read_dims(r)
    code = r.u8()
    if code == _DTYPE_MASK:
        dt = np.dtype("<u1")
    elif code == _DTYPE_COMPLEX:
        dt = np.dtype("<c16")
    elif code == _DTYPE_REAL:
        dt = np.dtype("<f8")
    else:
        raise FormatError(f"{r.label}: unknown dtype code {code}")
    payload = r.take(math.prod(dims) * dt.itemsize)
    r.done()
    return np.frombuffer(payload, dtype=dt).reshape(dims).copy()


def save_checkpoint(path, params, cfg, step=0, seed=0):
    """Write params under cfg's header; ValueError, and no write, if they differ."""
    check_params(params, cfg)
    out = bytearray()
    out += DUSC_MAGIC
    out += struct.pack("<I", 1)
    out += struct.pack("<I", cfg.n_phases)
    out += struct.pack("<I", cfg.nc)
    out += struct.pack("<B", 0)
    out += struct.pack("<I", cfg.f_depth)
    out += struct.pack("<I", cfg.fhat_depth)
    tensors = list(named_tensors(params))
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors:
        raw = name.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
        out += struct.pack("<I", arr.ndim)
        for d in arr.shape:
            out += struct.pack("<I", d)
        out += np.asarray(arr, dtype="<f8").tobytes(order="C")
    out += struct.pack("<Q", step)
    out += struct.pack("<q", seed)
    _write_atomic(path, out)


def _param_floats(cfg):
    """f64 count of cfg's tensors, in closed form so absurd values cost nothing."""
    nc, taps = cfg.nc, KERNEL**3
    inner = (cfg.f_depth + cfg.fhat_depth - 2) * (nc * nc * taps + nc)  # nc -> nc
    ends = (2 * nc * taps + nc) + (nc * 2 * taps + 2)  # 2 -> nc and nc -> 2 layers
    return cfg.n_phases * (inner + ends + 2 * nc * (nc + 1) + 2)  # + attn, mu, eta


def load_checkpoint(path):
    """Read a checkpoint; returns (params, cfg, step, seed).

    Parameter shells are rebuilt from the config block, then the tensors are
    read in named_tensors order.  A wrong count, a name out of place, shape
    drift or non-finite values all raise FormatError.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), str(path))
    magic = r.take(4)
    if magic != DUSC_MAGIC:
        raise FormatError(f"{r.label}: bad magic {magic!r}, expected {DUSC_MAGIC!r}")
    version = r.u32()
    if version != 1:
        raise FormatError(f"{r.label}: unsupported version {version}")
    n_phases = r.u32()
    nc = r.u32()
    dc_code = r.u8()
    if dc_code != 0:
        raise FormatError(f"{r.label}: unknown dc_mode code {dc_code}")
    f_depth = r.u32()
    fhat_depth = r.u32()
    try:
        cfg = NetworkConfig(
            n_phases=n_phases,
            nc=nc,
            f_depth=f_depth,
            fhat_depth=fhat_depth,
        )
    except ValueError as exc:
        raise FormatError(f"{r.label}: bad config block: {exc}") from exc
    # The header fields are unchecked u32s: size them against the file
    # before building shells, which could otherwise ask for gigabytes.
    if 8 * _param_floats(cfg) > len(r.data) - r.pos:
        raise FormatError(f"{r.label}: truncated: too short for its config block")
    params = init_network_params(cfg, seed=0)
    expected = list(named_tensors(params))
    n_tensors = r.u32()
    if n_tensors != len(expected):
        raise FormatError(
            f"{r.label}: {n_tensors} tensors, config implies {len(expected)}"
        )
    for want, target in expected:
        name_len = r.u32()
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{r.label}: undecodable tensor name") from exc
        if name != want:
            raise FormatError(f"{r.label}: tensor {name} where {want} belongs")
        dims = _read_dims(r)
        if dims != target.shape:
            raise FormatError(
                f"{r.label}: tensor {name} has shape {dims}, expected {target.shape}"
            )
        values = np.frombuffer(r.take(math.prod(dims) * 8), dtype="<f8")
        # the shells skip the layers' own finiteness check
        if not np.isfinite(values).all():
            raise FormatError(f"{r.label}: tensor {name} has non-finite values")
        target[...] = values.reshape(dims)
    step = struct.unpack("<Q", r.take(8))[0]
    seed = struct.unpack("<q", r.take(8))[0]
    r.done()
    return params, cfg, step, seed
