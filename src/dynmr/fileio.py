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
from .network import NetworkConfig, check_params, named_tensors, param_shells

DMRT_MAGIC = b"DMRT"
DUSC_MAGIC = b"DUSC"
# DMRT dtype code: (stored dtype, dtype chars of the arrays saved under it)
_DTYPES = {0: ("<u1", "?B"), 1: ("<c16", np.typecodes["Complex"]),
           3: ("<f8", np.typecodes["Float"])}


class _Reader:
    """Cursor over an open file that refuses to run past its end.

    Payloads are read straight into the arrays they fill, so a load holds
    no copy of the file.
    """

    def __init__(self, fh, label):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        self.label = label

    def _advance(self, n, got):
        if got != n:
            raise FormatError(f"{self.label}: truncated at byte {self.pos}")
        self.pos += n

    def take(self, n):
        out = self.fh.read(n) if self.pos + n <= self.size else b""
        self._advance(n, len(out))
        return out

    def array(self, dims, dtype):
        """The next prod(dims) items of dtype, as a new (dims) array."""
        n = math.prod(dims) * dtype.itemsize
        if self.pos + n > self.size:  # before allocating what dims ask for
            self._advance(n, 0)
        out = np.empty(dims, dtype)
        self._advance(n, self.fh.readinto(out.reshape(-1).view(np.uint8)))
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u8(self):
        return self.take(1)[0]

    def done(self):
        if self.pos != self.size:
            raise FormatError(f"{self.label}: {self.size - self.pos} trailing bytes")


def _write_atomic(path, *chunks):
    """Replace path with the chunks, in order; a failure leaves the old file.

    Each chunk is a bytes-like object, such as a C-contiguous array.

    An OSError that names the temporary file the data goes to first is raised
    again naming path.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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
    code = next((c for c, (_, chars) in _DTYPES.items() if a.dtype.char in chars), None)
    if code is None:
        raise ValueError(f"unsupported dtype {a.dtype}")
    payload = np.asarray(a, dtype=_DTYPES[code][0], order="C")  # a itself when it fits
    header = struct.pack(f"<4sII{a.ndim}IB", DMRT_MAGIC, 1, a.ndim, *a.shape, code)
    _write_atomic(path, header, payload)


def load_dmrt(path):
    with open(path, "rb") as fh:
        r = _Reader(fh, str(path))
        magic = r.take(4)
        if magic != DMRT_MAGIC:
            raise FormatError(f"{r.label}: bad magic {magic!r}, expected {DMRT_MAGIC!r}")
        version = r.u32()
        if version != 1:
            raise FormatError(f"{r.label}: unsupported version {version}")
        dims = _read_dims(r)
        code = r.u8()
        if code not in _DTYPES:
            raise FormatError(f"{r.label}: unknown dtype code {code}")
        arr = r.array(dims, np.dtype(_DTYPES[code][0]))
        r.done()
        return arr


def save_checkpoint(path, params, cfg, step=0, seed=0):
    """Write params under cfg's header; ValueError, and no write, if they differ."""
    check_params(params, cfg)
    tensors = list(named_tensors(params))
    head = (DUSC_MAGIC, 1, cfg.n_phases, cfg.nc, 0, cfg.f_depth, cfg.fhat_depth)
    chunks = [struct.pack("<4sIIIBIII", *head, len(tensors))]
    for name, arr in tensors:
        raw = name.encode("utf-8")
        fmt = f"<I{len(raw)}sI{arr.ndim}I"
        chunks.append(struct.pack(fmt, len(raw), raw, arr.ndim, *arr.shape))
        chunks.append(np.asarray(arr, dtype="<f8", order="C"))
    chunks.append(struct.pack("<Qq", step, seed))
    _write_atomic(path, *chunks)


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
        r = _Reader(fh, str(path))
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
        if 8 * _param_floats(cfg) > r.size - r.pos:
            raise FormatError(f"{r.label}: truncated: too short for its config block")
        params = param_shells(cfg)
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
            values = r.array(dims, np.dtype("<f8"))
            # the shells skip the layers' own finiteness check
            if not np.isfinite(values).all():
                raise FormatError(f"{r.label}: tensor {name} has non-finite values")
            target[...] = values
        step = struct.unpack("<Q", r.take(8))[0]
        seed = struct.unpack("<q", r.take(8))[0]
        r.done()
        return params, cfg, step, seed
