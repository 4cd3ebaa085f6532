"""Seeded fuzzing of the DMRT and DUSC loaders with numpy's RNG.

Valid files are truncated at random lengths, have single bits flipped, and
get random bytes and random u32 words written into their first 64 bytes.
Whatever the bytes, a loader either returns or raises FormatError.
"""

import struct
import subprocess
import sys

import numpy as np

from dynmr.errors import FormatError
from dynmr.fileio import load_checkpoint, load_dmrt, save_checkpoint, save_dmrt
from dynmr.network import NetworkConfig, init_network_params

N_EACH = 150  # files per mutation kind and source file


def mutants(raw, rng):
    """Yield N_EACH byte strings for each of the four mutation kinds."""
    for _ in range(N_EACH):
        yield raw[: rng.integers(len(raw))]
    for _ in range(N_EACH):
        out = bytearray(raw)
        bit = rng.integers(8 * len(raw))
        out[bit // 8] ^= 1 << (bit % 8)
        yield bytes(out)
    head = min(64, len(raw))
    for _ in range(N_EACH):
        out = bytearray(raw)
        for at in rng.integers(head, size=rng.integers(1, 9)):
            out[at] = rng.integers(256)
        yield bytes(out)
    for _ in range(N_EACH):
        out = bytearray(raw)
        at = rng.integers(head - 3)
        word = int(rng.integers(2**32)) >> int(rng.integers(33))  # 0 to 2^32-1
        out[at : at + 4] = struct.pack("<I", word)
        yield bytes(out)


def fuzz(loader, path, rng):
    """Load every mutant of path; returns one that raised FormatError."""
    rejected = None
    for data in mutants(path.read_bytes(), rng):
        path.with_suffix(".fuzz").write_bytes(data)
        try:
            loader(path.with_suffix(".fuzz"))
        except FormatError:
            rejected = data
    return rejected


def test_loaders_raise_only_format_error(tmp_path):
    rng = np.random.default_rng(2024)
    vol = rng.standard_normal((6, 5, 2)) + 1j * rng.standard_normal((6, 5, 2))
    save_dmrt(tmp_path / "vol.dmrt", vol)
    save_dmrt(tmp_path / "mask.dmrt", (rng.random((6, 5, 2)) < 0.5).astype(np.uint8))
    cfg = NetworkConfig(n_phases=1, nc=2)
    save_checkpoint(tmp_path / "net.dusc", init_network_params(cfg, seed=3), cfg)

    fuzz(load_dmrt, tmp_path / "vol.dmrt", rng)
    fuzz(load_dmrt, tmp_path / "mask.dmrt", rng)
    bad_ckpt = fuzz(load_checkpoint, tmp_path / "net.dusc", rng)

    assert bad_ckpt is not None
    bad = tmp_path / "bad.dusc"
    bad.write_bytes(bad_ckpt)
    r = subprocess.run(
        [
            sys.executable, "-m", "dynmr", "recon-net", "--ckpt", str(bad),
            "--data", str(tmp_path / "vol.dmrt"), "--mask", str(tmp_path / "mask.dmrt"),
            "--out", str(tmp_path / "out.dmrt"),
        ],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
