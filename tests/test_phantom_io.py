import struct
import tracemalloc

import numpy as np
import pytest

from dynmr.encoding import Encoder, make_pseudo_radial_mask
import dynmr.network
from dynmr import fileio
from dynmr.errors import FormatError
from dynmr.fileio import load_checkpoint, load_dmrt, save_checkpoint, save_dmrt
from dynmr.network import (
    NetworkConfig,
    init_network_params,
    named_tensors,
    network_forward,
)
from dynmr.phantom import PhantomSpec, generate_phantom, make_phantom_dataset
from dynmr.training import TrainConfig, train_loop

# -------------------------------------------------------------- phantoms


def test_phantom_deterministic():
    spec = PhantomSpec(shape=(24, 24, 6), seed=3)
    a = generate_phantom(spec)
    b = generate_phantom(PhantomSpec(shape=(24, 24, 6), seed=3))
    assert np.array_equal(a, b)
    c = generate_phantom(PhantomSpec(shape=(24, 24, 6), seed=4))
    assert not np.array_equal(a, c)


def test_phantom_shape_and_dtype():
    v = generate_phantom(PhantomSpec(shape=(10, 12, 5), seed=0))
    assert v.shape == (10, 12, 5)
    assert v.dtype == np.complex128


def test_phantom_peak_normalized():
    v = generate_phantom(PhantomSpec(shape=(32, 32, 4), seed=1))
    assert abs(np.max(np.abs(v)) - 1.0) < 1e-12


def test_phantom_motion_zero_freezes_frames():
    v = generate_phantom(PhantomSpec(shape=(16, 16, 5), motion=0.0, seed=2))
    for f in range(1, 5):
        assert np.array_equal(v[:, :, f], v[:, :, 0])


def test_phantom_motion_moves_frames():
    v = generate_phantom(PhantomSpec(shape=(16, 16, 5), motion=0.1, seed=2))
    assert not np.array_equal(v[:, :, 0], v[:, :, 2])


def test_phantom_has_nontrivial_phase():
    v = generate_phantom(PhantomSpec(shape=(16, 16, 2), seed=0))
    assert np.max(np.abs(v.imag)) > 0.01


def test_phantom_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(shape=(16, 16))
    with pytest.raises(ValueError):
        PhantomSpec(shape=(16, 0, 4))
    with pytest.raises(ValueError):
        PhantomSpec(shape=(16, 16, 4), n_ellipses=0)
    with pytest.raises(ValueError):
        PhantomSpec(shape=(16, 16, 4), motion=0.5)
    with pytest.raises(ValueError):
        PhantomSpec(shape=(16, 16, 4), motion=-0.1)


def test_phantom_dataset_uses_consecutive_seeds():
    ds = make_phantom_dataset(3, (12, 12, 3), seed=10)
    assert len(ds) == 3
    want = generate_phantom(PhantomSpec(shape=(12, 12, 3), seed=11))
    assert np.array_equal(ds[1], want)
    assert not np.array_equal(ds[0], ds[2])


# ------------------------------------------------------------ DMRT files


def test_dmrt_round_trip_complex(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4))
    p = tmp_path / "vol.dmrt"
    save_dmrt(p, v)
    back = load_dmrt(p)
    assert back.dtype == np.complex128
    assert np.array_equal(back, v)


def test_dmrt_round_trip_real(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 7))
    p = tmp_path / "arr.dmrt"
    save_dmrt(p, a)
    back = load_dmrt(p)
    assert back.dtype == np.float64
    assert np.array_equal(back, a)


def test_dmrt_round_trip_mask(tmp_path):
    rng = np.random.default_rng(2)
    m = (rng.uniform(size=(8, 8, 3)) < 0.3).astype(np.uint8)
    p = tmp_path / "mask.dmrt"
    save_dmrt(p, m)
    back = load_dmrt(p)
    assert back.dtype == np.uint8
    assert np.array_equal(back, m)
    save_dmrt(p, m.astype(bool))
    assert np.array_equal(load_dmrt(p), m)


def test_dmrt_round_trip_scalar(tmp_path):
    p = tmp_path / "s.dmrt"
    save_dmrt(p, np.asarray(3.5))
    back = load_dmrt(p)
    assert back.shape == ()
    assert back == 3.5


def test_dmrt_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError):
        save_dmrt(tmp_path / "bad.dmrt", np.zeros((2, 2), dtype=np.int32))


def test_dmrt_bad_magic_names_format(tmp_path):
    p = tmp_path / "junk.dmrt"
    p.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
    with pytest.raises(FormatError, match="DMRT"):
        load_dmrt(p)


def test_dmrt_bad_version(tmp_path):
    p = tmp_path / "v2.dmrt"
    save_dmrt(p, np.zeros((2, 2)))
    raw = bytearray(p.read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_dmrt(p)


def test_dmrt_truncated(tmp_path):
    p = tmp_path / "cut.dmrt"
    save_dmrt(p, np.ones((4, 4)))
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(FormatError, match="truncated"):
        load_dmrt(p)


def test_dmrt_trailing_bytes(tmp_path):
    p = tmp_path / "pad.dmrt"
    save_dmrt(p, np.ones((2, 2)))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_dmrt(p)


def test_dmrt_unknown_dtype_code(tmp_path):
    p = tmp_path / "code.dmrt"
    save_dmrt(p, np.ones((2, 2)))
    raw = bytearray(p.read_bytes())
    # dtype byte sits after magic, version, ndims, and two dims
    raw[4 + 4 + 4 + 8] = 7
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="dtype"):
        load_dmrt(p)


def test_dmrt_zero_dimension(tmp_path):
    p = tmp_path / "dim0.dmrt"
    out = b"DMRT" + struct.pack("<I", 1) + struct.pack("<I", 2)
    out += struct.pack("<I", 0) + struct.pack("<I", 3) + struct.pack("<B", 3)
    p.write_bytes(out)
    with pytest.raises(FormatError, match="dimension"):
        load_dmrt(p)


def test_dmrt_oversized_dims_are_truncation(tmp_path):
    # 65536**4 entries overflow int64 to 0; the payload size must not wrap
    p = tmp_path / "huge.dmrt"
    out = b"DMRT" + struct.pack("<I", 1) + struct.pack("<I", 4)
    out += struct.pack("<IIII", 65536, 65536, 65536, 65536) + struct.pack("<B", 0)
    p.write_bytes(out)
    with pytest.raises(FormatError, match="truncated"):
        load_dmrt(p)


def test_dmrt_save_and_load_hold_no_copy_of_the_payload(tmp_path):
    # save writes the header and then the array's own buffer, and load reads
    # the payload straight into the array it returns: a converted, byte-string
    # or bytearray copy of the 1 MB volume would break either bound
    rng = np.random.default_rng(3)
    v = rng.standard_normal((64, 64, 16)) + 1j * rng.standard_normal((64, 64, 16))
    p = tmp_path / "big.dmrt"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_dmrt(p, v)
        save_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        back = load_dmrt(p)
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert save_peak < v.nbytes // 4, save_peak / v.nbytes
    assert load_peak < 1.25 * v.nbytes, load_peak / v.nbytes
    assert back.tobytes() == v.tobytes() and back.flags.writeable


# ------------------------------------------------------ checkpoint files


def modified_params(cfg, seed=4):
    params = init_network_params(cfg, seed=seed)
    # shift every tensor so the load cannot pass by accident of fresh init
    for i, (_, arr) in enumerate(named_tensors(params)):
        arr += 0.01 * (i + 1)
    return params


def test_checkpoint_round_trip_exact(tmp_path):
    cfg = NetworkConfig(n_phases=2, nc=4, f_depth=2, fhat_depth=3)
    params = modified_params(cfg)
    p = tmp_path / "net.dusc"
    save_checkpoint(p, params, cfg, step=17, seed=-3)
    loaded, cfg2, step, seed = load_checkpoint(p)
    assert (cfg2.n_phases, cfg2.nc) == (2, 4)
    assert (cfg2.f_depth, cfg2.fhat_depth) == (2, 3)
    assert step == 17 and seed == -3
    a = dict(named_tensors(params))
    b = dict(named_tensors(loaded))
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_checkpoint_save_and_load_draw_no_random_weights(tmp_path, monkeypatch):
    # the loader's shells and the saver's name and shape check are built
    # without an RNG: a draw would raise here
    cfg = NetworkConfig(n_phases=2, nc=4, f_depth=2, fhat_depth=3)
    params = modified_params(cfg)

    def no_rng(*args, **kwargs):
        raise AssertionError("a checkpoint save or load drew random weights")

    monkeypatch.setattr(dynmr.network.np.random, "default_rng", no_rng)
    p = tmp_path / "net.dusc"
    save_checkpoint(p, params, cfg, step=3, seed=1)
    loaded, _, step, seed = load_checkpoint(p)
    assert (step, seed) == (3, 1)
    for (name, a), (name2, b) in zip(named_tensors(params), named_tensors(loaded),
                                     strict=True):
        assert name == name2 and a.tobytes() == b.tobytes(), name


def test_checkpoint_round_trip_preserves_inference(tmp_path):
    cfg = NetworkConfig(n_phases=2, nc=4)
    params = modified_params(cfg, seed=5)
    mask = make_pseudo_radial_mask((12, 12, 3), 5, seed=0)
    enc = Encoder(mask)
    gt = generate_phantom(PhantomSpec(shape=(12, 12, 3), seed=5))
    b = enc.forward(gt)
    x_before, _ = network_forward(b, enc, params, cfg, want_cache=False)
    p = tmp_path / "net.dusc"
    save_checkpoint(p, params, cfg)
    loaded, cfg2, _, _ = load_checkpoint(p)
    x_after, _ = network_forward(b, enc, loaded, cfg2, want_cache=False)
    assert np.array_equal(x_before, x_after)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "junk.dusc"
    p.write_bytes(b"DMRT" + b"\x00" * 30)
    with pytest.raises(FormatError, match="DUSC"):
        load_checkpoint(p)


def test_checkpoint_truncated(tmp_path):
    cfg = NetworkConfig(n_phases=1, nc=4)
    p = tmp_path / "cut.dusc"
    save_checkpoint(p, init_network_params(cfg, seed=0), cfg)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(p)


def test_checkpoint_trailing_bytes(tmp_path):
    cfg = NetworkConfig(n_phases=1, nc=4)
    p = tmp_path / "pad.dusc"
    save_checkpoint(p, init_network_params(cfg, seed=0), cfg)
    p.write_bytes(p.read_bytes() + b"\xff")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(p)


def test_checkpoint_unknown_tensor_name(tmp_path):
    cfg = NetworkConfig(n_phases=1, nc=4)
    p = tmp_path / "name.dusc"
    save_checkpoint(p, init_network_params(cfg, seed=0), cfg)
    raw = p.read_bytes()
    assert raw.count(b"phase00.attn.w1") == 1
    p.write_bytes(raw.replace(b"phase00.attn.w1", b"phase00.attn.w9"))
    with pytest.raises(FormatError, match="phase00.attn.w9"):
        load_checkpoint(p)


def _record_span(raw, name):
    """Byte range of the checkpoint record (length, name, dims, payload) for name."""
    start = raw.index(name) - 4
    at = start + 4 + len(name)
    (ndims,) = struct.unpack_from("<I", raw, at)
    dims = struct.unpack_from(f"<{ndims}I", raw, at + 4)
    return start, at + 4 + 4 * ndims + 8 * int(np.prod(dims))


def test_checkpoint_records_out_of_order_are_rejected(tmp_path):
    # b1 and b2 have the same shape, so only the order can tell them apart
    cfg = NetworkConfig(n_phases=1, nc=4)
    p = tmp_path / "swap.dusc"
    save_checkpoint(p, modified_params(cfg), cfg)
    raw = p.read_bytes()
    s1, e1 = _record_span(raw, b"phase00.attn.b1")
    s2, e2 = _record_span(raw, b"phase00.attn.b2")
    assert e1 <= s2 and e1 - s1 == e2 - s2
    p.write_bytes(raw[:s1] + raw[s2:e2] + raw[e1:s2] + raw[s1:e1] + raw[e2:])
    with pytest.raises(FormatError, match=r"phase00\.attn\.b2 where phase00\.attn\.b1"):
        load_checkpoint(p)


def test_checkpoint_duplicate_tensor_name(tmp_path):
    # the count stays right, but one tensor is missing and another is there twice
    cfg = NetworkConfig(n_phases=1, nc=4)
    p = tmp_path / "dup.dusc"
    save_checkpoint(p, init_network_params(cfg, seed=0), cfg)
    raw = p.read_bytes()
    p.write_bytes(raw.replace(b"phase00.attn.b2", b"phase00.attn.b1"))
    with pytest.raises(FormatError, match=r"phase00\.attn\.b1 where phase00\.attn\.b2"):
        load_checkpoint(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_non_finite_tensor(tmp_path, bad):
    # saving writes any value; loading rejects it, naming the tensor
    cfg = NetworkConfig(n_phases=1, nc=4)
    params = init_network_params(cfg, seed=0)
    params.phases[0].f_stack[1].weights[2, 1, 0, 1, 2] = bad
    p = tmp_path / "nan.dusc"
    save_checkpoint(p, params, cfg)
    with pytest.raises(FormatError, match=r"phase00\.f1\.w has non-finite"):
        load_checkpoint(p)


def test_checkpoint_tensor_count_mismatch(tmp_path):
    cfg = NetworkConfig(n_phases=1, nc=4)
    p = tmp_path / "count.dusc"
    save_checkpoint(p, init_network_params(cfg, seed=0), cfg)
    raw = bytearray(p.read_bytes())
    off = 4 + 4 + 4 + 4 + 1 + 4 + 4
    (n,) = struct.unpack_from("<I", raw, off)
    struct.pack_into("<I", raw, off, n + 1)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="tensors"):
        load_checkpoint(p)


def test_checkpoint_bad_dc_code(tmp_path):
    cfg = NetworkConfig(n_phases=1, nc=4)
    p = tmp_path / "dc.dusc"
    save_checkpoint(p, init_network_params(cfg, seed=0), cfg)
    raw = bytearray(p.read_bytes())
    assert raw[16] == 0
    # code 1 named a conjugate-gradient mode the network does not have
    for code in (1, 9):
        raw[16] = code
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dc_mode"):
            load_checkpoint(p)


@pytest.mark.parametrize(
    "field, value",
    [("n_phases", 2**32 - 1), ("nc", 65536), ("f_depth", 2**32 - 1), ("fhat_depth", 2**32 - 1)],
)
def test_checkpoint_oversized_config_is_truncation(tmp_path, field, value):
    # a header-only file must be rejected before parameter shells are built
    # for the config it claims, which for these values would need gigabytes
    header = dict(n_phases=1, nc=4, f_depth=2, fhat_depth=2)
    header[field] = value
    raw = (
        b"DUSC"
        + struct.pack("<III", 1, header["n_phases"], header["nc"])
        + struct.pack("<B", 0)
        + struct.pack("<II", header["f_depth"], header["fhat_depth"])
        + struct.pack("<I", 0)
    )
    assert len(raw) == 29
    p = tmp_path / "huge.dusc"
    p.write_bytes(raw)
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(p)


def _save_dmrt(path):
    save_dmrt(path, np.arange(6.0).reshape(2, 3))


def _save_checkpoint(path):
    cfg = NetworkConfig(n_phases=1, nc=4)
    save_checkpoint(path, init_network_params(cfg, seed=1), cfg, step=3)


@pytest.mark.parametrize("save", [_save_dmrt, _save_checkpoint])
@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_save_keeps_old_file(tmp_path, monkeypatch, save, failing):
    target = tmp_path / "out.bin"
    target.write_bytes(b"previous contents")

    def fail(*args):
        raise OSError(f"injected {failing} failure")

    monkeypatch.setattr(fileio.os, failing, fail)
    with pytest.raises(OSError, match="injected"):
        save(target)
    assert target.read_bytes() == b"previous contents"
    assert [f.name for f in tmp_path.iterdir()] == ["out.bin"]
    monkeypatch.undo()
    save(target)
    assert target.read_bytes() != b"previous contents"
    assert [f.name for f in tmp_path.iterdir()] == ["out.bin"]


def test_train_loop_writes_loadable_checkpoint(tmp_path):
    dataset = make_phantom_dataset(2, (12, 12, 3), seed=0)
    net_cfg = NetworkConfig(n_phases=1, nc=4)

    def sampler(shape, seed):
        return make_pseudo_radial_mask(shape, 5, seed=seed)

    p = tmp_path / "train.dusc"
    params, history = train_loop(
        dataset, sampler, net_cfg, TrainConfig(epochs=2, seed=21), ckpt_path=p
    )
    loaded, cfg, step, seed = load_checkpoint(p)
    assert step == len(history)
    assert seed == 21
    a = dict(named_tensors(params))
    for name, arr in named_tensors(loaded):
        assert np.array_equal(arr, a[name]), name
