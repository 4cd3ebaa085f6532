import os
import subprocess
import sys

import numpy as np
import pytest

from dynmr import cli
from dynmr.encoding import make_pseudo_radial_mask
from dynmr.fileio import load_checkpoint, load_dmrt, save_checkpoint, save_dmrt
from dynmr.network import NetworkConfig, init_network_params
from dynmr.phantom import PhantomSpec, generate_phantom
from dynmr.training import TrainConfig


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dynmr", *args], capture_output=True, text=True
    )


# ---------------------------------------------------------- phantom/mask


def test_phantom_command_writes_volume(tmp_path):
    out = tmp_path / "ph.dmrt"
    r = run_cli("phantom", "--shape", "16x16x4", "--seed", "3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    v = load_dmrt(out)
    assert v.shape == (16, 16, 4)
    assert v.dtype == np.complex128
    want = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=3))
    assert np.array_equal(v, want)


def test_phantom_command_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.dmrt", tmp_path / "b.dmrt"
    argv = ["phantom", "--shape", "12x12x3", "--seed", "7"]
    assert run_cli(*argv, "--out", str(a)).returncode == 0
    assert run_cli(*argv, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_phantom_malformed_shape_is_usage_error(tmp_path):
    r = run_cli("phantom", "--shape", "16x16", "--out", str(tmp_path / "x.dmrt"))
    assert r.returncode == 2
    r = run_cli("phantom", "--shape", "axbxc", "--out", str(tmp_path / "x.dmrt"))
    assert r.returncode == 2


def test_mask_radial_fraction_regression(tmp_path):
    out = tmp_path / "m.dmrt"
    r = run_cli(
        "mask", "--pattern", "radial", "--spokes", "16",
        "--shape", "128x128x1", "--seed", "0", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    m = load_dmrt(out)
    assert m.dtype == np.uint8
    # pinned sampling fraction for this seed and geometry
    assert abs(m.mean() - 0.151917) < 1e-3


def test_mask_radial_requires_spokes(tmp_path):
    r = run_cli(
        "mask", "--pattern", "radial", "--shape", "32x32x2",
        "--out", str(tmp_path / "m.dmrt"),
    )
    assert r.returncode == 2
    assert "--spokes" in r.stderr


def test_mask_vds_accel_one_is_full(tmp_path):
    out = tmp_path / "m.dmrt"
    r = run_cli(
        "mask", "--pattern", "vds", "--accel", "1.0",
        "--shape", "8x16x2", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    assert np.all(load_dmrt(out) == 1)


def test_mask_vds_requires_accel(tmp_path):
    r = run_cli(
        "mask", "--pattern", "vds", "--shape", "8x16x2",
        "--out", str(tmp_path / "m.dmrt"),
    )
    assert r.returncode == 2


def test_mask_vds_rejects_nan_accel(tmp_path):
    # nan < 1 is false, so a NaN acceleration used to reach math.ceil
    r = run_cli(
        "mask", "--pattern", "vds", "--accel", "nan", "--shape", "8x16x2",
        "--out", str(tmp_path / "m.dmrt"),
    )
    assert r.returncode == 3
    assert "acceleration" in r.stderr
    assert "Traceback" not in r.stderr


def test_mask_vds_rejects_negative_center_lines(tmp_path):
    out = tmp_path / "m.dmrt"
    r = run_cli(
        "mask", "--pattern", "vds", "--accel", "4", "--center-lines", "-3",
        "--shape", "8x8x2", "--out", str(out),
    )
    assert r.returncode == 3
    assert "center_lines" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


# ------------------------------------------------------------ recon-admm


def test_recon_admm_full_mask_lambda_zero_recovers(tmp_path):
    gt_p = tmp_path / "gt.dmrt"
    mask_p = tmp_path / "mask.dmrt"
    out_p = tmp_path / "x.dmrt"
    diag_p = tmp_path / "diag.txt"
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=0))
    save_dmrt(gt_p, gt)
    save_dmrt(mask_p, np.ones((16, 16, 4), dtype=np.uint8))
    r = run_cli(
        "recon-admm", "--data", str(gt_p), "--mask", str(mask_p),
        "--lambda", "0.0", "--mu", "1.0", "--iters", "5",
        "--out", str(out_p), "--diag", str(diag_p),
    )
    assert r.returncode == 0, r.stderr
    x = load_dmrt(out_p)
    assert np.max(np.abs(x - gt)) < 1e-10

    lines = diag_p.read_text().strip().splitlines()
    assert lines[0] == "iteration objective fidelity l1 constraint"
    assert len(lines) == 6
    first = lines[1].split()
    assert first[0] == "1"
    assert all(np.isfinite(float(tok)) for tok in first[1:])

    ev = run_cli("eval", "--recon", str(out_p), "--gt", str(gt_p))
    assert ev.returncode == 0
    assert float(ev.stdout.splitlines()[0].split()[1]) > 100.0
    assert "ssim 1.000000" in ev.stdout

    # a bit-identical pair drives the display onto the infinity cap
    ev = run_cli("eval", "--recon", str(gt_p), "--gt", str(gt_p))
    assert "psnr_db 999.990000" in ev.stdout


def test_recon_admm_improves_over_zero_filling(tmp_path):
    gt_p = tmp_path / "gt.dmrt"
    mask_p = tmp_path / "mask.dmrt"
    out_p = tmp_path / "x.dmrt"
    gt = generate_phantom(PhantomSpec(shape=(32, 32, 8), seed=5))
    save_dmrt(gt_p, gt)
    r = run_cli(
        "mask", "--pattern", "radial", "--spokes", "8",
        "--shape", "32x32x8", "--seed", "2", "--out", str(mask_p),
    )
    assert r.returncode == 0
    r = run_cli(
        "recon-admm", "--data", str(gt_p), "--mask", str(mask_p),
        "--out", str(out_p),
    )
    assert r.returncode == 0, r.stderr
    from dynmr.encoding import Encoder
    from dynmr.metrics import psnr

    enc = Encoder(load_dmrt(mask_p))
    zf = enc.adjoint(enc.forward(gt))
    assert psnr(gt, load_dmrt(out_p)) > psnr(gt, zf) + 3.0


def test_recon_admm_shape_mismatch_is_data_error(tmp_path):
    gt_p = tmp_path / "gt.dmrt"
    mask_p = tmp_path / "mask.dmrt"
    save_dmrt(gt_p, generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=0)))
    save_dmrt(mask_p, np.ones((16, 16, 5), dtype=np.uint8))
    r = run_cli(
        "recon-admm", "--data", str(gt_p), "--mask", str(mask_p),
        "--out", str(tmp_path / "x.dmrt"),
    )
    assert r.returncode == 3
    assert "error:" in r.stderr


def test_recon_admm_missing_file_is_data_error(tmp_path):
    r = run_cli(
        "recon-admm", "--data", str(tmp_path / "nope.dmrt"),
        "--mask", str(tmp_path / "nope2.dmrt"), "--out", str(tmp_path / "x.dmrt"),
    )
    assert r.returncode == 3


def test_recon_admm_non_mask_file_is_data_error(tmp_path):
    gt_p = tmp_path / "gt.dmrt"
    bad_p = tmp_path / "bad.dmrt"
    save_dmrt(gt_p, generate_phantom(PhantomSpec(shape=(8, 8, 2), seed=0)))
    save_dmrt(bad_p, 2.0 * np.ones((8, 8, 2)))
    r = run_cli(
        "recon-admm", "--data", str(gt_p), "--mask", str(bad_p),
        "--out", str(tmp_path / "x.dmrt"),
    )
    assert r.returncode == 3


def write_radial_inputs(tmp_path, shape=(16, 16, 4), spokes=6):
    gt_p, mask_p = tmp_path / "gt.dmrt", tmp_path / "mask.dmrt"
    save_dmrt(gt_p, generate_phantom(PhantomSpec(shape=shape, seed=1)))
    save_dmrt(mask_p, make_pseudo_radial_mask(shape, spokes, seed=0))
    return gt_p, mask_p


def test_recon_admm_diag_does_not_change_the_output(tmp_path):
    gt_p, mask_p = write_radial_inputs(tmp_path)
    argv = ["recon-admm", "--data", str(gt_p), "--mask", str(mask_p), "--iters", "8"]
    plain, diag = tmp_path / "plain.dmrt", tmp_path / "diag.dmrt"
    assert run_cli(*argv, "--out", str(plain)).returncode == 0
    r = run_cli(*argv, "--out", str(diag), "--diag", str(tmp_path / "d.txt"))
    assert r.returncode == 0, r.stderr
    assert plain.read_bytes() == diag.read_bytes()
    assert len((tmp_path / "d.txt").read_text().splitlines()) == 9


def test_recon_admm_non_finite_volume_is_numerical_error(tmp_path):
    gt_p, mask_p = write_radial_inputs(tmp_path)
    gt = load_dmrt(gt_p)
    gt[3, 5, 1] = np.nan
    save_dmrt(gt_p, gt)
    r = run_cli(
        "recon-admm", "--data", str(gt_p), "--mask", str(mask_p),
        "--out", str(tmp_path / "x.dmrt"),
    )
    assert r.returncode == 4
    assert "non-finite" in r.stderr
    assert "Traceback" not in r.stderr


def test_recon_admm_rejects_bad_options(tmp_path):
    gt_p, mask_p = write_radial_inputs(tmp_path)
    argv = ["recon-admm", "--data", str(gt_p), "--mask", str(mask_p)]
    out = ["--out", str(tmp_path / "x.dmrt")]
    r = run_cli(*argv, "--iters", "-5", *out)
    assert r.returncode == 3
    assert "n_iters" in r.stderr
    for bad in ("--lambda=nan", "--mu=inf", "--eta=-inf"):
        r = run_cli(*argv, bad, *out)
        assert r.returncode == 3, bad
        assert "finite" in r.stderr
    assert run_cli(*argv, "--x-update", "cg", *out).returncode == 2


# -------------------------------------------------------- train/recon-net


def write_tiny_config(path, **overrides):
    base = {
        "n_samples": 2,
        "shape": "12x12x3",
        "spokes": 5,
        "n_phases": 1,
        "nc": 4,
        "epochs": 1,
        "seed": 0,
        "lr0": 1e-3,
    }
    base.update(overrides)
    lines = ["# tiny smoke-test run"]
    lines += [f"{k} = {v}" for k, v in base.items()]
    path.write_text("\n".join(lines) + "\n")


def test_train_then_reconstruct(tmp_path):
    cfg_p = tmp_path / "train.cfg"
    ckpt_p = tmp_path / "net.dusc"
    write_tiny_config(cfg_p)
    r = run_cli("train", "--config", str(cfg_p), "--out-ckpt", str(ckpt_p))
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "step lr mse penalty total"
    assert len(lines) == 3  # two samples, batch 1, one epoch
    step0 = lines[1].split()
    assert step0[0] == "0"
    assert float(step0[2]) > 0.0

    params, cfg, step, seed = load_checkpoint(ckpt_p)
    assert step == 2 and seed == 0
    assert cfg.n_phases == 1 and cfg.nc == 4

    gt_p = tmp_path / "gt.dmrt"
    mask_p = tmp_path / "mask.dmrt"
    out_p = tmp_path / "x.dmrt"
    save_dmrt(gt_p, generate_phantom(PhantomSpec(shape=(12, 12, 3), seed=50)))
    run_cli(
        "mask", "--pattern", "radial", "--spokes", "5",
        "--shape", "12x12x3", "--seed", "1", "--out", str(mask_p),
    )
    r = run_cli(
        "recon-net", "--ckpt", str(ckpt_p), "--data", str(gt_p),
        "--mask", str(mask_p), "--out", str(out_p),
    )
    assert r.returncode == 0, r.stderr
    x = load_dmrt(out_p)
    assert x.shape == (12, 12, 3)
    assert np.all(np.isfinite(x.real))


def test_train_config_sets_all_twenty_keys(tmp_path):
    # each key is a field of one section and parses with the field's type
    text = {
        "n_samples": "3", "shape": "12x10x2", "ellipses": "2", "motion": "0.1",
        "pattern": "vds", "spokes": "5", "accel": "2.5", "center_lines": "2",
        "n_phases": "2", "nc": "4", "f_depth": "1", "fhat_depth": "3",
        "lr0": "0.002", "decay": "0.9", "decay_steps": "7", "epochs": "2",
        "batch": "2", "seed": "11", "zeta": "0.01", "sigma": "0.02",
    }
    cfg_p = tmp_path / "all.cfg"
    cfg_p.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
    data, net, train = cli._parse_train_config(cfg_p)
    assert data == cli.DataConfig(
        n_samples=3, shape=(12, 10, 2), ellipses=2, motion=0.1,
        pattern="vds", spokes=5, accel=2.5, center_lines=2,
    )
    assert net == NetworkConfig(n_phases=2, nc=4, f_depth=1, fhat_depth=3)
    assert train == TrainConfig(
        lr0=0.002, decay=0.9, decay_steps=7, epochs=2, batch=2, seed=11,
        zeta=0.01, sigma=0.02,
    )


def test_train_rejects_unknown_key(tmp_path):
    cfg_p = tmp_path / "bad.cfg"
    cfg_p.write_text("learning_rate = 0.1\n")
    r = run_cli("train", "--config", str(cfg_p), "--out-ckpt", str(tmp_path / "c"))
    assert r.returncode == 3
    assert "learning_rate" in r.stderr


def test_train_rejects_dc_mode_key(tmp_path):
    # dc_mode is not a config key: the network has one data-consistency step
    cfg_p = tmp_path / "cg.cfg"
    cfg_p.write_text("n_phases = 1\nnc = 4\ndc_mode = cg\n")
    r = run_cli("train", "--config", str(cfg_p), "--out-ckpt", str(tmp_path / "c"))
    assert r.returncode == 3
    assert "dc_mode" in r.stderr
    assert "Traceback" not in r.stderr


def test_train_rejects_non_finite_sigma(tmp_path):
    # nan > 0 is false, so a NaN sigma would otherwise train without noise
    cfg_p = tmp_path / "nan.cfg"
    write_tiny_config(cfg_p, sigma="nan")
    r = run_cli("train", "--config", str(cfg_p), "--out-ckpt", str(tmp_path / "c"))
    assert r.returncode == 3
    assert "finite" in r.stderr
    assert "Traceback" not in r.stderr


def test_train_rejects_nan_accel(tmp_path):
    cfg_p = tmp_path / "nan.cfg"
    write_tiny_config(cfg_p, pattern="vds", accel="nan")
    r = run_cli("train", "--config", str(cfg_p), "--out-ckpt", str(tmp_path / "c"))
    assert r.returncode == 3
    assert "acceleration" in r.stderr
    assert "Traceback" not in r.stderr


def test_train_rejects_negative_center_lines(tmp_path):
    cfg_p = tmp_path / "vds.cfg"
    write_tiny_config(cfg_p, pattern="vds", accel=4, center_lines=-3)
    r = run_cli("train", "--config", str(cfg_p), "--out-ckpt", str(tmp_path / "c"))
    assert r.returncode == 3
    assert "center_lines" in r.stderr
    assert "Traceback" not in r.stderr


def test_train_rejects_a_seed_the_checkpoint_cannot_hold(tmp_path):
    # 2^63 does not fit the checkpoint's i64 seed: rejected before any training
    cfg_p = tmp_path / "seed.cfg"
    ckpt_p = tmp_path / "c.dusc"
    write_tiny_config(cfg_p, n_samples=1, shape="8x8x2", seed=2**63)
    r = run_cli("train", "--config", str(cfg_p), "--out-ckpt", str(ckpt_p))
    assert r.returncode == 3
    assert "seed" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
    assert not ckpt_p.exists()


def test_train_rejects_malformed_line(tmp_path):
    cfg_p = tmp_path / "bad.cfg"
    cfg_p.write_text("epochs\n")
    r = run_cli("train", "--config", str(cfg_p), "--out-ckpt", str(tmp_path / "c"))
    assert r.returncode == 3


def test_recon_net_missing_checkpoint_is_data_error(tmp_path):
    gt_p = tmp_path / "gt.dmrt"
    save_dmrt(gt_p, generate_phantom(PhantomSpec(shape=(8, 8, 2), seed=0)))
    r = run_cli(
        "recon-net", "--ckpt", str(tmp_path / "missing.dusc"),
        "--data", str(gt_p), "--mask", str(gt_p), "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 3


def test_recon_net_non_finite_volume_is_numerical_error(tmp_path):
    gt_p, mask_p = write_radial_inputs(tmp_path)
    gt = load_dmrt(gt_p)
    gt[3, 5, 1] = np.nan
    save_dmrt(gt_p, gt)
    ckpt_p = tmp_path / "net.dusc"
    cfg = NetworkConfig(n_phases=1, nc=4)
    save_checkpoint(ckpt_p, init_network_params(cfg), cfg)
    r = run_cli(
        "recon-net", "--ckpt", str(ckpt_p), "--data", str(gt_p),
        "--mask", str(mask_p), "--out", str(tmp_path / "x.dmrt"),
    )
    assert r.returncode == 4
    assert "non-finite" in r.stderr
    assert "Traceback" not in r.stderr


def test_recon_net_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Inference only: a paper-default (15 phases, nc 16) network on 32x32x8
    # writes the same bytes at one and two BLAS threads.  Training gradients
    # still depend on the thread count at 64x64x8.
    gt_p, mask_p = write_radial_inputs(tmp_path, (32, 32, 8), spokes=8)
    ckpt_p = tmp_path / "net.dusc"
    cfg = NetworkConfig()
    save_checkpoint(ckpt_p, init_network_params(cfg), cfg)
    outs = []
    for threads in ("1", "2"):
        out_p = tmp_path / f"x{threads}.dmrt"
        r = subprocess.run(
            [sys.executable, "-m", "dynmr", "recon-net", "--ckpt", str(ckpt_p),
             "--data", str(gt_p), "--mask", str(mask_p), "--out", str(out_p)],
            capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert r.returncode == 0, r.stderr
        outs.append(out_p.read_bytes())
    assert outs[0] == outs[1]


# ------------------------------------------------------------ eval/gradcheck


def test_eval_reports_finite_scores(tmp_path):
    gt_p = tmp_path / "gt.dmrt"
    re_p = tmp_path / "re.dmrt"
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 3), seed=9))
    rng = np.random.default_rng(0)
    save_dmrt(gt_p, gt)
    save_dmrt(re_p, gt + 0.05 * rng.standard_normal(gt.shape))
    r = run_cli("eval", "--recon", str(re_p), "--gt", str(gt_p))
    assert r.returncode == 0, r.stderr
    out = dict(line.split() for line in r.stdout.strip().splitlines())
    assert 5.0 < float(out["psnr_db"]) < 100.0
    assert 0.0 < float(out["ssim"]) <= 1.0


def test_gradcheck_passes(tmp_path):
    r = run_cli("gradcheck", "--seed", "0")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.strip().splitlines()
    assert len(lines) >= 4
    for line in lines:
        assert line.endswith("pass")
        assert "scaled_err=" in line


def test_no_subcommand_is_usage_error():
    r = run_cli()
    assert r.returncode == 2
