"""Every command-line failure exits with a documented code and no traceback.

One table over every subcommand's failure paths: a usage error exits 2; a
malformed, missing or unwritable file, a rejected setting or a volume too
large to allocate exits 3; a non-finite result, a non-finite --data volume
or a collapsed mu exits 4.
No row prints a warning: a score, loss, noise draw, solve or network forward
that overflows is reported by its exit code alone.
Each row runs `python -m dynmr` in a child process whose address space is
capped, so an oversized request fails at once on any machine instead of
paging in.
"""

import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from dynmr.encoding import make_pseudo_radial_mask
from dynmr.fileio import save_checkpoint, save_dmrt
from dynmr.network import NetworkConfig, init_network_params
from dynmr.phantom import PhantomSpec, generate_phantom

ADDRESS_SPACE = 4 << 30  # bytes; far below the 7.28 TiB of the oversized phantom
TRAIN = ["n_samples = 1", "shape = 8x8x2", "spokes = 3", "n_phases = 1", "nc = 2"]

OUT = "{dir}/out.dmrt"
OLD_DIAG = b"old diag\n"
RECON_ADMM = ["recon-admm", "--data", "{gt}", "--mask", "{mask}", "--out", OUT]
RECON_NET = ["recon-net", "--ckpt", "{ckpt}", "--data", "{gt}", "--mask", "{mask}",
             "--out", OUT]

TABLE = [
    ("no-subcommand", [], 2),
    ("unknown-subcommand", ["frobnicate"], 2),
    ("phantom-bad-shape", ["phantom", "--shape", "8x8", "--out", OUT], 2),
    ("phantom-no-out", ["phantom", "--shape", "8x8x2"], 2),
    ("phantom-zero-ellipses",
     ["phantom", "--shape", "8x8x2", "--ellipses", "0", "--out", OUT], 3),
    ("phantom-unwritable", ["phantom", "--shape", "8x8x2", "--out", "{dir}/no/p.dmrt"], 3),
    ("phantom-oversized", ["phantom", "--shape", "100000x100000x100", "--out", OUT], 3),
    ("phantom-negative-seed",
     ["phantom", "--shape", "8x8x2", "--seed", "-3", "--out", OUT], 3),
    ("mask-radial-no-spokes", ["mask", "--pattern", "radial", "--shape", "8x8x2",
                               "--out", OUT], 2),
    ("mask-unknown-pattern", ["mask", "--pattern", "spiral", "--shape", "8x8x2",
                              "--out", OUT], 2),
    ("mask-vds-nan-accel", ["mask", "--pattern", "vds", "--accel", "nan",
                            "--shape", "8x8x2", "--out", OUT], 3),
    ("mask-negative-seed", ["mask", "--pattern", "radial", "--spokes", "4", "--shape", "8x8x2",
                            "--seed", "-1", "--out", OUT], 3),
    ("recon-admm-unknown-option", [*RECON_ADMM, "--x-update", "cg"], 2),
    ("recon-admm-missing-file", [*RECON_ADMM[:2], "{dir}/missing.dmrt", *RECON_ADMM[3:]], 3),
    ("recon-admm-shape-mismatch", [*RECON_ADMM[:4], "{mask_other}", *RECON_ADMM[5:]], 3),
    ("recon-admm-not-a-mask", [*RECON_ADMM[:4], "{gt}", *RECON_ADMM[5:]], 3),
    ("recon-admm-complex-mask", [*RECON_ADMM[:4], "{mask_complex}", *RECON_ADMM[5:]], 3),
    ("recon-admm-nan-lambda", [*RECON_ADMM, "--lambda=nan"], 3),
    ("recon-admm-non-finite", [*RECON_ADMM[:2], "{gt_nan}", *RECON_ADMM[3:]], 4),
    ("recon-admm-iters0-non-finite",
     [*RECON_ADMM[:2], "{gt_nan}", *RECON_ADMM[3:], "--iters", "0"], 4),
    ("recon-admm-inf", [*RECON_ADMM[:2], "{gt_inf}", *RECON_ADMM[3:]], 4),
    ("recon-admm-unwritable-diag", [*RECON_ADMM, "--diag", "{dir}/no/d.txt"], 3),
    ("recon-admm-non-finite-keeps-diag",
     [*RECON_ADMM[:2], "{gt_nan}", *RECON_ADMM[3:], "--diag", "{diag_old}"], 4),
    ("recon-admm-diverges", [*RECON_ADMM, "--eta", "1e308"], 4),
    ("recon-admm-diverges-keeps-diag",
     [*RECON_ADMM, "--eta", "1e308", "--diag", "{diag_old}"], 4),
    ("train-no-out-ckpt", ["train", "--config", "{cfg_ok}"], 2),
    ("train-missing-config", ["train", "--config", "{dir}/missing.cfg",
                              "--out-ckpt", "{dir}/c.dusc"], 3),
    ("train-unknown-key", ["train", "--config", "{cfg_unknown}",
                           "--out-ckpt", "{dir}/c.dusc"], 3),
    ("train-malformed-line", ["train", "--config", "{cfg_malformed}",
                              "--out-ckpt", "{dir}/c.dusc"], 3),
    ("train-duplicate-key", ["train", "--config", "{cfg_duplicate}",
                             "--out-ckpt", "{dir}/c.dusc"], 3),
    ("train-diverges", ["train", "--config", "{cfg_diverges}",
                        "--out-ckpt", "{dir}/c.dusc"], 4),
    ("train-noise-overflows", ["train", "--config", "{cfg_noise_overflows}",
                               "--out-ckpt", "{dir}/c.dusc"], 4),
    ("train-unwritable-ckpt", ["train", "--config", "{cfg_ok}",
                               "--out-ckpt", "{dir}/no/c.dusc"], 3),
    ("train-mu-collapses", ["train", "--config", "{cfg_mu_collapses}",
                            "--out-ckpt", "{dir}/c.dusc"], 4),
    ("train-lr-overflows", ["train", "--config", "{cfg_lr_overflows}",
                            "--out-ckpt", "{dir}/c.dusc"], 4),
    ("recon-net-missing-ckpt", [*RECON_NET[:2], "{dir}/missing.dusc", *RECON_NET[3:]], 3),
    ("recon-net-truncated-ckpt", [*RECON_NET[:2], "{ckpt_cut}", *RECON_NET[3:]], 3),
    ("recon-net-non-finite", [*RECON_NET[:4], "{gt_nan}", *RECON_NET[5:]], 4),
    ("recon-net-inf", [*RECON_NET[:4], "{gt_inf}", *RECON_NET[5:]], 4),
    ("recon-net-overflowing-checkpoint",
     [*RECON_NET[:2], "{ckpt_overflowing}", *RECON_NET[3:]], 4),
    ("eval-missing-file", ["eval", "--recon", "{dir}/missing.dmrt", "--gt", "{gt}"], 3),
    ("eval-shape-mismatch", ["eval", "--recon", "{gt_other}", "--gt", "{gt}"], 3),
    ("eval-non-finite", ["eval", "--recon", "{gt_nan}", "--gt", "{gt}"], 4),
    ("eval-inf-recon", ["eval", "--recon", "{gt_inf}", "--gt", "{gt}"], 4),
    ("eval-overflow-recon", ["eval", "--recon", "{gt_huge}", "--gt", "{gt}"], 4),
    ("gradcheck-bad-seed", ["gradcheck", "--seed", "x"], 2),
    ("gradcheck-negative-seed", ["gradcheck", "--seed", "-1"], 3),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("exit")
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=1))
    cfg = NetworkConfig(n_phases=1, nc=4)
    paths = {name: d / name for name in ("gt", "gt_other", "mask", "mask_other")}
    save_dmrt(paths["gt"], gt)
    for name, bad in (("gt_nan", np.nan), ("gt_inf", np.inf), ("gt_huge", 1e300),
                      ("gt_large", 1e150)):
        vol = gt.copy()
        vol[3, 5, 1] = bad
        paths[name] = d / name
        save_dmrt(paths[name], vol)
    save_dmrt(paths["gt_other"], gt[:, :, :3])
    save_dmrt(paths["mask"], make_pseudo_radial_mask(gt.shape, 6, seed=0))
    paths["mask_complex"] = d / "mask_complex"  # 0/1 entries, stored as complex
    save_dmrt(paths["mask_complex"], make_pseudo_radial_mask(gt.shape, 6, seed=0) + 0j)
    save_dmrt(paths["mask_other"], np.ones((16, 16, 5), dtype=np.uint8))
    paths["diag_old"] = d / "old_diag.txt"
    paths["diag_old"].write_bytes(OLD_DIAG)
    paths["ckpt"] = d / "net.dusc"
    save_checkpoint(paths["ckpt"], init_network_params(cfg), cfg)
    paths["ckpt_cut"] = d / "cut.dusc"
    paths["ckpt_cut"].write_bytes(paths["ckpt"].read_bytes()[:-9])
    for name, extra in (
        ("cfg_ok", []),
        ("cfg_unknown", ["dc_mode = cg"]),
        ("cfg_malformed", ["epochs 3"]),
        ("cfg_duplicate", ["epochs = 1", "epochs = 2"]),
        ("cfg_diverges", ["sigma = 1e300"]),  # noise overflows the loss
        ("cfg_noise_overflows", ["sigma = 1e308"]),  # the noise draw itself overflows
        ("cfg_mu_collapses", ["epochs = 3", "lr0 = 1e10"]),  # softplus(mu_raw) -> 0
        # one step at this rate leaves weights whose next forward overflows
        ("cfg_lr_overflows", ["epochs = 2", "lr0 = 1e308"]),
        ("cfg_lr_one_step", ["epochs = 1", "lr0 = 1e308"]),
    ):
        paths[name] = d / f"{name}.cfg"
        paths[name].write_text("\n".join(TRAIN + extra) + "\n")
    paths["ckpt_overflowing"] = d / "overflowing.dusc"
    subprocess.run(
        [sys.executable, "-m", "dynmr", "train", "--config", str(paths["cfg_lr_one_step"]),
         "--out-ckpt", str(paths["ckpt_overflowing"])],
        check=True,
        capture_output=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    return {"dir": str(d), **{k: str(v) for k, v in paths.items()}}


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run(files, argv):
    return subprocess.run(
        [sys.executable, "-m", "dynmr", *(a.format(**files) for a in argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=_cap_address_space,
    )


# What a row's message must name: the target path, not a temporary file, the
# non-finite --data, or the rejected option.
NAMES = {
    "recon-admm-non-finite": "{gt_nan}",
    "recon-admm-iters0-non-finite": "{gt_nan}",
    "recon-admm-non-finite-keeps-diag": "{gt_nan}",
    "recon-admm-inf": "{gt_inf}",
    "recon-net-non-finite": "{gt_nan}",
    "recon-net-inf": "{gt_inf}",
    "phantom-unwritable": "{dir}/no/p.dmrt",
    "recon-admm-unwritable-diag": "{dir}/no/d.txt",
    "train-unwritable-ckpt": "{dir}/no/c.dusc",
    "phantom-negative-seed": "--seed",
    "mask-negative-seed": "--seed",
    "gradcheck-negative-seed": "--seed",
}

# The file a failed row must leave byte-unchanged, with no temporary beside it.
KEPT = {
    "recon-admm-non-finite-keeps-diag": "diag_old",
    "recon-admm-diverges-keeps-diag": "diag_old",
}


@pytest.mark.parametrize("row, argv, code", TABLE, ids=[row[0] for row in TABLE])
def test_failure_exit_code(files, row, argv, code):
    r = _run(files, argv)
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    assert "Warning" not in r.stderr
    assert ".tmp" not in r.stderr
    if code != 2:
        assert "error:" in r.stderr
    if row in NAMES:
        assert NAMES[row].format(**files) in r.stderr
    if row in KEPT:
        with open(files[KEPT[row]], "rb") as fh:
            assert fh.read() == OLD_DIAG
        assert not [n for n in os.listdir(files["dir"]) if n.endswith(".tmp")]


def test_eval_of_a_large_finite_voxel_scores_without_a_warning(files):
    # one 1e150 voxel: psnr is finite, so ssim runs, and its windows must not overflow
    r = _run(files, ["eval", "--recon", "{gt_large}", "--gt", "{gt}"])
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    scores = dict(line.split() for line in r.stdout.splitlines())
    assert math.isfinite(float(scores["psnr_db"]))
    assert 0.0 < float(scores["ssim"]) < 1.0
