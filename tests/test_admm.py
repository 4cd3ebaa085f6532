import tracemalloc

import numpy as np
import pytest

from dynmr import admm
from dynmr.admm import (
    AdmmConfig,
    AdmmState,
    iterate,
    l_update,
    objective,
    reconstruct,
    soft_threshold_complex,
    temporal_fft,
    x_update_closed_form,
    z_update,
)
from dynmr.encoding import Encoder, make_pseudo_radial_mask
from dynmr.errors import NumericalError
from dynmr.metrics import psnr
from dynmr.phantom import PhantomSpec, generate_phantom
from dynmr.volume import fro_norm
from oracles import x_update_cg


def rand_volume(rng, shape=(8, 8, 4)):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_encoder(rng, shape=(8, 8, 4)):
    m = (rng.uniform(size=shape) < 0.5).astype(np.uint8)
    m[shape[0] // 2, shape[1] // 2, :] = 1
    return Encoder(m)


# ------------------------------------------------------------ shrinkage


def test_soft_threshold_examples():
    v = np.array([3.0 + 4.0j])
    assert np.array_equal(soft_threshold_complex(v, 5.0), np.array([0.0 + 0.0j]))
    out = soft_threshold_complex(np.array([2.0 + 0.0j]), 0.5)
    assert abs(out[0] - 1.5) < 1e-15
    out = soft_threshold_complex(np.array([2.0j]), 0.5)
    assert abs(out[0] - 1.5j) < 1e-15


def test_soft_threshold_zero_and_negative_tau():
    z = np.zeros(3, dtype=complex)
    assert np.array_equal(soft_threshold_complex(z, 1.0), z)
    for bad in (-0.1, np.nan):
        with pytest.raises(ValueError):
            soft_threshold_complex(z, bad)


def test_soft_threshold_preserves_phase():
    rng = np.random.default_rng(0)
    v = rand_volume(rng)
    out = soft_threshold_complex(v, 0.3)
    big = np.abs(v) > 0.3
    np.testing.assert_allclose(
        np.angle(out[big]), np.angle(v[big]), rtol=0, atol=1e-12
    )
    assert np.all(out[~big] == 0)


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u, v = rand_volume(rng), rand_volume(rng)
        tau = float(rng.uniform(0.0, 2.0))
        du = np.abs(soft_threshold_complex(u, tau) - soft_threshold_complex(v, tau))
        dv = np.abs(u - v)
        assert np.all(du <= dv + 1e-12)


# --------------------------------------------------------- temporal DFT


def test_temporal_fft_unitary():
    rng = np.random.default_rng(2)
    v = rand_volume(rng, (4, 4, 6))
    back = temporal_fft(temporal_fft(v, "forward"), "inverse")
    assert np.max(np.abs(back - v)) < 1e-13
    k = temporal_fft(v, "forward")
    assert abs(fro_norm(k) - fro_norm(v)) < 1e-12 * fro_norm(v)


def test_temporal_fft_constant_series_concentrates():
    t = 8
    v = np.ones((2, 2, t), dtype=complex)
    k = temporal_fft(v, "forward")
    assert np.max(np.abs(k[:, :, 0] - np.sqrt(t))) < 1e-12
    assert np.max(np.abs(k[:, :, 1:])) < 1e-12


def test_temporal_fft_rejects_unknown_direction():
    with pytest.raises(ValueError):
        temporal_fft(np.zeros((2, 2, 2), dtype=complex), "up")


# -------------------------------------------------------------- z step


def test_z_update_lambda_zero_is_identity():
    rng = np.random.default_rng(3)
    state = AdmmState(x=rand_volume(rng), z=rand_volume(rng), l=rand_volume(rng))
    cfg = AdmmConfig(lam=0.0, mu=1.0)
    z = z_update(state, cfg)
    assert np.max(np.abs(z - (state.x + state.l))) < 1e-12


def test_z_update_kills_constant_series_under_large_threshold():
    # a temporally constant volume has all its transform energy in one bin,
    # so a threshold above that single magnitude wipes the volume entirely
    t = 4
    v = (0.5 + 0.25j) * np.ones((3, 3, t), dtype=complex)
    state = AdmmState(x=v, z=v.copy(), l=np.zeros_like(v))
    peak = np.sqrt(t) * abs(0.5 + 0.25j)
    cfg = AdmmConfig(lam=2.0 * peak, mu=1.0)
    z = z_update(state, cfg)
    assert np.max(np.abs(z)) < 1e-12


def test_z_update_matches_brute_force_composition():
    rng = np.random.default_rng(5)
    for _ in range(5):
        state = AdmmState(x=rand_volume(rng), z=rand_volume(rng), l=rand_volume(rng))
        cfg = AdmmConfig(lam=0.2, mu=0.4)
        got = z_update(state, cfg)
        coeffs = np.fft.fft(state.x + state.l, axis=2, norm="ortho")
        mag = np.abs(coeffs)
        shrunk = coeffs * np.maximum(mag - 0.5, 0.0) / np.where(mag > 0, mag, 1.0)
        want = np.fft.ifft(shrunk, axis=2, norm="ortho")
        assert np.max(np.abs(got - want)) < 1e-13


# -------------------------------------------------------------- x step


def test_x_update_all_zero_mask_returns_y():
    # with nothing sampled the data term vanishes and the minimizer is z - l;
    # a real mask always samples something, so empty the encoder's index
    rng = np.random.default_rng(6)
    z, l = rand_volume(rng), rand_volume(rng)
    enc = rand_encoder(rng)
    enc._sampled = np.empty(0, dtype=np.intp)
    x = x_update_closed_form(z, l, np.empty(0, dtype=complex), enc, mu=0.7)
    assert np.max(np.abs(x - (z - l))) < 1e-12


def test_x_update_large_mu_pins_to_y():
    rng = np.random.default_rng(7)
    enc = rand_encoder(rng)
    z, l = rand_volume(rng), rand_volume(rng)
    b = enc.forward(rand_volume(rng))
    x = x_update_closed_form(z, l, enc.samples(enc.adjoint(b)), enc, mu=1e8)
    assert np.max(np.abs(x - (z - l))) < 1e-6


def test_x_update_zeroes_the_subproblem_gradient():
    rng = np.random.default_rng(8)
    for _ in range(10):
        enc = rand_encoder(rng)
        z, l = rand_volume(rng), rand_volume(rng)
        b = enc.forward(rand_volume(rng))
        mu = float(rng.uniform(0.05, 5.0))
        x = x_update_closed_form(z, l, enc.samples(enc.adjoint(b)), enc, mu)
        grad = enc.adjoint(enc.forward(x) - b) + mu * (x - (z - l))
        rhs = enc.adjoint(b) + mu * (z - l)
        assert fro_norm(grad) / fro_norm(rhs) < 1e-10


def test_x_update_rejects_bad_mu():
    rng = np.random.default_rng(9)
    enc = rand_encoder(rng)
    z = rand_volume(rng)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            x_update_closed_form(z, z, enc.samples(z), enc, mu=bad)
        with pytest.raises(ValueError):
            x_update_cg(z, z, z, enc, mu=bad)


def test_cg_full_mask_closed_formula():
    # fully sampled: A^H A = I, so (1 + mu) x = A^H b + mu (z - l)
    rng = np.random.default_rng(10)
    shape = (8, 8, 4)
    enc = Encoder(np.ones(shape, dtype=np.uint8))
    z, l = rand_volume(rng, shape), rand_volume(rng, shape)
    b = enc.forward(rand_volume(rng, shape))
    x, info = x_update_cg(z, l, enc.adjoint(b), enc, mu=1.0)
    want = (enc.adjoint(b) + (z - l)) / 2.0
    assert np.max(np.abs(x - want)) < 1e-8
    assert info.residual <= 1e-8


def test_cg_matches_closed_form():
    # the odd shape puts the k-space centre off the half-way point, where the
    # centring shifts of the FFT are not their own inverse
    rng = np.random.default_rng(11)
    for shape in ((8, 8, 4), (33, 21, 5)):
        for _ in range(20):
            enc = rand_encoder(rng, shape)
            z, l = rand_volume(rng, shape), rand_volume(rng, shape)
            b = enc.forward(rand_volume(rng, shape))
            mu = float(rng.uniform(0.1, 2.0))
            atb = enc.adjoint(b)
            xc = x_update_closed_form(z, l, enc.samples(atb), enc, mu)
            xg, info = x_update_cg(z, l, atb, enc, mu)
            assert fro_norm(xg - xc) / fro_norm(xc) < 1e-6
            assert info.residual <= 1e-8


def test_cg_zero_rhs_short_circuits():
    shape = (4, 4, 2)
    enc = Encoder(np.ones(shape, dtype=np.uint8))
    z = np.zeros(shape, dtype=complex)
    x, info = x_update_cg(z, z, z, enc, mu=1.0)
    assert not x.any()
    assert info.n_iters == 0
    assert info.residual == 0.0


def test_cg_converges_quickly():
    # two-point spectrum {mu, 1 + mu} means exact convergence in two steps
    rng = np.random.default_rng(12)
    enc = rand_encoder(rng)
    z, l = rand_volume(rng), rand_volume(rng)
    b = enc.forward(rand_volume(rng))
    _, info = x_update_cg(z, l, enc.adjoint(b), enc, mu=0.5)
    assert info.n_iters <= 3


# -------------------------------------------------------------- l step


def test_l_update_formula():
    rng = np.random.default_rng(13)
    state = AdmmState(x=rand_volume(rng), z=rand_volume(rng), l=rand_volume(rng))
    out = l_update(state, eta=0.7)
    want = state.l - 0.7 * (state.z - state.x)
    assert np.array_equal(out, want)


def test_l_update_fixed_point_when_consistent():
    rng = np.random.default_rng(14)
    x = rand_volume(rng)
    state = AdmmState(x=x, z=x.copy(), l=rand_volume(rng))
    assert np.array_equal(l_update(state, eta=1.0), state.l)


# ----------------------------------------------------------- objective


def test_objective_components():
    rng = np.random.default_rng(15)
    enc = rand_encoder(rng)
    x = rand_volume(rng)
    b = enc.forward(rand_volume(rng))
    cfg = AdmmConfig(lam=0.25, mu=1.0)
    total, fidelity, l1 = objective(x, b, enc, cfg)
    assert fidelity >= 0 and l1 >= 0
    assert abs(total - (fidelity + 0.25 * l1)) < 1e-12 * max(1.0, total)
    want_fid = 0.5 * fro_norm(enc.forward(x) - b) ** 2
    assert abs(fidelity - want_fid) < 1e-12 * max(1.0, want_fid)
    want_l1 = float(np.sum(np.abs(np.fft.fft(x, axis=2, norm="ortho"))))
    assert abs(l1 - want_l1) < 1e-12 * want_l1


def test_objective_lambda_zero():
    rng = np.random.default_rng(16)
    enc = rand_encoder(rng)
    x = rand_volume(rng)
    b = enc.forward(rand_volume(rng))
    total, fidelity, _ = objective(x, b, enc, AdmmConfig(lam=0.0, mu=1.0))
    assert total == fidelity


# ------------------------------------------------------------- full run


def test_reconstruct_fully_sampled_lambda_zero_exact():
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=0))
    enc = Encoder(np.ones((16, 16, 4), dtype=np.uint8))
    b = enc.forward(gt)
    cfg = AdmmConfig(lam=0.0, mu=1.0, n_iters=1)
    x = reconstruct(b, enc, cfg)
    assert fro_norm(x - gt) / fro_norm(gt) < 1e-8
    assert len(list(iterate(b, enc, cfg))) == 1


def test_reconstruct_beats_zero_filled():
    gt = generate_phantom(PhantomSpec(shape=(32, 32, 8), seed=5))
    mask = make_pseudo_radial_mask((32, 32, 8), 8, seed=2)
    enc = Encoder(mask)
    b = enc.forward(gt)
    x = reconstruct(b, enc, AdmmConfig())
    gain = psnr(gt, x) - psnr(gt, enc.adjoint(b))
    assert gain >= 3.0


def test_reconstruct_constraint_violation_shrinks():
    gt = generate_phantom(PhantomSpec(shape=(32, 32, 8), seed=5))
    mask = make_pseudo_radial_mask((32, 32, 8), 8, seed=2)
    enc = Encoder(mask)
    b = enc.forward(gt)
    cfg = AdmmConfig()
    constraints, objectives = [], []
    for state in iterate(b, enc, cfg):
        constraints.append(fro_norm(state.z - state.x))
        objectives.append(objective(state.x, b, enc, cfg)[0])
    assert len(constraints) == 50
    assert constraints[-1] <= constraints[0] / 10.0
    assert all(np.isfinite(objectives))


def test_reconstruct_is_the_last_iterate():
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=1))
    enc = Encoder(make_pseudo_radial_mask((16, 16, 4), 6, seed=0))
    b = enc.forward(gt)
    cfg = AdmmConfig(n_iters=7)
    *_, last = iterate(b, enc, cfg)
    assert np.array_equal(reconstruct(b, enc, cfg), last.x)
    zero_filled = reconstruct(b, enc, AdmmConfig(n_iters=0))
    assert np.array_equal(zero_filled, enc.adjoint(b))


def test_reconstruct_never_evaluates_the_objective(monkeypatch):
    def refuse(*args):
        raise AssertionError("objective called")

    monkeypatch.setattr(admm, "objective", refuse)
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=1))
    enc = Encoder(make_pseudo_radial_mask((16, 16, 4), 6, seed=0))
    x = reconstruct(enc.forward(gt), enc, AdmmConfig(n_iters=5))
    assert np.all(np.isfinite(x))


def test_iterate_is_bit_identical_to_the_formulas():
    # each step as the module docstring writes it, on fresh arrays: the x
    # step in uncentered k-space, D = F(A^H b) at the sampled entries
    shape = (17, 12, 6)
    gt = generate_phantom(PhantomSpec(shape=shape, seed=2))
    enc = Encoder(make_pseudo_radial_mask(shape, 5, seed=1))
    b = enc.forward(gt)
    cfg = AdmmConfig(lam=0.02, mu=0.7, eta=0.9, n_iters=6)
    atb = enc.adjoint(b)
    sampled = np.flatnonzero(np.fft.ifftshift(enc.mask, axes=(0, 1)))
    d = np.fft.fft2(atb, axes=(0, 1), norm="ortho").reshape(-1)[sampled]
    c = 1.0 / (1.0 + cfg.mu)
    x, l = atb, np.zeros_like(atb)
    seen = set()
    for state in iterate(b, enc, cfg):
        coeffs = np.fft.fft(x + l, axis=2, norm="ortho")
        mag = np.abs(coeffs)
        shrunk = np.maximum(mag - cfg.lam / cfg.mu, 0.0)
        coeffs = coeffs * (shrunk / np.where(mag > 0, mag, 1.0))
        z = np.fft.ifft(coeffs, axis=2, norm="ortho")
        k = np.fft.fft2(z - l, axes=(0, 1), norm="ortho").reshape(-1)
        k[sampled] = k[sampled] + c * (d - k[sampled])
        x = np.fft.ifft2(k.reshape(shape), axes=(0, 1), norm="ortho")
        l = l - cfg.eta * (z - x)
        for got, want in ((state.z, z), (state.x, x), (state.l, l)):
            assert got.tobytes() == want.tobytes()
        seen.add((id(state.x), id(state.z), id(state.l)))
    assert len(seen) == 1  # the same three arrays every iteration


def test_reconstruct_peak_is_a_few_volumes():
    # iterate holds x, z and l (three volumes), D at the sampled entries
    # and the multiplier step's row band, and writes every step into them;
    # the shrinkage pair is x's memory.  numpy's fixed-size FFT and casting
    # buffers and the boolean masks add a fraction of a volume.
    shape = (64, 64, 16)
    gt = generate_phantom(PhantomSpec(shape=shape, seed=3))
    enc = Encoder(make_pseudo_radial_mask(shape, 16, seed=3))
    b = enc.forward(gt)
    volume = np.prod(shape) * 16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reconstruct(b, enc, AdmmConfig(n_iters=3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * volume, peak / volume


def test_iterate_names_the_first_non_finite_iteration(monkeypatch):
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=1))
    enc = Encoder(make_pseudo_radial_mask((16, 16, 4), 6, seed=0))
    b = enc.forward(gt)
    calls = []
    exact = admm.x_update_closed_form

    def poisoned_third_step(*args):
        calls.append(1)
        x = exact(*args)
        if len(calls) == 3:
            x[0, 0, 0] = np.nan
        return x

    monkeypatch.setattr(admm, "x_update_closed_form", poisoned_third_step)
    steps = iterate(b, enc, AdmmConfig(n_iters=5))
    next(steps)
    next(steps)
    with pytest.raises(NumericalError, match="non-finite iterate at iteration 3$"):
        next(steps)


def test_a_diverging_solve_raises_numerical_error_not_a_warning():
    # eta = 1e308 overflows the multiplier step; with warnings made errors,
    # only the finiteness check's NumericalError may come out of the solve
    gt = generate_phantom(PhantomSpec(shape=(16, 16, 4), seed=1))
    enc = Encoder(make_pseudo_radial_mask((16, 16, 4), 6, seed=0))
    with pytest.raises(NumericalError, match="non-finite iterate at iteration"):
        reconstruct(enc.forward(gt), enc, AdmmConfig(eta=1e308, n_iters=5))


def test_config_validation():
    with pytest.raises(ValueError):
        AdmmConfig(lam=-1.0)
    with pytest.raises(ValueError):
        AdmmConfig(mu=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(eta=-0.5)
    with pytest.raises(ValueError):
        AdmmConfig(n_iters=-1)
    for key in ("lam", "mu", "eta"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                AdmmConfig(**{key: bad})
    AdmmConfig(n_iters=0)
