import numpy as np
import pytest

from dynmr.encoding import Encoder, make_pseudo_radial_mask
from dynmr.errors import NumericalError
from dynmr.fileio import load_checkpoint, save_checkpoint
from dynmr.network import (
    NetworkConfig,
    init_network_params,
    named_tensors,
    network_backward,
    network_forward,
)
from dynmr.phantom import make_phantom_dataset
from dynmr.training import (
    AdamState,
    TrainConfig,
    adam_step,
    init_adam,
    lr_schedule,
    mse_loss,
    train_loop,
)

# ------------------------------------------------------------------ loss


def test_mse_single_voxel_example():
    x_hat = np.array([[[3.0 + 0.0j]]])
    x_gt = np.array([[[1.0 + 0.0j]]])
    loss, grad = mse_loss(x_hat, x_gt)
    assert loss == 2.0
    assert grad[0, 0, 0] == 2.0 + 0.0j


def test_mse_zero_on_match():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((4, 4, 2)) + 1j * rng.standard_normal((4, 4, 2))
    loss, grad = mse_loss(v, v.copy())
    assert loss == 0.0
    assert not grad.any()


def test_mse_counts_both_components():
    x_hat = np.array([[[1.0 + 1.0j]]])
    x_gt = np.zeros((1, 1, 1), dtype=complex)
    loss, _ = mse_loss(x_hat, x_gt)
    assert loss == 1.0  # (1 + 1) / 2


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    x_hat = rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2))
    x_gt = rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2))
    _, grad = mse_loss(x_hat, x_gt)
    h = 1e-6
    for idx in [(0, 0, 0), (1, 2, 1), (2, 2, 0)]:
        for part, ref in ((x_hat.real, grad.real), (x_hat.imag, grad.imag)):
            orig = part[idx]
            part[idx] = orig + h
            hi, _ = mse_loss(x_hat, x_gt)
            part[idx] = orig - h
            lo, _ = mse_loss(x_hat, x_gt)
            part[idx] = orig
            num = (hi - lo) / (2.0 * h)
            assert abs(num - ref[idx]) < 1e-8


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 2, 2), dtype=complex), np.zeros((2, 2, 3), dtype=complex))


# ------------------------------------------------------------------ adam


def make_tensors(rng):
    return {
        "a": rng.standard_normal((3, 3)),
        "b": rng.standard_normal(4),
        "c": np.asarray(rng.standard_normal()),
    }


def test_adam_zero_gradient_is_identity():
    rng = np.random.default_rng(4)
    tensors = make_tensors(rng)
    before = {k: v.copy() for k, v in tensors.items()}
    state = init_adam(tensors)
    grads = {k: np.zeros_like(v) for k, v in tensors.items()}
    adam_step(tensors, grads, state, lr=0.1)
    for k in tensors:
        assert np.array_equal(tensors[k], before[k])
    assert state.t == 1


def test_adam_first_step_is_signed_lr():
    # bias correction makes the first update -lr * g / (|g| + eps)
    rng = np.random.default_rng(5)
    tensors = make_tensors(rng)
    before = {k: v.copy() for k, v in tensors.items()}
    grads = {k: rng.standard_normal(v.shape) + np.sign(v) for k, v in tensors.items()}
    state = init_adam(tensors)
    lr = 0.01
    adam_step(tensors, grads, state, lr)
    for k in tensors:
        step = before[k] - tensors[k]
        want = lr * np.sign(grads[k])
        np.testing.assert_allclose(step, want, rtol=1e-6, atol=1e-9)


def test_adam_constant_gradient_monotone():
    tensors = {"p": np.array([1.0])}
    grads = {"p": np.array([0.5])}
    state = init_adam(tensors)
    values = [tensors["p"][0]]
    for _ in range(100):
        adam_step(tensors, grads, state, lr=0.01)
        values.append(tensors["p"][0])
    diffs = np.diff(values)
    assert np.all(diffs < 0.0)
    assert state.t == 100


def test_adam_updates_in_place():
    tensors = {"p": np.array([1.0, 2.0])}
    alias = tensors["p"]
    state = init_adam(tensors)
    adam_step(tensors, {"p": np.array([1.0, -1.0])}, state, lr=0.1)
    assert tensors["p"] is alias


def test_adam_rejects_non_finite_gradient():
    tensors = {"w": np.zeros(2), "bad": np.zeros(2)}
    grads = {"w": np.zeros(2), "bad": np.array([1.0, np.nan])}
    state = init_adam(tensors)
    with pytest.raises(NumericalError, match="bad"):
        adam_step(tensors, grads, state, lr=0.1)


def test_adam_non_finite_gradient_writes_nothing():
    # the bad gradient comes after a good one, and the state is past step 0
    tensors = {"a": np.ones(3), "b": np.ones(2)}
    state = init_adam(tensors)
    adam_step(tensors, {"a": np.full(3, 0.5), "b": np.full(2, -0.5)}, state, lr=0.01)
    before = {
        "params": {k: v.tobytes() for k, v in tensors.items()},
        "m": {k: v.tobytes() for k, v in state.m.items()},
        "v": {k: v.tobytes() for k, v in state.v.items()},
    }
    grads = {"a": np.full(3, 0.5), "b": np.array([1.0, np.nan])}
    with pytest.raises(NumericalError, match="b"):
        adam_step(tensors, grads, state, lr=0.01)
    assert state.t == 1
    assert {k: v.tobytes() for k, v in tensors.items()} == before["params"]
    assert {k: v.tobytes() for k, v in state.m.items()} == before["m"]
    assert {k: v.tobytes() for k, v in state.v.items()} == before["v"]


# -------------------------------------------------------------- schedule


def test_lr_schedule_reference_points():
    cfg = TrainConfig(lr0=1e-3, decay=0.95, decay_steps=20)
    assert lr_schedule(0, cfg) == 1e-3
    assert abs(lr_schedule(20, cfg) - 1e-3 * 0.95) < 1e-18
    assert abs(lr_schedule(40, cfg) - 1e-3 * 0.95**2) < 1e-18


def test_lr_schedule_is_continuous_decay():
    cfg = TrainConfig(lr0=1.0, decay=0.5, decay_steps=10)
    values = [lr_schedule(s, cfg) for s in range(30)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert abs(values[5] - 0.5**0.5) < 1e-15


def test_lr_schedule_needs_resolved_steps():
    with pytest.raises(ValueError):
        lr_schedule(1, TrainConfig(decay_steps=None))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ValueError):
        TrainConfig(decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(decay=1.5)
    with pytest.raises(ValueError):
        TrainConfig(decay_steps=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(zeta=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(sigma=-1.0)
    # the checkpoint stores the seed as an i64, and seed sequences take no negatives
    for bad in (-1, 2**63, 2**64):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=bad)
    assert TrainConfig(seed=2**63 - 1).seed == 2**63 - 1
    for key in ("lr0", "decay", "zeta", "sigma"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                TrainConfig(**{key: bad})


# -------------------------------------------------------------- training


def tiny_setup():
    dataset = make_phantom_dataset(2, (16, 16, 4), seed=0)
    net_cfg = NetworkConfig(n_phases=1, nc=4)

    def sampler(shape, seed):
        return make_pseudo_radial_mask(shape, 6, seed=seed)

    return dataset, sampler, net_cfg


def test_train_loop_runs_and_records():
    dataset, sampler, net_cfg = tiny_setup()
    cfg = TrainConfig(epochs=2, seed=1)
    params, history = train_loop(dataset, sampler, net_cfg, cfg)
    assert len(history) == 4
    assert [r.step for r in history] == [0, 1, 2, 3]
    for r in history:
        assert np.isfinite(r.mse) and r.mse > 0
        assert r.penalty == 0.0
        assert r.total == r.mse
    # decay_steps resolves to one epoch (two steps here)
    assert history[0].lr == cfg.lr0
    assert abs(history[2].lr - cfg.lr0 * cfg.decay) < 1e-18


def test_train_loop_descends_on_a_fixed_operator():
    dataset = make_phantom_dataset(1, (16, 16, 4), seed=3)
    net_cfg = NetworkConfig(n_phases=2, nc=4)
    mask = make_pseudo_radial_mask((16, 16, 4), 6, seed=0)
    cfg = TrainConfig(epochs=12, lr0=3e-3, seed=2)
    _, history = train_loop(dataset, lambda shape, seed: mask, net_cfg, cfg)
    assert history[-1].mse < history[0].mse


def test_train_loop_deterministic():
    dataset, sampler, net_cfg = tiny_setup()
    cfg = TrainConfig(epochs=2, seed=5)
    params_a, hist_a = train_loop(dataset, sampler, net_cfg, cfg)
    params_b, hist_b = train_loop(dataset, sampler, net_cfg, TrainConfig(epochs=2, seed=5))
    assert [r.mse for r in hist_a] == [r.mse for r in hist_b]
    for (na, ta), (nb, tb) in zip(named_tensors(params_a), named_tensors(params_b)):
        assert na == nb
        assert np.array_equal(ta, tb)
    _, hist_c = train_loop(dataset, sampler, net_cfg, TrainConfig(epochs=2, seed=6))
    assert [r.mse for r in hist_c] != [r.mse for r in hist_a]


def test_train_loop_penalty_weight():
    dataset, sampler, net_cfg = tiny_setup()
    cfg = TrainConfig(epochs=1, zeta=0.1, seed=7)
    _, history = train_loop(dataset[:1], sampler, net_cfg, cfg)
    rec = history[0]
    assert rec.penalty > 0.0
    assert abs(rec.total - (rec.mse + 0.1 * rec.penalty)) < 1e-12


def test_train_loop_batch_averaging():
    # one step on a batch of two is one Adam step on the samples' mean gradient
    dataset, _, net_cfg = tiny_setup()

    def sampler(shape, seed):
        return make_pseudo_radial_mask(shape, 6, seed=0)

    cfg = TrainConfig(epochs=1, batch=2, seed=8, zeta=0.1)
    trained, history = train_loop(dataset, sampler, net_cfg, cfg)
    assert len(history) == 1
    params = init_network_params(net_cfg, seed=cfg.seed)
    per_sample = []
    for gt in dataset:
        enc = Encoder(sampler(gt.shape, None))
        x_hat, cache = network_forward(enc.forward(gt), enc, params, net_cfg)
        _, gloss = mse_loss(x_hat, gt)
        per_sample.append(network_backward(gloss, cache, params, cfg.zeta)[0])
    mean = {name: (g + per_sample[1][name]) / 2 for name, g in per_sample[0].items()}
    tensors = dict(named_tensors(params))
    adam_step(tensors, mean, init_adam(tensors), lr=cfg.lr0)
    for (name, want), (_, got) in zip(named_tensors(params), named_tensors(trained)):
        assert np.array_equal(want, got), name


def test_train_loop_with_noise_deterministic():
    dataset, sampler, net_cfg = tiny_setup()
    cfg = TrainConfig(epochs=1, sigma=0.01, seed=9)
    _, hist_a = train_loop(dataset[:1], sampler, net_cfg, cfg)
    _, hist_b = train_loop(dataset[:1], sampler, net_cfg, cfg)
    assert hist_a[0].mse == hist_b[0].mse


def test_train_loop_rejects_empty_dataset():
    _, sampler, net_cfg = tiny_setup()
    with pytest.raises(ValueError):
        train_loop([], sampler, net_cfg, TrainConfig())


def test_train_loop_resumes_from_given_params():
    dataset, sampler, net_cfg = tiny_setup()
    cfg = TrainConfig(epochs=1, seed=10)
    params, _ = train_loop(dataset, sampler, net_cfg, cfg)
    w_before = params.phases[0].f_stack[0].weights.copy()
    params2, _ = train_loop(dataset, sampler, net_cfg, cfg, params=params)
    assert params2 is params
    assert not np.array_equal(params.phases[0].f_stack[0].weights, w_before)


def test_params_that_do_not_match_the_config_are_rejected_before_any_write(tmp_path):
    # the checkpoint header comes from the config and its tensors from the
    # params: a mismatch would replace the last good file with one that
    # load_checkpoint rejects
    dataset, sampler, _ = tiny_setup()
    params = init_network_params(NetworkConfig(n_phases=3, nc=4), seed=1)
    before = {name: arr.copy() for name, arr in named_tensors(params)}
    ckpt = tmp_path / "model.dusc"
    good = NetworkConfig(n_phases=2, nc=4)
    save_checkpoint(ckpt, init_network_params(good), good)
    good_bytes = ckpt.read_bytes()
    for cfg in (
        NetworkConfig(n_phases=2, nc=4),  # fewer phases
        NetworkConfig(n_phases=4, nc=4),  # more phases
        NetworkConfig(n_phases=3, nc=8),  # same names, other shapes
        NetworkConfig(n_phases=3, nc=4, fhat_depth=3),  # an extra layer
    ):
        with pytest.raises(ValueError, match="do not match"):
            train_loop(dataset, sampler, cfg, TrainConfig(), params=params,
                       ckpt_path=ckpt)
        with pytest.raises(ValueError, match="do not match"):
            save_checkpoint(ckpt, params, cfg)
    assert ckpt.read_bytes() == good_bytes
    assert sorted(tmp_path.iterdir()) == [ckpt]
    load_checkpoint(ckpt)
    for name, arr in named_tensors(params):
        assert np.array_equal(arr, before[name]), name
