import tracemalloc
import types

import numpy as np
import pytest

import dynmr.conv3d
import dynmr.network
from dynmr.admm import AdmmConfig, reconstruct
from dynmr.conv3d import stack_backward, stack_forward
from dynmr.encoding import Encoder, make_pseudo_radial_mask
from dynmr.gradcheck import fd_at
from dynmr.network import (
    NetCache,
    NetworkConfig,
    NetworkParams,
    _z_block_backward,
    eta_of,
    init_network_params,
    inverse_penalty,
    mu_of,
    named_tensors,
    network_backward,
    network_forward,
    x_block,
    z_block,
)
from dynmr.phantom import PhantomSpec, generate_phantom
from dynmr.volume import from_channels, fro_norm, real_inner, to_channels
from oracles import inverse_penalty_two_pass, neutral_phase_params, x_update_cg


def rand_volume(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def small_problem(seed=0, shape=(8, 8, 3), n_spokes=4):
    rng = np.random.default_rng(seed)
    gt = generate_phantom(PhantomSpec(shape=shape, seed=seed))
    mask = make_pseudo_radial_mask(shape, n_spokes, seed=seed)
    enc = Encoder(mask)
    return gt, enc, enc.forward(gt), rng


def inverse_penalty_from_inputs(v_list, params):
    """Penalty value on explicitly given block inputs; the oracle for inverse_penalty."""
    total = 0.0
    for v, phase in zip(v_list, params.phases):
        c = to_channels(v)
        f_out, _ = stack_forward(c, phase.f_stack)
        pen_out, _ = stack_forward(f_out, phase.fhat_stack)
        r = pen_out - c
        total += float(np.sum(r * r))
    return total


def assert_close_grad(num, an, label, rtol=1e-4, atol=1e-8):
    err = abs(num - an)
    assert err <= atol + rtol * max(abs(num), abs(an)), (
        f"{label}: fd={num} analytic={an} err={err}"
    )


# -------------------------------------------------------------- z block


def test_z_block_neutral_is_exact_identity():
    rng = np.random.default_rng(0)
    phase = neutral_phase_params(4, mu=0.5, eta=1.0)
    x = rand_volume(rng, (6, 6, 3))
    l = rand_volume(rng, (6, 6, 3))
    z, cache = z_block(x, l, phase)
    assert np.array_equal(z, x + l)
    assert cache.z is z
    assert cache.l_prev is l
    assert np.array_equal(from_channels(cache.f_caches[0].x), x + l)


def test_z_block_generic_shapes():
    rng = np.random.default_rng(1)
    cfg = NetworkConfig(n_phases=1, nc=4, f_depth=2, fhat_depth=2)
    params = init_network_params(cfg, seed=1)
    x = rand_volume(rng, (6, 6, 3))
    l = rand_volume(rng, (6, 6, 3))
    z, cache = z_block(x, l, params.phases[0])
    assert z.shape == x.shape
    assert np.iscomplexobj(z)
    assert len(cache.f_caches) == 2 and len(cache.fhat_caches) == 2
    assert cache.attn_cache.u.shape == (4, 6, 6, 3)


def test_z_block_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    cfg = NetworkConfig(n_phases=1, nc=4, f_depth=2, fhat_depth=2)
    params = init_network_params(cfg, seed=2)
    phase = params.phases[0]
    x = rand_volume(rng, (4, 4, 2))
    l = rand_volume(rng, (4, 4, 2))
    c = rand_volume(rng, (4, 4, 2))

    def loss():
        z, _ = z_block(x, l, phase)
        return real_inner(c, z)

    _, cache = z_block(x, l, phase)
    gv, f_grads, attn_grads, fhat_grads = _z_block_backward(c, cache, phase)

    # input gradient, checked separately on real and imaginary parts
    for idx in np.ndindex(x.shape):
        for part, ref in ((x.real, gv.real), (x.imag, gv.imag)):
            num = fd_at(loss, part, idx)
            assert_close_grad(num, ref[idx], f"x[{idx}]")

    for j, layer in enumerate(phase.f_stack):
        gw, gb = f_grads[j]
        for idx in np.ndindex(layer.weights.shape):
            num = fd_at(loss, layer.weights, idx)
            assert_close_grad(num, gw[idx], f"f{j}.w[{idx}]")
        for idx in np.ndindex(layer.bias.shape):
            num = fd_at(loss, layer.bias, idx)
            assert_close_grad(num, gb[idx], f"f{j}.b[{idx}]")
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(phase.attn, name)
        an = getattr(attn_grads, name)
        for idx in np.ndindex(arr.shape):
            num = fd_at(loss, arr, idx)
            assert_close_grad(num, an[idx], f"attn.{name}[{idx}]")


# -------------------------------------------------------------- x block


def test_x_block_all_zero_mask_returns_y():
    rng = np.random.default_rng(3)
    z = rand_volume(rng, (6, 6, 2))
    l = rand_volume(rng, (6, 6, 2))
    fake = types.SimpleNamespace(normal=lambda v, out=None: np.zeros_like(v))
    x = x_block(z, l, np.zeros_like(z), fake, mu=0.3)
    assert np.max(np.abs(x - (z - l))) < 1e-12


def test_x_block_cg_agrees_with_closed_form():
    gt, enc, b, rng = small_problem(seed=4)
    z = rand_volume(rng, gt.shape)
    l = rand_volume(rng, gt.shape)
    atb = enc.adjoint(b)
    xc = x_block(z, l, atb, enc, mu=0.5)
    xg, _ = x_update_cg(z, l, atb, enc, mu=0.5)
    assert fro_norm(xg - xc) / fro_norm(xc) < 1e-6


# ------------------------------------------------------------- forward


def test_single_phase_forward_matches_manual_composition():
    gt, enc, b, _ = small_problem(seed=5)
    cfg = NetworkConfig(n_phases=1, nc=4)
    params = init_network_params(cfg, seed=5)
    phase = params.phases[0]
    x_out, cache = network_forward(b, enc, params, cfg)

    x0 = enc.adjoint(b)
    l0 = np.zeros_like(x0)
    z, _ = z_block(x0, l0, phase)
    x1 = x_block(z, l0, x0, enc, mu_of(phase))
    assert np.array_equal(x_out, x1)
    assert np.array_equal(cache.phases[0].z, z)
    assert np.array_equal(from_channels(cache.phases[0].f_caches[0].x), x0)


def test_forward_without_cache_matches():
    # streaming through two reused buffers gives the cached path's bytes
    for shape, nc, f_depth, fhat_depth, n_phases in [
        ((8, 8, 3), 4, 2, 2, 2),
        ((41, 23, 8), 16, 2, 2, 2),  # spans several conv bands
        ((9, 7, 3), 1, 1, 1, 3),  # the decode output is wider than nc
        ((10, 6, 4), 5, 3, 1, 2),
        ((6, 5, 2), 2, 1, 3, 2),
    ]:
        _, enc, b, _ = small_problem(seed=6, shape=shape)
        cfg = NetworkConfig(
            n_phases=n_phases, nc=nc, f_depth=f_depth, fhat_depth=fhat_depth
        )
        params = init_network_params(cfg, seed=6)
        x_a, cache = network_forward(b, enc, params, cfg)
        x_b, none = network_forward(b, enc, params, cfg, want_cache=False)
        assert none is None
        assert x_a.tobytes() == x_b.tobytes(), (shape, nc, f_depth, fhat_depth)
        assert len(cache.phases) == n_phases


@pytest.mark.parametrize("depth", [2, 4])
def test_inference_peak_is_a_few_activations(depth):
    # Without a cache every conv layer writes into one of two reused
    # activation-sized buffers and attention shrinks in place, so the peak
    # does not grow with depth.  Besides the two buffers it holds conv3d's
    # band working set, sized to BAND_BYTES (about 2 MB whatever the volume),
    # and a few complex volumes of 1/8 activation each.  An activation here
    # (1.9 MB) is about one band working set; at 41x23x8 it is half of one,
    # and the peak reads 4.7 activations there.
    shape, nc = (41, 23, 16), 16
    _, enc, b, _ = small_problem(seed=8, shape=shape)
    cfg = NetworkConfig(n_phases=2, nc=nc, f_depth=depth, fhat_depth=depth)
    params = init_network_params(cfg, seed=8)
    activation = nc * np.prod(shape) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        network_forward(b, enc, params, cfg, want_cache=False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * activation, peak / activation


def test_neutral_network_matches_classical_lambda_zero():
    gt, enc, b, _ = small_problem(seed=7, shape=(8, 8, 4), n_spokes=4)
    for n_phases, mu, eta in ((1, 0.5, 1.0), (3, 0.7, 0.9)):
        params = NetworkParams(
            phases=[neutral_phase_params(4, mu, eta) for _ in range(n_phases)]
        )
        cfg = NetworkConfig(n_phases=n_phases, nc=4)
        x_net, _ = network_forward(b, enc, params, cfg)
        admm_cfg = AdmmConfig(lam=0.0, mu=mu, eta=eta, n_iters=n_phases)
        x_admm = reconstruct(b, enc, admm_cfg)
        assert fro_norm(x_net - x_admm) / fro_norm(x_admm) < 1e-10


def test_learned_parameters_stay_positive():
    phase = neutral_phase_params(4, mu=0.5, eta=1.0)
    assert abs(mu_of(phase) - 0.5) < 1e-12
    assert abs(eta_of(phase) - 1.0) < 1e-12
    for raw in (-600.0, -50.0, -1.0, 0.0, 10.0, 50.0):
        phase.mu_raw = np.asarray(raw)
        phase.eta_raw = np.asarray(raw)
        assert mu_of(phase) > 0.0
        assert eta_of(phase) > 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(n_phases=0)
    with pytest.raises(ValueError):
        NetworkConfig(nc=0)
    with pytest.raises(ValueError):
        NetworkConfig(f_depth=0)


def test_init_deterministic_and_distinct_phases():
    cfg = NetworkConfig(n_phases=2, nc=4)
    a = init_network_params(cfg, seed=3)
    b = init_network_params(cfg, seed=3)
    for (na, ta), (nb, tb) in zip(named_tensors(a), named_tensors(b)):
        assert na == nb
        assert np.array_equal(ta, tb)
    w0 = a.phases[0].f_stack[0].weights
    w1 = a.phases[1].f_stack[0].weights
    assert not np.array_equal(w0, w1)


def test_named_tensors_cover_everything_and_alias_storage():
    cfg = NetworkConfig(n_phases=2, nc=4, f_depth=2, fhat_depth=3)
    params = init_network_params(cfg, seed=8)
    names = dict(named_tensors(params))
    per_phase = 2 * 2 + 3 * 2 + 4 + 2
    assert len(names) == 2 * per_phase
    assert names["phase00.f0.w"] is params.phases[0].f_stack[0].weights
    assert names["phase01.attn.b2"] is params.phases[1].attn.b2
    assert names["phase00.mu_raw"] is params.phases[0].mu_raw
    # the backward names its gradients by the same walk, in the same order
    gt, enc, b, rng = small_problem(seed=8)
    _, cache = network_forward(b, enc, params, cfg)
    grads, _ = network_backward(rand_volume(rng, gt.shape), cache, params, zeta=0.1)
    assert list(grads) == list(names)
    for name, g in grads.items():
        assert isinstance(g, np.ndarray) and g.shape == names[name].shape, name


# ------------------------------------------------------------ backward


def test_backward_rejects_cg_mode_and_bad_cache():
    gt, enc, b, _ = small_problem(seed=9)
    cfg = NetworkConfig(n_phases=1, nc=4)
    params = init_network_params(cfg, seed=9)
    _, cache = network_forward(b, enc, params, cfg)
    # the closed form is the only data-consistency step; there is no CG mode
    with pytest.raises(TypeError):
        NetworkConfig(n_phases=1, nc=4, dc_mode="cg")
    short = NetCache(atb=enc.adjoint(b), encoder=enc, phases=[])
    with pytest.raises(ValueError):
        network_backward(np.zeros_like(gt), short, params)


def test_conv_layer_call_counts(monkeypatch):
    # one conv3d_forward per layer in the forward, one conv3d_backward per
    # layer and no forward recomputation in the backward
    calls = {"conv3d_forward": 0, "conv3d_backward": 0}
    for name in calls:
        def counted(*args, _fn=getattr(dynmr.conv3d, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(dynmr.conv3d, name, counted)
    cfg = NetworkConfig(n_phases=3, nc=4, f_depth=2, fhat_depth=3)
    params = init_network_params(cfg, seed=1)
    _, enc, b, rng = small_problem(seed=3)
    n_layers = cfg.n_phases * (cfg.f_depth + cfg.fhat_depth)

    out, cache = network_forward(b, enc, params, cfg)
    assert calls == {"conv3d_forward": n_layers, "conv3d_backward": 0}
    calls["conv3d_forward"] = 0
    network_backward(rand_volume(rng, out.shape), cache, params)
    assert calls == {"conv3d_forward": 0, "conv3d_backward": n_layers}


def test_forward_cache_holds_each_activation_once():
    # a layer caches its output, which is the next layer's input: one array
    _, enc, b, _ = small_problem(seed=4)
    cfg = NetworkConfig(n_phases=2, nc=4, f_depth=3, fhat_depth=2)
    params = init_network_params(cfg, seed=4)
    _, cache = network_forward(b, enc, params, cfg)
    for pc in cache.phases:
        for caches in (pc.f_caches, pc.fhat_caches):
            for prev, nxt in zip(caches, caches[1:]):
                assert prev.out is nxt.x
            assert not hasattr(caches[0], "pre")
        assert pc.f_caches[-1].out is pc.attn_cache.u


def test_backward_zero_upstream_gives_zero_grads():
    gt, enc, b, _ = small_problem(seed=10)
    cfg = NetworkConfig(n_phases=2, nc=4)
    params = init_network_params(cfg, seed=10)
    _, cache = network_forward(b, enc, params, cfg)
    grads, penalty = network_backward(np.zeros_like(gt), cache, params)
    assert penalty == 0.0
    for name, g in grads.items():
        assert not g.any(), name


def test_last_phase_eta_gradient_is_dead():
    # l after the final phase never reaches the loss, so the exact gradient
    # of the last eta is identically zero whatever the problem
    gt, enc, b, rng = small_problem(seed=11)
    cfg = NetworkConfig(n_phases=3, nc=4)
    params = init_network_params(cfg, seed=11)
    _, cache = network_forward(b, enc, params, cfg)
    grads, _ = network_backward(rand_volume(rng, gt.shape), cache, params)
    assert grads["phase02.eta_raw"] == 0.0
    assert grads["phase00.eta_raw"] != 0.0
    assert grads["phase01.eta_raw"] != 0.0


def test_network_gradient_spot_checks():
    gt, enc, b, rng = small_problem(seed=12)
    cfg = NetworkConfig(n_phases=2, nc=4)
    params = init_network_params(cfg, seed=12)
    c = rand_volume(rng, gt.shape)

    def loss():
        x, _ = network_forward(b, enc, params, cfg, want_cache=False)
        return real_inner(c, x)

    _, cache = network_forward(b, enc, params, cfg)
    grads, _ = network_backward(c, cache, params)

    probe = np.random.default_rng(99)
    for name, arr in named_tensors(params):
        an_arr = grads[name]
        if arr.ndim == 0:
            num = fd_at(loss, arr, ())
            assert_close_grad(num, float(an_arr), name)
            continue
        flat_count = min(3, arr.size)
        choices = probe.choice(arr.size, size=flat_count, replace=False)
        for flat in choices:
            idx = np.unravel_index(flat, arr.shape)
            num = fd_at(loss, arr, idx)
            assert_close_grad(num, an_arr[idx], f"{name}[{idx}]")


def test_mu_gradient_moves_the_loss():
    # climbing down the mu gradient must reduce a data-fit loss to first order
    gt, enc, b, _ = small_problem(seed=13)
    cfg = NetworkConfig(n_phases=1, nc=4)
    params = init_network_params(cfg, seed=13)

    def loss():
        x, _ = network_forward(b, enc, params, cfg, want_cache=False)
        d = x - gt
        return 0.5 * fro_norm(d) ** 2

    x, cache = network_forward(b, enc, params, cfg)
    grads, _ = network_backward(x - gt, cache, params)
    g = float(grads["phase00.mu_raw"])
    assert g != 0.0
    before = loss()
    params.phases[0].mu_raw -= 1e-3 * np.sign(g)
    after = loss()
    assert after < before


# ------------------------------------------------------------- penalty


def penalty_sweep(cache, params, zeta=1.0):
    """network_backward with no loss gradient: only the penalty term is left."""
    return network_backward(np.zeros_like(cache.atb), cache, params, zeta)


def block_inputs(cache):
    return [from_channels(pc.f_caches[0].x) for pc in cache.phases]


def test_penalty_zero_for_neutral_stacks():
    gt, enc, b, _ = small_problem(seed=14)
    params = NetworkParams(phases=[neutral_phase_params(4, 0.5, 1.0)])
    cfg = NetworkConfig(n_phases=1, nc=4)
    _, cache = network_forward(b, enc, params, cfg)
    grads, total = penalty_sweep(cache, params)
    assert total == 0.0
    for g in grads.values():
        assert not g.any()


def test_penalty_value_matches_direct_recomputation():
    gt, enc, b, _ = small_problem(seed=15)
    cfg = NetworkConfig(n_phases=3, nc=4)
    params = init_network_params(cfg, seed=15)
    _, cache = network_forward(b, enc, params, cfg)
    _, total = penalty_sweep(cache, params)
    assert total > 0.0
    want = inverse_penalty_from_inputs(block_inputs(cache), params)
    assert abs(total - want) < 1e-10 * max(1.0, want)


def test_penalty_gradients_match_finite_differences():
    # the penalty gradient is stack-local by construction, so the reference
    # holds each block input fixed while a parameter moves
    gt, enc, b, _ = small_problem(seed=16)
    cfg = NetworkConfig(n_phases=2, nc=4)
    params = init_network_params(cfg, seed=16)
    _, cache = network_forward(b, enc, params, cfg)
    grads, _ = penalty_sweep(cache, params)
    v_list = block_inputs(cache)

    def loss():
        return inverse_penalty_from_inputs(v_list, params)

    probe = np.random.default_rng(7)
    for name, arr in named_tensors(params):
        if ".f" not in name:
            continue
        for flat in probe.choice(arr.size, size=min(4, arr.size), replace=False):
            idx = np.unravel_index(flat, arr.shape)
            num = fd_at(loss, arr, idx)
            assert_close_grad(num, grads[name][idx], f"penalty {name}[{idx}]")


def test_penalty_grads_only_cover_conv_stacks():
    gt, enc, b, _ = small_problem(seed=17)
    cfg = NetworkConfig(n_phases=1, nc=4)
    params = init_network_params(cfg, seed=17)
    _, cache = network_forward(b, enc, params, cfg)
    grads, _ = penalty_sweep(cache, params)
    assert any(g.any() for name, g in grads.items() if ".f" in name)
    for name, g in grads.items():
        assert ".f" in name or not g.any(), name


@pytest.mark.parametrize("zeta", [0.01, 0.5])
@pytest.mark.parametrize("depths", [(2, 2), (1, 3), (3, 1)])
def test_penalty_in_the_sweep_is_bit_identical_to_a_second_pass(zeta, depths):
    # the sweep adds zeta * the two-pass reference to the loss gradients
    # name by name, and sums the penalty in phase order
    gt, enc, b, rng = small_problem(seed=18)
    cfg = NetworkConfig(n_phases=3, nc=4, f_depth=depths[0], fhat_depth=depths[1])
    params = init_network_params(cfg, seed=18)
    _, cache = network_forward(b, enc, params, cfg)
    c = rand_volume(rng, gt.shape)
    plain, zero = network_backward(c, cache, params)
    grads, total = network_backward(c, cache, params, zeta)
    want_total, pen_grads = inverse_penalty_two_pass(cache, params)
    assert zero == 0.0
    assert total == want_total
    for name, g in plain.items():
        want = g + zeta * pen_grads[name] if name in pen_grads else g
        assert grads[name].tobytes() == want.tobytes(), name


def test_penalty_is_summed_in_phase_order(monkeypatch):
    # the sweep runs backwards; 1 + 1e16 - 1e16 is 0 left to right, 1 reversed
    gt, enc, b, _ = small_problem(seed=20)
    cfg = NetworkConfig(n_phases=3, nc=4)
    params = init_network_params(cfg, seed=20)
    _, cache = network_forward(b, enc, params, cfg)
    values = dict(zip(map(id, cache.phases), (1.0, 1e16, -1e16)))
    penalty = dynmr.network.inverse_penalty
    monkeypatch.setattr(dynmr.network, "inverse_penalty",
                        lambda pc, phase: (values[id(pc)], *penalty(pc, phase)[1:]))
    _, total = network_backward(np.zeros_like(gt), cache, params, 0.1)
    assert total == 0.0


def test_zero_zeta_never_runs_the_penalty(monkeypatch):
    gt, enc, b, rng = small_problem(seed=19)
    cfg = NetworkConfig(n_phases=2, nc=4)
    params = init_network_params(cfg, seed=19)
    _, cache = network_forward(b, enc, params, cfg)

    def fail(*args):
        raise AssertionError("inverse_penalty called at zeta=0")

    monkeypatch.setattr(dynmr.network, "inverse_penalty", fail)
    _, total = network_backward(rand_volume(rng, gt.shape), cache, params, 0.0)
    assert total == 0.0


def test_penalty_grads_are_bit_identical_without_the_input_gradient(monkeypatch):
    # reference: backprop the whole encode stack and drop its input gradient
    gt, enc, b, rng = small_problem(seed=18)
    cfg = NetworkConfig(n_phases=2, nc=4, f_depth=2, fhat_depth=2)
    params = init_network_params(cfg, seed=18)
    _, cache = network_forward(b, enc, params, cfg)
    for pc, phase in zip(cache.phases, params.phases):
        pen_out, pen_caches = stack_forward(pc.attn_cache.u, phase.fhat_stack)
        r = pen_out - pc.f_caches[0].x
        g, want_fhat = stack_backward(2.0 * r, pen_caches, phase.fhat_stack)
        _, want_f = stack_backward(g, pc.f_caches, phase.f_stack)
        _, f_grads, fhat_grads = inverse_penalty(pc, phase)
        for got, want in ((f_grads, want_f), (fhat_grads, want_fhat)):
            assert len(got) == len(want)
            for (gw, gb), (ww, wb) in zip(got, want):
                assert gw.tobytes() == ww.tobytes()
                assert gb.tobytes() == wb.tobytes()
    calls = []
    correlate = dynmr.conv3d._correlate
    monkeypatch.setattr(dynmr.conv3d, "_correlate",
                        lambda *args: calls.append(1) or correlate(*args))
    c = rand_volume(rng, gt.shape)
    network_backward(c, cache, params)
    plain = len(calls)
    calls.clear()
    network_backward(c, cache, params, 0.1)
    # per phase: the decode stack forward and backward (2 + 2), the encode
    # stack's input gradients without its first layer's (1)
    n_penalty = cfg.n_phases * (2 * cfg.fhat_depth + cfg.f_depth - 1)
    assert len(calls) == plain + n_penalty
