import tracemalloc
import types
from dataclasses import fields

import numpy as np
import pytest

import dynmr.admm
import dynmr.conv3d
import dynmr.network
from dynmr.admm import AdmmConfig, AdmmState, l_update, reconstruct, x_update_closed_form
from dynmr.attention import attn_backward
from dynmr.conv3d import stack_backward, stack_forward
from dynmr.encoding import Encoder, make_pseudo_radial_mask, make_vds_mask
from dynmr.errors import NumericalError
from dynmr.gradcheck import fd_at
from dynmr.network import (
    BlockCaches,
    NetCache,
    NetworkConfig,
    NetworkParams,
    _raw,
    block_caches,
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
from dynmr.training import mse_loss
from dynmr.volume import from_channels, fro_norm, real_inner, to_channels
from oracles import (
    inverse_penalty_two_pass,
    neutral_phase_params,
    stored_forward,
    x_update_cg,
)


def rand_volume(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def small_problem(seed=0, shape=(8, 8, 3), n_spokes=4):
    rng = np.random.default_rng(seed)
    gt = generate_phantom(PhantomSpec(shape=shape, seed=seed))
    mask = make_pseudo_radial_mask(shape, n_spokes, seed=seed)
    enc = Encoder(mask)
    return gt, enc, enc.forward(gt), rng


def penalty_residuals(v_list, params):
    """Yield each phase's residual decode(encode(v)) - v on given block inputs."""
    for v, phase in zip(v_list, params.phases):
        c = to_channels(v)
        f_out, _ = stack_forward(c, phase.f_stack)
        pen_out, _ = stack_forward(f_out, phase.fhat_stack)
        yield pen_out - c


def inverse_penalty_from_inputs(v_list, params):
    """Penalty value on explicitly given block inputs; the oracle for inverse_penalty."""
    total = 0.0
    for r in penalty_residuals(v_list, params):
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
    z, bc = z_block(x, l, phase)
    assert np.array_equal(z, x + l)
    assert np.array_equal(from_channels(bc.f_ins[0]), x + l)
    assert np.array_equal(from_channels(bc.u[:2]), x + l)  # the encode half


def test_z_block_generic_shapes():
    rng = np.random.default_rng(1)
    cfg = NetworkConfig(n_phases=1, nc=4, f_depth=2, fhat_depth=2)
    params = init_network_params(cfg, seed=1)
    x = rand_volume(rng, (6, 6, 3))
    l = rand_volume(rng, (6, 6, 3))
    z, bc = z_block(x, l, params.phases[0])
    assert z.shape == x.shape
    assert np.iscomplexobj(z)
    assert [a.shape for a in bc.f_ins] == [(2, 6, 6, 3), (4, 6, 6, 3)]
    assert bc.u.shape == (4, 6, 6, 3)
    assert [a.shape for a in bc.fhat_ins] == [(4, 6, 6, 3), (4, 6, 6, 3)]
    # one buffer, NaN where no layer has written yet
    streamed, none = z_block(x, l, params.phases[0], np.full((4, 6, 6, 3), np.nan))
    assert none is None
    assert streamed.tobytes() == z.tobytes()


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

    # the block's share of network_backward at zeta 0: decode, attention,
    # encode, on the layer inputs z_block records
    _, cache = z_block(x, l, phase)
    g, _ = stack_backward(to_channels(c), cache.fhat_ins, phase.fhat_stack)
    g, attn_grads = attn_backward(g, cache.u, phase.attn)
    g, f_grads = stack_backward(g, cache.f_ins, phase.f_stack)
    gv = from_channels(g)

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
    enc = Encoder(np.ones((6, 6, 2), dtype=np.uint8))
    enc._sampled = np.empty(0, dtype=np.intp)  # nothing sampled
    x = x_block(z, l, np.empty(0, dtype=complex), enc, mu=0.3)
    assert np.max(np.abs(x - (z - l))) < 1e-12


def test_x_block_cg_agrees_with_closed_form():
    gt, enc, b, rng = small_problem(seed=4)
    z = rand_volume(rng, gt.shape)
    l = rand_volume(rng, gt.shape)
    atb = enc.adjoint(b)
    xc = x_block(z, l, enc.samples(atb), enc, mu=0.5)
    xg, _ = x_update_cg(z, l, atb, enc, mu=0.5)
    assert fro_norm(xg - xc) / fro_norm(xc) < 1e-6


# ------------------------------------------------------------- forward


def test_forward_matches_manual_composition():
    # The forward writes x and l into fixed arrays, so the cache must hold
    # copies: an x or l it kept by reference would alias the next phase's.
    gt, enc, b, _ = small_problem(seed=5)
    cfg = NetworkConfig(n_phases=3, nc=4)
    params = init_network_params(cfg, seed=5)
    x_out, cache = network_forward(b, enc, params, cfg)

    atb = enc.adjoint(b)
    x, l = atb, np.zeros_like(atb)
    z_last, bc_last = cache.last
    held = [x_out, z_last, *bc_last.f_ins, bc_last.u, *bc_last.fhat_ins, *cache.states[-1]]
    for phase, (x_in, l_in) in zip(params.phases, cache.states[:-1], strict=True):
        assert np.array_equal(x_in, x)
        assert np.array_equal(l_in, l)
        held += [x_in, l_in]
        z, block = z_block(x, l, phase)
        x = x_update_closed_form(z, l, enc.samples(atb), enc, mu_of(phase))
        l = l_update(AdmmState(x=x, z=z, l=l), eta_of(phase))
    assert np.array_equal(cache.states[-1][0], x)
    # the last phase's z and layer inputs, from the forward's record mode
    assert np.array_equal(z_last, z)
    for got, want in [(bc_last.u, block.u), *zip(bc_last.f_ins, block.f_ins, strict=True),
                      *zip(bc_last.fhat_ins, block.fhat_ins, strict=True)]:
        assert np.array_equal(got, want)
    assert np.array_equal(x_out, x)
    for i, a in enumerate(held):
        for other in held[i + 1:]:
            assert not np.shares_memory(a, other)


def test_collapsed_mu_names_the_phase():
    # softplus(-800) underflows to exactly 0, which the DC step cannot take
    _, enc, b, _ = small_problem(seed=9)
    cfg = NetworkConfig(n_phases=3, nc=4)
    params = init_network_params(cfg, seed=9)
    params.phases[1].mu_raw = np.asarray(-800.0)
    assert mu_of(params.phases[1]) == 0.0
    for want_cache in (True, False):
        with pytest.raises(NumericalError, match="not > 0 at phase 1$"):
            network_forward(b, enc, params, cfg, want_cache)


def test_non_finite_x_names_the_phase(monkeypatch):
    _, enc, b, _ = small_problem(seed=9)
    cfg = NetworkConfig(n_phases=3, nc=4)
    params = init_network_params(cfg, seed=9)
    calls = []
    exact = dynmr.admm.x_update_closed_form

    def poisoned_second_step(*args):
        calls.append(1)
        x = exact(*args)
        if len(calls) == 2:
            x[0, 0, 0] = np.nan
        return x

    monkeypatch.setattr(dynmr.admm, "x_update_closed_form", poisoned_second_step)
    with pytest.raises(NumericalError, match="non-finite iterate at phase 1$"):
        network_forward(b, enc, params, cfg)
    assert len(calls) == 2


def test_the_solver_and_the_network_run_one_loop(monkeypatch):
    # admm.unroll's call of the module's xl_step is the only x/l step of
    # either: a counting wrapper sees every iteration and every phase
    calls = []
    exact = dynmr.admm.xl_step

    def counted(state, d, encoder, mu, eta, where):
        calls.append(where)
        return exact(state, d, encoder, mu, eta, where)

    monkeypatch.setattr(dynmr.admm, "xl_step", counted)
    _, enc, b, _ = small_problem(seed=4)
    outside = np.geterr()
    for state in dynmr.admm.iterate(b, enc, AdmmConfig(n_iters=4)):
        assert np.geterr() == outside  # unroll's errstate stays inside its steps
    assert calls == ["iteration 1", "iteration 2", "iteration 3", "iteration 4"]
    cfg = NetworkConfig(n_phases=3, nc=4)
    params = init_network_params(cfg, seed=4)
    for want_cache in (True, False):
        calls.clear()
        network_forward(b, enc, params, cfg, want_cache)
        assert calls == ["phase 0", "phase 1", "phase 2"]


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
        assert len(cache.states) == n_phases + 1


@pytest.mark.parametrize("want_cache", [False, True])
def test_streamed_forward_reads_no_unwritten_voxel(monkeypatch, want_cache):
    # The streaming buffer starts NaN, so a conv band that read a row its
    # layer had already overwritten, or a voxel no layer had written, would
    # change the output bytes from those of a forward that records every
    # phase.  At 41x23x8 and nc 16 every layer spans several bands; the
    # 2 -> 1 -> 2 stacks of nc 1 are narrower than the block input that
    # attention works in.
    real, record = np.empty, dynmr.network.z_block

    def nan_empty(*args, **kwargs):
        a = real(*args, **kwargs)
        a.fill(np.nan)
        return a

    nan_np = types.SimpleNamespace(**{**vars(np), "empty": nan_empty})

    for shape, nc, depths in [((41, 23, 8), 16, (2, 3)), ((9, 7, 3), 1, (1, 1))]:
        _, enc, b, _ = small_problem(seed=23, shape=shape)
        cfg = NetworkConfig(n_phases=3, nc=nc, f_depth=depths[0], fhat_depth=depths[1])
        params = init_network_params(cfg, seed=23)
        with monkeypatch.context() as m:
            m.setattr(dynmr.network, "z_block", lambda x, l, p, buf: record(x, l, p))
            want, _ = network_forward(b, enc, params, cfg, want_cache)
        with monkeypatch.context() as m:
            m.setattr(dynmr.network, "np", nan_np)
            got, _ = network_forward(b, enc, params, cfg, want_cache)
        assert np.all(np.isfinite(got))
        assert got.tobytes() == want.tobytes(), (shape, nc)


@pytest.mark.parametrize("depth", [2, 4])
def test_inference_peak_is_a_few_activations(depth):
    # Without a cache every conv layer writes over its own input in one
    # reused activation-sized buffer, and attention shrinks in place with |u|
    # formed a chunk at a time in the block's 2-channel input, so the peak
    # does not grow with depth.  Besides the buffer it holds one pass's band
    # working set, a tap buffer sized to BAND_BYTES (here 2-row bands of
    # 0.6 MB), and a few complex volumes of 1/8 activation each.  An
    # activation here is 1.8 MB, and the peak reads 1.90 activations; a second
    # buffer would add one.
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
    assert peak <= 2.5 * activation, peak / activation


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
    short = NetCache(enc, cache.states[:1])  # the start state, and no phase run
    with pytest.raises(ValueError):
        network_backward(np.zeros_like(gt), short, params)


@pytest.mark.parametrize("want_cache, zeta", [(True, 0.0), (True, 0.1), (False, 0.0)],
                         ids=["0.0", "0.1", "streamed"])
def test_conv_layer_call_counts(monkeypatch, want_cache, zeta):
    # one conv3d_forward per layer in the forward, cached or streamed; in the
    # backward one conv3d_backward per layer, and every phase but the last,
    # which the forward recorded, re-runs its whole denoising block; at
    # zeta > 0 the penalty adds its decode forward and backward per phase
    calls = {"conv3d_forward": 0, "conv3d_backward": 0}
    for name in calls:
        def counted(*args, _fn=getattr(dynmr.conv3d, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(dynmr.conv3d, name, counted)
    cfg = NetworkConfig(n_phases=3, nc=4, f_depth=2, fhat_depth=3)
    params = init_network_params(cfg, seed=1)
    _, enc, b, rng = small_problem(seed=3)
    n, f, fhat = cfg.n_phases, cfg.f_depth, cfg.fhat_depth

    out, cache = network_forward(b, enc, params, cfg, want_cache)
    assert calls == {"conv3d_forward": n * (f + fhat), "conv3d_backward": 0}
    if not want_cache:
        return
    calls["conv3d_forward"] = 0
    network_backward(rand_volume(rng, out.shape), cache, params, zeta)
    if zeta == 0.0:
        want = {"conv3d_forward": (n - 1) * (f + fhat), "conv3d_backward": n * (f + fhat)}
    else:
        want = {"conv3d_forward": (n - 1) * (f + fhat) + n * fhat,
                "conv3d_backward": n * (f + 2 * fhat)}
    assert calls == want


def test_forward_cache_holds_each_activation_once():
    # the cache is the loop's trajectory: the (x, l) entering each phase, from
    # (A^H b, 0), then the output x with no l, 2N + 1 complex volumes with the
    # oracle loop's bytes; the last phase's z and layer inputs are kept once,
    # apart from every other array, and the first block_caches of that phase
    # hands over those same arrays
    _, enc, b, _ = small_problem(seed=4)
    atb = enc.adjoint(b)
    assert [f.name for f in fields(BlockCaches)] == ["f_ins", "u", "fhat_ins"]
    assert [f.name for f in fields(NetCache)] == ["encoder", "states", "last"]
    for n_phases in (1, 3):
        cfg = NetworkConfig(n_phases=n_phases, nc=4, f_depth=3, fhat_depth=2)
        params = init_network_params(cfg, seed=4)
        x_out, cache = network_forward(b, enc, params, cfg)
        assert len(cache.states) == n_phases + 1
        assert [len(s) for s in cache.states] == [2] * n_phases + [1]
        assert cache.states[0][0].tobytes() == atb.tobytes()
        assert cache.states[0][1].tobytes() == np.zeros_like(atb).tobytes()
        _, oracle = stored_forward(b, enc, params)
        for n, (got, want) in enumerate(zip(cache.states[1:], oracle, strict=True)):
            assert got[0].tobytes() == want[0].tobytes(), (n_phases, n)
            if n < n_phases - 1:
                assert got[1].tobytes() == want[1].tobytes(), (n_phases, n)
        assert cache.states[-1][0].tobytes() == x_out.tobytes()
        volumes = [a for state in cache.states for a in state]
        assert len(volumes) == 2 * n_phases + 1
        assert all(a.dtype == np.complex128 and a.shape == atb.shape for a in volumes)
        z, bc = cache.last
        assert len(bc.f_ins) == 3 and len(bc.fhat_ins) == 2
        held = [x_out, z, *bc.f_ins, bc.u, *bc.fhat_ins, *volumes]
        for i, a in enumerate(held):
            for other in held[i + 1:]:
                assert not np.shares_memory(a, other)
        got = block_caches(cache, n_phases - 1, params.phases[-1])
        assert got[0] is z and got[1] is bc
        assert cache.last is None


def assert_same_bytes(got, want, label):
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), label


def assert_same_sweep(got, want, label):
    assert got[1] == want[1], label
    assert list(got[0]) == list(want[0]), label
    for name, g in got[0].items():
        assert g.tobytes() == want[0][name].tobytes(), (label, name)


def oracle_sweep(monkeypatch, stored, c, cache, params, zeta):
    """network_backward on the stored-cache forward's z and layer inputs."""
    with monkeypatch.context() as m:
        m.setattr(dynmr.network, "block_caches", lambda _c, n, _p: stored[n])
        return network_backward(c, cache, params, zeta)


@pytest.mark.parametrize("depths", [(2, 2), (1, 3), (3, 1)])
def test_rebuilt_caches_equal_the_stored_forward(monkeypatch, depths):
    # z, u and every layer input block_caches hands over, the kept last
    # phase's in the first pass and rebuilt ones in the second, have the
    # bytes the stored-cache forward kept, and the backward on the stored
    # caches gives the same bytes
    gt, enc, b, rng = small_problem(seed=22, shape=(9, 7, 3))
    cfg = NetworkConfig(n_phases=3, nc=4, f_depth=depths[0], fhat_depth=depths[1])
    params = init_network_params(cfg, seed=22)
    _, cache = network_forward(b, enc, params, cfg)
    stored, _ = stored_forward(b, enc, params)
    for sweep in range(2):
        for n, (phase, (want_z, want)) in enumerate(zip(params.phases, stored, strict=True)):
            z, got = block_caches(cache, n, phase)
            assert_same_bytes(z, want_z, (sweep, n, "z"))
            assert_same_bytes(got.u, want.u, (sweep, n, "u"))
            for kind in ("f_ins", "fhat_ins"):
                pairs = zip(getattr(got, kind), getattr(want, kind), strict=True)
                for j, (a, w) in enumerate(pairs):
                    assert_same_bytes(a, w, (sweep, n, kind, j))
    c = rand_volume(rng, gt.shape)
    for zeta in (0.0, 0.1):
        _, cache = network_forward(b, enc, params, cfg)
        rebuilt = network_backward(c, cache, params, zeta)
        assert_same_sweep(rebuilt, oracle_sweep(monkeypatch, stored, c, cache, params, zeta),
                          zeta)


def count_z_blocks(monkeypatch):
    """Record one entry per z_block the backward's block_caches runs."""
    calls = []
    exact = dynmr.network.z_block

    def counted(*args):
        calls.append(1)
        return exact(*args)

    monkeypatch.setattr(dynmr.network, "z_block", counted)
    return calls


@pytest.mark.parametrize("zeta", [0.0, 0.1])
def test_one_phase_sweep_rebuilds_nothing(monkeypatch, zeta):
    # with one phase the kept last phase is the whole sweep
    gt, enc, b, rng = small_problem(seed=24, shape=(9, 7, 3))
    cfg = NetworkConfig(n_phases=1, nc=4)
    params = init_network_params(cfg, seed=24)
    stored, _ = stored_forward(b, enc, params)
    c = rand_volume(rng, gt.shape)
    _, cache = network_forward(b, enc, params, cfg)
    calls = count_z_blocks(monkeypatch)
    kept = network_backward(c, cache, params, zeta)
    assert calls == []
    assert_same_sweep(kept, oracle_sweep(monkeypatch, stored, c, cache, params, zeta), zeta)


@pytest.mark.parametrize("zeta", [0.0, 0.1])
def test_two_sweeps_over_one_cache_give_the_same_bytes(monkeypatch, zeta):
    # the first sweep takes the kept last phase out of the cache, so the
    # second rebuilds every phase
    gt, enc, b, rng = small_problem(seed=25, shape=(9, 7, 3))
    cfg = NetworkConfig(n_phases=3, nc=4, f_depth=2, fhat_depth=3)
    params = init_network_params(cfg, seed=25)
    c = rand_volume(rng, gt.shape)
    _, cache = network_forward(b, enc, params, cfg)
    calls = count_z_blocks(monkeypatch)
    first = network_backward(c, cache, params, zeta)
    assert len(calls) == cfg.n_phases - 1
    assert cache.last is None
    second = network_backward(c, cache, params, zeta)
    assert len(calls) == 2 * cfg.n_phases - 1
    assert_same_sweep(second, first, zeta)


@pytest.mark.parametrize("depths", [(2, 2), (1, 3), (3, 1)])
def test_training_cache_grows_by_l_and_x_per_phase(depths):
    # each phase adds a state of two complex volumes, x and l, of
    # 1/8 activation each at nc = 16: 0.25 activations per phase, checked
    # against a bound of 0.3 for the objects around them; whatever the
    # depths, the layer inputs of one phase, the last, are all the cache
    # holds beyond that
    shape, nc = (24, 24, 8), 16
    _, enc, b, _ = small_problem(seed=23, shape=shape)
    activation = nc * np.prod(shape) * 8
    sizes = []
    for n_phases in (2, 8):
        cfg = NetworkConfig(n_phases=n_phases, nc=nc, f_depth=depths[0],
                            fhat_depth=depths[1])
        params = init_network_params(cfg, seed=23)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            held = network_forward(b, enc, params, cfg)
            sizes.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
        assert len(held[1].states) == n_phases + 1
    per_phase = (sizes[1] - sizes[0]) / 6 / activation
    assert per_phase <= 0.3, per_phase


def test_toy_training_step_peak_is_bounded():
    # One toy step (3 phases, nc 8, 32x32x8, zeta 0.01): forward, loss
    # gradient, backward.  It peaks in a phase's decode-stack backward, with
    # that phase's layer inputs alive, at 10.9 activations of 0.5 MB (12.5
    # while the weight gradient ran 1.5 MB bands).  Decode inputs held through
    # the penalty and the encode-stack backward read 14.5; with out-of-place
    # ReLU masks and 1.5 MB correlation bands too, 15.9.
    shape, nc = (32, 32, 8), 8
    gt, enc, b, _ = small_problem(seed=26, shape=shape, n_spokes=8)
    cfg = NetworkConfig(n_phases=3, nc=nc)
    params = init_network_params(cfg, seed=26)
    activation = nc * np.prod(shape) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x, cache = network_forward(b, enc, params, cfg)
        network_backward(2.0 * (x - gt) / (2 * x.size), cache, params, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 12 * activation, peak / activation


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


@pytest.mark.parametrize("pattern", ["radial", "vds"])
@pytest.mark.parametrize("mu", [0.02, 0.5, 20.0])
def test_mu_eta_gradients_away_from_the_init(pattern, mu):
    # the backward reads dx/dmu off x - y, which is small at large mu and
    # large at small mu; a Cartesian mask samples whole lines, a radial one
    # scattered points, on odd sides
    shape = (9, 7, 3)
    gt = generate_phantom(PhantomSpec(shape=shape, seed=14))
    if pattern == "radial":
        mask = make_pseudo_radial_mask(shape, 4, seed=14)
    else:
        mask = make_vds_mask(shape, 2.0, center_lines=2, seed=14)
    enc = Encoder(mask)
    b = enc.forward(gt)
    cfg = NetworkConfig(n_phases=2, nc=4)
    params = init_network_params(cfg, seed=14)
    for phase in params.phases:
        phase.mu_raw = _raw(mu)

    def loss():
        return mse_loss(network_forward(b, enc, params, cfg, want_cache=False)[0], gt)[0]

    x, cache = network_forward(b, enc, params, cfg)
    grads, _ = network_backward(mse_loss(x, gt)[1], cache, params)
    for n, phase in enumerate(params.phases):
        for name in ("mu_raw", "eta_raw"):
            label = f"phase{n:02d}.{name}"
            num = fd_at(loss, getattr(phase, name), ())
            assert_close_grad(num, float(grads[label]), f"{label} at mu {mu}")


def test_real_grad_x_is_taken_as_complex():
    gt, enc, b, rng = small_problem(seed=15)
    cfg = NetworkConfig(n_phases=2, nc=4)
    params = init_network_params(cfg, seed=15)
    _, cache = network_forward(b, enc, params, cfg)
    g = rng.standard_normal(gt.shape)
    real, real_pen = network_backward(g, cache, params, 0.1)
    cplx, cplx_pen = network_backward(g.astype(complex), cache, params, 0.1)
    assert real_pen == cplx_pen
    for name, arr in cplx.items():
        assert real[name].tobytes() == arr.tobytes(), name


# ------------------------------------------------------------- penalty


def penalty_sweep(cache, params, zeta=1.0):
    """network_backward with no loss gradient: only the penalty term is left."""
    return network_backward(np.zeros_like(cache.states[0][0]), cache, params, zeta)


def block_inputs(cache, params):
    return [from_channels(block_caches(cache, n, phase)[1].f_ins[0])
            for n, phase in enumerate(params.phases)]


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
    want = inverse_penalty_from_inputs(block_inputs(cache, params), params)
    assert abs(total - want) < 1e-10 * max(1.0, want)


@pytest.mark.parametrize("pattern", ["radial", "vds"])
@pytest.mark.parametrize("zeta", [0.01, 0.5])
@pytest.mark.parametrize("depths", [(2, 2), (1, 3), (3, 1)])
def test_penalty_gradients_match_finite_differences(depths, zeta, pattern):
    # the objective training reports, mse + zeta * sum_p penalty_p, with each
    # block input v_p taken from a fresh forward, so a phase's penalty moves
    # every tensor of the phases before it.  A random ground truth keeps the
    # block inputs off zero, where zero biases would put the ReLUs on their
    # kinks.  The central difference is taken of every addend and then summed:
    # the penalty's total is about 100x the mse, and the difference of two
    # such totals carries a rounding error near the 1e-8 atol.
    shape = (8, 8, 3)
    rng = np.random.default_rng(16)
    gt = rand_volume(rng, shape)
    if pattern == "radial":
        mask = make_pseudo_radial_mask(shape, 4, seed=16)
    else:
        mask = make_vds_mask(shape, 3.0, center_lines=2, seed=16)
    enc = Encoder(mask)
    b = enc.forward(gt)
    cfg = NetworkConfig(n_phases=3, nc=4, f_depth=depths[0], fhat_depth=depths[1])
    params = init_network_params(cfg, seed=16)
    x_hat, cache = network_forward(b, enc, params, cfg)
    grads, _ = network_backward(mse_loss(x_hat, gt)[1], cache, params, zeta)

    def addends():
        x_hat, fresh = network_forward(b, enc, params, cfg)
        d = x_hat - gt
        v_list = [x + l for x, l in fresh.states[:-1]]
        pens = [zeta * (r * r).ravel() for r in penalty_residuals(v_list, params)]
        return np.concatenate([(d.real**2 + d.imag**2).ravel() / (2 * d.size), *pens])

    probe = np.random.default_rng(7)
    for name, arr in named_tensors(params):
        for flat in probe.choice(arr.size, size=min(2, arr.size), replace=False):
            idx = np.unravel_index(flat, arr.shape)
            num = float(np.sum(fd_at(addends, arr, idx)))
            assert_close_grad(num, grads[name][idx], f"{name}[{idx}]")


def test_penalty_grads_only_cover_conv_stacks():
    # the last phase's penalty reads only its conv stacks; in two phases,
    # phase 1's block input is phase 0's x + l, so phase 0's attention and
    # mu/eta get a penalty gradient too
    gt, enc, b, _ = small_problem(seed=17)
    for n_phases in (1, 2):
        cfg = NetworkConfig(n_phases=n_phases, nc=4)
        params = init_network_params(cfg, seed=17)
        _, cache = network_forward(b, enc, params, cfg)
        grads, _ = penalty_sweep(cache, params)
        last = f"phase{n_phases - 1:02d}."
        assert any(g.any() for name, g in grads.items() if ".f" in name)
        for name, g in grads.items():
            if name.startswith(last):
                assert ".f" in name or not g.any(), name
        if n_phases == 2:
            assert any(grads[f"phase00.attn.{k}"].any() for k in ("w1", "b1", "w2", "b2"))
            assert grads["phase00.mu_raw"] != 0.0 and grads["phase00.eta_raw"] != 0.0


def record_penalty_sweep(monkeypatch):
    """Record g_u (attention's input gradient) and a copy of g_pen_u per phase.

    Both lists fill in sweep order, last phase first.  network_backward sums
    zeta * g_pen_u into the penalty's own buffer, so the record copies it on
    the way out of inverse_penalty.
    """
    g_u, g_pen_u = [], []
    attn = dynmr.network.attn_backward
    penalty = dynmr.network.inverse_penalty

    def attn_rec(g, u, p):
        g_in, grads = attn(g, u, p)
        g_u.append(g_in)
        return g_in, grads

    def penalty_rec(u, v, phase):
        value, g_pen, fhat_grads, r2 = penalty(u, v, phase)
        g_pen_u.append(g_pen.copy())
        return value, g_pen, fhat_grads, r2

    monkeypatch.setattr(dynmr.network, "attn_backward", attn_rec)
    monkeypatch.setattr(dynmr.network, "inverse_penalty", penalty_rec)
    return g_u, g_pen_u


@pytest.mark.parametrize("zeta", [0.01, 0.5])
@pytest.mark.parametrize("depths", [(2, 2), (1, 3), (3, 1)])
def test_penalty_in_the_sweep_is_bit_identical_to_a_second_pass(monkeypatch, zeta, depths):
    # the last phase's penalty moves no block input, so the sweep adds zeta *
    # the two-pass reference to that phase's loss gradients of the decode
    # stack name by name; a one-phase net is its last phase.  Every phase's
    # encode stack gradients are one backward of g_u + zeta * g_pen_u, and the
    # penalty is summed in phase order
    gt, enc, b, rng = small_problem(seed=18)
    c = rand_volume(rng, gt.shape)
    g_u, g_pen_u = record_penalty_sweep(monkeypatch)
    for n_phases in (1, 3):
        cfg = NetworkConfig(n_phases=n_phases, nc=4, f_depth=depths[0], fhat_depth=depths[1])
        params = init_network_params(cfg, seed=18)
        _, cache = network_forward(b, enc, params, cfg)
        plain, zero = network_backward(c, cache, params)
        g_u.clear()
        g_pen_u.clear()
        grads, total = network_backward(c, cache, params, zeta)
        stored, _ = stored_forward(b, enc, params)
        want_total, pen_grads = inverse_penalty_two_pass(stored, params)
        assert zero == 0.0
        assert total == want_total
        last = f"phase{n_phases - 1:02d}."
        for name, g in plain.items():
            if name.startswith(last) and (".f" not in name or ".fhat" in name):
                want = g + zeta * pen_grads[name] if name in pen_grads else g
                assert grads[name].tobytes() == want.tobytes(), name
        for n, ((_, bc), phase) in enumerate(zip(stored, params.phases)):
            g_sum = g_u[-1 - n] + zeta * g_pen_u[-1 - n]
            _, want_f = stack_backward(g_sum, bc.f_ins, phase.f_stack)
            for j, (ww, wb) in enumerate(want_f):
                for key, want in ((f"phase{n:02d}.f{j}.w", ww), (f"phase{n:02d}.f{j}.b", wb)):
                    assert grads[key].tobytes() == want.tobytes(), key
        for key, g in plain.items():
            if key.startswith(last + "f") and not key.startswith(last + "fhat"):
                # the two passes' sum, up to the rounding of one addition order
                two_pass = g + zeta * pen_grads[key]
                err = np.max(np.abs(grads[key] - two_pass))
                assert err <= 1e-13 * np.max(np.abs(two_pass)), key


def test_penalty_is_summed_in_phase_order(monkeypatch):
    # the sweep runs backwards; 1 + 1e16 - 1e16 is 0 left to right, 1 reversed
    gt, enc, b, _ = small_problem(seed=20)
    cfg = NetworkConfig(n_phases=3, nc=4)
    params = init_network_params(cfg, seed=20)
    _, cache = network_forward(b, enc, params, cfg)
    values = iter((-1e16, 1e16, 1.0))  # phases 2, 1, 0 in sweep order
    penalty = dynmr.network.inverse_penalty
    monkeypatch.setattr(dynmr.network, "inverse_penalty",
                        lambda *args: (next(values), *penalty(*args)[1:]))
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


def test_penalty_grads_are_bit_identical_without_the_input_gradient():
    # reference: backprop the decode stack from 2r by hand; the penalty's
    # result is its input gradient g_pen_u, and no encode-stack pass runs
    gt, enc, b, rng = small_problem(seed=18)
    cfg = NetworkConfig(n_phases=2, nc=4, f_depth=2, fhat_depth=2)
    params = init_network_params(cfg, seed=18)
    for (_, bc), phase in zip(stored_forward(b, enc, params)[0], params.phases):
        pen_out, pen_ins = stack_forward(bc.u, phase.fhat_stack)
        r = pen_out - bc.f_ins[0]
        want_g, want_fhat = stack_backward(2.0 * r, pen_ins, phase.fhat_stack)
        value, g_pen_u, fhat_grads, r2 = inverse_penalty(bc.u, bc.f_ins[0], phase)
        assert value == float(np.sum(r * r))
        assert r2.tobytes() == (2.0 * r).tobytes()
        assert g_pen_u.tobytes() == want_g.tobytes()
        assert len(fhat_grads) == len(want_fhat)
        for (gw, gb), (ww, wb) in zip(fhat_grads, want_fhat):
            assert gw.tobytes() == ww.tobytes()
            assert gb.tobytes() == wb.tobytes()


@pytest.mark.parametrize("zeta", [0.0, 0.1])
@pytest.mark.parametrize("depths", [(2, 2), (1, 3), (3, 1)])
def test_backward_conv_pass_counts(monkeypatch, zeta, depths):
    # per phase: a weight-gradient pass per encode layer and one per decode
    # layer for the loss and again for the penalty; correlations for every
    # input gradient and the penalty's decode forward; phase 0 forms no input
    # gradient; every phase but the last re-runs its whole block forward
    cfg = NetworkConfig(n_phases=3, nc=4, f_depth=depths[0], fhat_depth=depths[1])
    params = init_network_params(cfg, seed=21)
    gt, enc, b, rng = small_problem(seed=21)
    _, cache = network_forward(b, enc, params, cfg)
    calls = {"_correlate": 0, "_param_grads": 0}
    for name in calls:
        def counted(*args, _fn=getattr(dynmr.conv3d, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(dynmr.conv3d, name, counted)
    network_backward(rand_volume(rng, gt.shape), cache, params, zeta)
    n, f, fhat = cfg.n_phases, cfg.f_depth, cfg.fhat_depth
    rebuilt = (n - 1) * (f + fhat)
    if zeta == 0.0:
        want = {"_correlate": n * (f + fhat) - 1 + rebuilt,
                "_param_grads": n * (f + fhat)}
    else:
        want = {
            "_correlate": n * 3 * fhat + (n - 1) * f + f - 1 + rebuilt,
            "_param_grads": n * (f + 2 * fhat),
        }
    assert calls == want
