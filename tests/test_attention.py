import numpy as np
import pytest

from dynmr.attention import AttnParams, attn_backward, attn_forward, init_attn_params
from dynmr.gradcheck import fd_at
from dynmr.mathutil import relu, sigmoid


def zero_params(nc):
    return AttnParams(
        w1=np.zeros((nc, nc)),
        b1=np.zeros(nc),
        w2=np.zeros((nc, nc)),
        b2=np.zeros(nc),
    )


def loss_and_grads(u, params, c):
    """Scalar probe loss sum(c * out) and its analytic gradients."""
    out, cache = attn_forward(u, params)
    grad_in, grad_p = attn_backward(c, cache, params)
    return float(np.sum(c * out)), grad_in, grad_p


# ------------------------------------------------------------- forward


def test_zero_params_single_voxel_example():
    # zero weights leave the gate at sigmoid(0) = 0.5, so tau = a / 2;
    # with one voxel per channel a = |u| and out = u / 2
    u = np.array([2.0, -4.0]).reshape(2, 1, 1, 1)
    out, cache = attn_forward(u, zero_params(2))
    np.testing.assert_allclose(cache.tau, [1.0, 2.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        out.ravel(), [1.0, -2.0], rtol=0, atol=1e-15
    )


def test_zero_input_gives_zero_output():
    rng = np.random.default_rng(0)
    params = init_attn_params(3, rng)
    out, cache = attn_forward(np.zeros((3, 4, 4, 2)), params)
    assert not out.any()
    assert np.array_equal(cache.tau, np.zeros(3))


def test_forward_shape_validation():
    params = zero_params(2)
    with pytest.raises(ValueError):
        attn_forward(np.zeros((3, 2, 2, 2)), params)
    with pytest.raises(ValueError):
        attn_forward(np.zeros((2, 2, 2)), params)


def test_params_shape_validation():
    with pytest.raises(ValueError):
        AttnParams(
            w1=np.zeros((2, 3)), b1=np.zeros(2), w2=np.zeros((2, 2)), b2=np.zeros(2)
        )


def test_thresholding_produces_exact_zeros():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((4, 6, 6, 3))
    out, cache = attn_forward(u, zero_params(4))
    inactive = ~cache.active
    assert inactive.sum() > 0
    assert np.all(out[inactive] == 0.0)
    assert np.all(out[cache.active] != 0.0)


def test_threshold_bounded_by_pooled_magnitude():
    rng = np.random.default_rng(2)
    for seed in range(10):
        params = init_attn_params(4, np.random.default_rng(seed))
        u = rng.standard_normal((4, 5, 5, 2))
        _, cache = attn_forward(u, params)
        assert np.all(cache.tau >= 0.0)
        assert np.all(cache.tau <= cache.a + 1e-15)


def test_output_never_grows():
    rng = np.random.default_rng(3)
    for seed in range(10):
        params = init_attn_params(3, np.random.default_rng(seed))
        u = rng.standard_normal((3, 4, 4, 3))
        out, _ = attn_forward(u, params)
        assert np.all(np.abs(out) <= np.abs(u) + 1e-15)
        assert np.all(np.sign(out) * np.sign(u) >= 0.0)


def test_zero_params_match_per_channel_shrinkage():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, 4, 4, 2))
    out, _ = attn_forward(u, zero_params(3))
    tau = 0.5 * np.mean(np.abs(u), axis=(1, 2, 3))
    want = np.sign(u) * np.maximum(np.abs(u) - tau[:, None, None, None], 0.0)
    assert np.array_equal(out, want)


def test_forward_is_bit_identical_to_the_formula():
    # the operator as the module docstring writes it, |u| taken afresh each time
    rng = np.random.default_rng(5)
    params = init_attn_params(4, rng)
    params.b1[:] = rng.uniform(-0.3, 0.3, size=4)
    u = rng.standard_normal((4, 6, 5, 3))
    u[1, 2] = 0.0
    a = np.mean(np.abs(u), axis=(1, 2, 3))
    pre1 = params.w1 @ a + params.b1
    pre2 = params.w2 @ relu(pre1) + params.b2
    s = sigmoid(pre2)
    tau = s * a
    tau_b = tau[:, None, None, None]
    active = np.abs(u) > tau_b
    want = np.sign(u) * np.maximum(np.abs(u) - tau_b, 0.0)

    out, cache = attn_forward(u, params)
    assert out.tobytes() == want.tobytes()
    for name, value in (("u", u), ("a", a), ("pre1", pre1),
                        ("s", s), ("tau", tau), ("active", active)):
        got = getattr(cache, name)
        assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name

    # with a work array the output overwrites the input, with the same bytes
    buf = u.copy()
    out, cache = attn_forward(buf, params, work=np.empty_like(u))
    assert out is buf and cache is None
    assert out.tobytes() == want.tobytes()


def test_init_is_seeded_and_bounded():
    a = init_attn_params(8, np.random.default_rng(5))
    b = init_attn_params(8, np.random.default_rng(5))
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    bound = 1.0 / np.sqrt(8)
    assert np.max(np.abs(a.w1)) <= bound and np.max(np.abs(a.w2)) <= bound
    assert not a.b1.any() and not a.b2.any()


# ------------------------------------------------------------ backward


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(6)
    params = init_attn_params(3, rng)
    u = rng.standard_normal((3, 4, 4, 2))
    _, cache = attn_forward(u, params)
    grad_in, grad_p = attn_backward(np.zeros_like(u), cache, params)
    assert not grad_in.any()
    for g in (grad_p.w1, grad_p.b1, grad_p.w2, grad_p.b2):
        assert not g.any()


def test_backward_shape_validation():
    rng = np.random.default_rng(7)
    params = init_attn_params(2, rng)
    _, cache = attn_forward(rng.standard_normal((2, 2, 2, 2)), params)
    with pytest.raises(ValueError):
        attn_backward(np.zeros((2, 2, 2, 3)), cache, params)


def test_zero_channel_gets_zero_input_gradient():
    # a channel that is identically zero is inactive everywhere and sign(0)=0
    # kills the pooling route, so its input gradient vanishes for any params
    rng = np.random.default_rng(8)
    params = init_attn_params(3, rng)
    u = rng.standard_normal((3, 4, 4, 2))
    u[1] = 0.0
    _, cache = attn_forward(u, params)
    grad_in, _ = attn_backward(np.ones_like(u), cache, params)
    assert not grad_in[1].any()
    assert grad_in[0].any() and grad_in[2].any()


def test_inactive_voxels_feel_only_the_pooling_route():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((2, 4, 4, 2))
    params = zero_params(2)
    c = rng.standard_normal(u.shape)
    _, cache = attn_forward(u, params)
    grad_in, _ = attn_backward(c, cache, params)
    # with zero weights the gate is frozen at 0.5 and g_a = 0.5 * g_tau
    g_tau = -np.sum(c * cache.active * np.sign(u), axis=(1, 2, 3))
    pooled = (0.5 * g_tau / u[0].size)[:, None, None, None] * np.sign(u)
    inactive = ~cache.active
    np.testing.assert_allclose(grad_in[inactive], pooled[inactive], rtol=0, atol=1e-14)


def test_gradients_match_finite_differences():
    # sweep every parameter coordinate and every input voxel over many seeds,
    # skipping voxels whose perturbation straddles the shrinkage kink
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        nc = 4
        params = init_attn_params(nc, rng)
        params.b1 += rng.uniform(-0.1, 0.1, size=nc)
        params.b2 += rng.uniform(-0.1, 0.1, size=nc)
        u = rng.standard_normal((nc, 4, 4, 2))
        c = rng.standard_normal(u.shape)

        def loss():
            out, _ = attn_forward(u, params)
            return float(np.sum(c * out))

        _, grad_in, grad_p = loss_and_grads(u, params, c)
        _, cache = attn_forward(u, params)
        margin = np.abs(np.abs(u) - cache.tau[:, None, None, None])

        for idx in np.ndindex(u.shape):
            if margin[idx] < 1e-4:
                continue
            num = fd_at(loss, u, idx)
            an = grad_in[idx]
            if abs(num) + abs(an) < 1e-8:
                continue
            rel = abs(num - an) / max(abs(num), abs(an))
            assert rel < 1e-5, f"seed {seed} input {idx}: fd={num} an={an}"
            checked += 1

        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(params, name)
            an_arr = getattr(grad_p, name)
            for idx in np.ndindex(arr.shape):
                num = fd_at(loss, arr, idx)
                an = an_arr[idx]
                if abs(num) + abs(an) < 1e-8:
                    continue
                rel = abs(num - an) / max(abs(num), abs(an))
                assert rel < 1e-5, f"seed {seed} {name}[{idx}]: fd={num} an={an}"
                checked += 1
    assert checked > 1000
