import numpy as np
import pytest

import dynmr.network
from dynmr import cli
from dynmr.conv3d import stack_backward, stack_forward
from dynmr.gradcheck import run_gradcheck

ROWS = ["conv", "attention", "mu/eta", "penalty"]


@pytest.mark.parametrize("seed", range(8))
def test_every_row_passes(seed):
    results = run_gradcheck(seed)
    assert [r.name for r in results] == ROWS
    assert all(r.ok for r in results), results


def test_a_scaled_penalty_gradient_fails_only_the_penalty_row(monkeypatch, capsys):
    exact = dynmr.network.inverse_penalty

    def scaled(u, v, phase):
        value, g_pen_u, fhat_grads, r2 = exact(u, v, phase)
        grow = [(gw * 1.0001, gb * 1.0001) for gw, gb in fhat_grads]
        return value, g_pen_u * 1.0001, grow, r2 * 1.0001

    monkeypatch.setattr(dynmr.network, "inverse_penalty", scaled)
    failed = [r.name for r in run_gradcheck(0) if not r.ok]
    assert failed == ["penalty"]
    assert cli.main(["gradcheck"]) == 4
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[-1] for row in rows] == ["pass", "pass", "pass", "FAIL"]


@pytest.mark.parametrize("wrong", ["no direct term", "input held fixed"])
def test_a_partial_input_gradient_fails_only_the_penalty_row(monkeypatch, wrong):
    # the penalty's gradient at a block input v is E'^T g_pen_u - 2r, E the
    # encode stack: a zero residual drops the direct term -2r, and E'^T g_pen_u
    # in its place cancels both, the semi-gradient of a penalty that holds v
    # fixed
    exact = dynmr.network.inverse_penalty

    def patched(u, v, phase):
        value, g_pen_u, fhat_grads, r2 = exact(u, v, phase)
        if wrong == "no direct term":
            r2 = np.zeros_like(r2)
        else:
            f_ins = stack_forward(v, phase.f_stack)[1]
            r2 = stack_backward(g_pen_u, f_ins, phase.f_stack)[0]
        return value, g_pen_u, fhat_grads, r2

    monkeypatch.setattr(dynmr.network, "inverse_penalty", patched)
    failed = [r.name for r in run_gradcheck(0) if not r.ok]
    assert failed == ["penalty"]
