import pytest

import dynmr.network
from dynmr import cli
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
        value, g_pen_u, fhat_grads = exact(u, v, phase)
        grow = [(gw * 1.0001, gb * 1.0001) for gw, gb in fhat_grads]
        return value, g_pen_u * 1.0001, grow

    monkeypatch.setattr(dynmr.network, "inverse_penalty", scaled)
    failed = [r.name for r in run_gradcheck(0) if not r.ok]
    assert failed == ["penalty"]
    assert cli.main(["gradcheck"]) == 4
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[-1] for row in rows] == ["pass", "pass", "pass", "FAIL"]
