import pytest

import dynmr.network
from dynmr import cli
from dynmr.gradcheck import run_gradcheck

ROWS = ["conv", "attention", "mu/eta", "penalty"]


@pytest.mark.parametrize("seed", range(5))
def test_every_row_passes(seed):
    results = run_gradcheck(seed)
    assert [r.name for r in results] == ROWS
    assert all(r.ok for r in results), results


def test_a_scaled_penalty_gradient_fails_only_the_penalty_row(monkeypatch, capsys):
    exact = dynmr.network.inverse_penalty

    def scaled(pc, phase):
        value, f_grads, fhat_grads = exact(pc, phase)
        grow = [(gw * 1.0001, gb * 1.0001) for gw, gb in f_grads + fhat_grads]
        return value, grow[: len(f_grads)], grow[len(f_grads):]

    monkeypatch.setattr(dynmr.network, "inverse_penalty", scaled)
    failed = [r.name for r in run_gradcheck(0) if not r.ok]
    assert failed == ["penalty"]
    assert cli.main(["gradcheck"]) == 4
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[-1] for row in rows] == ["pass", "pass", "pass", "FAIL"]
