"""Negative controls: each certificate of prop3.5 and ex2.9 fails on an operator that breaks it.

A control swaps the construction a runner reads by monkeypatching its
builder in reproduce's namespace, runs the runner, and asserts that the
named gate fails.
"""

import numpy as np

import kreisslab as kl
import kreisslab.reproduce as reproduce


def three_block(d):
    """[[B, B-I, 0], [0, B, B-I], [0, 0, B]]: ||M_n|| grows like n, so it is not mean ergodic."""
    b = np.eye(d, k=1)
    zero = np.zeros((d, d))
    return np.block([[b, b - np.eye(d), zero], [zero, b, b - np.eye(d)], [zero, zero, b]])


def statuses(records):
    return {record.check_id: record.status for record in records}


def test_tz_mean_gate_fails_on_the_three_block_control(monkeypatch):
    closed_form = reproduce.tz_block_power
    # The control's own powers stand in for the closed form at the swept
    # sizes, so the power check passes and only the mean gate can tell.
    monkeypatch.setattr(reproduce, "build_tz_block", lambda d: kl.Dense(three_block(d)))
    monkeypatch.setattr(reproduce, "tz_block_power", lambda d, n: (
        np.linalg.matrix_power(three_block(d), n) if d <= 32 else closed_form(d, n)))
    records, _ = reproduce._ex29(kl.SEED)
    status = statuses(records)
    assert status["tz-block-power-formula"] == "pass"
    assert status["tz-mean-symbol-bound"] == "fail"
    (bound,) = [r for r in records if r.check_id == "tz-mean-symbol-bound"]
    assert min(bound.params["sup_mean_norm"]) > 3.0


def test_coordinate_probes_pass_on_the_three_block_control():
    # The probe gate that tz-mean-symbol-bound replaced: the same probes and
    # tolerance read the control as mean ergodic.
    probe = kl.ergodic_probe(kl.Dense(three_block(256)),
                             probes=list(np.eye(768)[[0, 3, 17, 256, 261]]))
    assert probe.gaps[:, -1].max() <= kl.PROBE_TOLERANCE


def test_ergces_mean_gate_fails_with_eps_doubled(monkeypatch):
    def doubled(j_max):
        mat = kl.materialize(kl.build_ergces(j_max))
        mat[0, 1:] *= 2.0
        return kl.Dense(mat)

    monkeypatch.setattr(reproduce, "build_ergces", doubled)
    records, _ = reproduce._prop35(kl.SEED)
    status = statuses(records)
    assert status["ergces-closed-form-means"] == "fail"
    # With eps_j doubled, y_j = 2^j leaves the residual -2^-j in column j.
    assert status["ergces-left-eigenvector"] == "fail"


def test_ergces_first_row_gate_fails_on_first_rows_scaled_by_1_01(monkeypatch):
    # The bound eps_j/2 is attained at n = 1, so 1% more breaks it.
    exact = reproduce.ergces_power_sums

    def scaled(j_max, ns):
        sums = exact(j_max, ns)
        sums[:, 0, 1:] *= 1.01
        return sums

    monkeypatch.setattr(reproduce, "ergces_power_sums", scaled)
    records, _ = reproduce._prop35(kl.SEED)
    assert statuses(records)["ergces-mean-first-row"] == "fail"

