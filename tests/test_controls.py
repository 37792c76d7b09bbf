"""Negative controls: each gate of the reproduce runners fails on an operator that breaks it.

A control swaps the construction a runner reads by monkeypatching its
builder in reproduce's namespace, runs the runner, and asserts that the
gates it names in CONTROLLED fail.  A gate family with no control is
listed in NO_CONTROL with the reason, and a coverage test holds every
gated check id of the eight runners to one of the two tables.
"""

from collections import Counter
from dataclasses import replace
from fnmatch import fnmatchcase

import numpy as np
import pytest

import kreisslab as kl
import kreisslab.constructions as kc
import kreisslab.reproduce as reproduce

#: The check ids each control breaks, as patterns: every record of the
#: run that matches one must fail, and each pattern must match some
#: failing record.
CONTROLLED = {
    "tn-ratio": ("tn-norm-*", "tn-power-n*", "tn-power-closed-form-*"),
    "tn-eta-0.45": ("tn-mean-ratio-*",),
    "shields-eta-0.35": ("shields-norm-closed-form", "shields-lower-bound", "shields-odd-powers",
                         "shields-even-powers", "shields-growth-exponent-floor"),
    "shields-eta-0.499": ("shields-growth-exponent",),
    "jordan": ("mean-difference-*",),
    "ergces-eps-doubled": ("ergces-closed-form-powers", "ergces-closed-form-means",
                           "ergces-left-eigenvector", "ergces-range-witness",
                           "ergces-resolvent-closed-form", "ergces-kreiss-bracket-upper"),
    "ergces-first-row": ("ergces-mean-first-row",),
    "ergces-column-0": ("ergces-fixed-direction", "ergces-kreiss-bracket-lower"),
    "tz-three-block": ("tz-mean-symbol-bound", "tz-resolvent-symbol-bound"),
    "tz-nudged": ("tz-block-power-formula",),
    "tz-mid-last-pivot": ("tz-norm-dense-oracle",),
    "bermbmp-ratio": ("bermbmp-ratios", "bermbmp-norm", "bermbmp-power-growth"),
    "bermbmp-alpha-0.9": ("bermbmp-absolute-cesaro",),
    "claims-constant-0.02": ("H[1-4]",),
    "guide-constant-0.25": ("TN-C1",),
}

#: Gated check ids with no control, as patterns, each with the reason.
NO_CONTROL = {
    "TN-C2": "an inequality between a power sum and its integral; it reads no operator",
    "mean-identities-*": "algebraic identities of powers and means that hold for every "
                         "matrix; only a broken power stream could fail them",
    "ergces-mean-bound": "closed form only: ergces_power_sums, which ergces-closed-form-means "
                         "ties to the built operator",
    "ergces-mean-rate": "closed form only: ergces_power_sums, which ergces-closed-form-means "
                        "ties to the built operator",
    "ergces-power-bound": "closed form only: computed from eps_j, with no operator built",
    "ergces-resolvent-svd": "two norms of one matrix",
    "tz-mean-symbol-uniform": "closed form only: the symbol on the angle grid",
    "tz-transient-growth": "reads tz_block_power_norms; a Sturm count broken in its last pivot "
                           "moves it by about 1e-12, far inside the gate's margin, and "
                           "tz-norm-dense-oracle catches that",
    "tz-symbol-bound": "reads tz_block_power_norms; a Sturm count broken in its last pivot "
                       "moves it by about 1e-12, far inside the gate's margin, and "
                       "tz-norm-dense-oracle catches that",
    "tz-resolvent-rising": "each truncation is the restriction of the next to an invariant "
                           "subspace",
    "shields-norm": "||T|| = 2^eta < sqrt(2) for every eta that TNParams admits",
    "shields-odd-power-floor": "||T|| >= 1 for every ramp shift: its first ratio is 2^eta",
    "L21": "lemma21_bound on fixed scalar sequences; it reads no operator",
    "lemma-linear-divergence-detected": "a fixed linear sequence; it reads no operator",
    "bermbmp-annihilates-first": "every backward shift maps e_1 to 0",
}


def three_block(d):
    """[[B, B-I, 0], [0, B, B-I], [0, 0, B]]: ||M_n|| grows like n, so it is not mean ergodic."""
    b = np.eye(d, k=1)
    zero = np.zeros((d, d))
    return np.block([[b, b - np.eye(d), zero], [zero, b, b - np.eye(d)], [zero, zero, b]])


def first_ratio_scaled(shift):
    """The shift with r_1 scaled by 1 + 1e-6."""
    ratios = shift.ratios.copy()
    ratios[0] *= 1.0 + 1e-6
    return kl.WeightedShift(shift.direction, ratios)


def statuses(records):
    return {record.check_id: record.status for record in records}


def assert_controlled(records, control):
    """Every record of each pattern fails, and at least one does."""
    for pattern in CONTROLLED[control]:
        matched = [record.status for record in records if fnmatchcase(record.check_id, pattern)]
        assert matched and set(matched) == {"fail"}, pattern


def test_tn_gates_fail_with_the_first_ratio_scaled(monkeypatch):
    # A shift is its ratios: one ratio 1e-6 off breaks the norm, the
    # closed-form top power and the dense top power of every T_N.
    build = reproduce.build_TN
    monkeypatch.setattr(reproduce, "build_TN", lambda n, eta: first_ratio_scaled(build(n, eta)))
    records, _ = reproduce._thm24(kl.SEED)
    assert_controlled(records, "tn-ratio")
    assert sum(record.status == "fail" for record in records) == 24


def test_tn_dense_powers_fail_when_apply_misplaces_a_weight(monkeypatch):
    # The dense oracle steps T_N through apply; the closed form never does.
    # With r_1 landing on e_1 rather than e_2, T^(2N-1) is r_1^(2N-1) e_1 e_1*,
    # so every stepped top power fails while every closed form still passes.
    exact = reproduce.apply

    def misplaced(op, x):
        y = exact(op, x)
        if isinstance(op, kl.WeightedShift) and op.direction == "forward":
            y[[0, 1]] = y[[1, 0]]
        return y

    monkeypatch.setattr(reproduce, "apply", misplaced)
    records, _ = reproduce._thm24(kl.SEED)
    failed = {record.check_id for record in records if record.status == "fail"}
    assert failed == {f"tn-power-n{n}-eta{eta}" for eta in (0.25, 0.45) for n in (8, 16, 32, 64)}
    assert all(record.status == "pass" for record in records
               if fnmatchcase(record.check_id, "tn-power-closed-form-*"))


def test_tn_mean_ratios_fail_when_every_shift_is_built_at_eta_0_45(monkeypatch):
    # At eta = 0.45 the mean sups grow with N (1.387, 1.859 and 2.082 at
    # N = 8, 32 and 64), so both N-independence ratios exceed their bounds.
    build = reproduce.build_TN
    monkeypatch.setattr(reproduce, "build_TN", lambda n, eta: build(n, 0.45))
    records, _ = reproduce._thm24(kl.SEED)
    assert_controlled(records, "tn-eta-0.45")
    ratios = {r.check_id: r.value for r in records if r.check_id.startswith("tn-mean-ratio")}
    assert ratios["tn-mean-ratio-64-32"] > 1.11 and ratios["tn-mean-ratio-64-8"] > 1.5


@pytest.mark.parametrize("eta, control", [(0.35, "shields-eta-0.35"),
                                          (0.499, "shields-eta-0.499")])
def test_shields_gates_fail_outside_the_exponent_window(monkeypatch, eta, control):
    # DirectSumParams admits only eta in (0.425, 0.5), so the summands are
    # built directly: at eta = 0.35 the exponent reads about 0.68, below the
    # 0.85 floor, and at eta = 0.499 about 0.97, above 0.95.
    monkeypatch.setattr(reproduce, "build_shields_counterexample", lambda epsilon, _, n_max:
                        kl.DirectSum(tuple(kl.build_TN(n, eta) for n in range(1, n_max + 1))))
    records, _ = reproduce._thm25(kl.SEED)
    assert_controlled(records, control)


def test_mean_difference_gates_fail_on_a_jordan_block(monkeypatch):
    # I + N with N^3 = 0 has M_n ~ n^2 N^2 / 6: not Cesaro bounded, and the
    # consecutive mean differences grow like n.
    jordan = kl.Dense(np.eye(3) + np.eye(3, k=-1))
    monkeypatch.setattr(reproduce, "build_TN", lambda *args: jordan)
    monkeypatch.setattr(reproduce, "build_ergces", lambda *args: jordan)
    records, _ = reproduce._thm28(kl.SEED)
    assert_controlled(records, "jordan")


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
    assert_controlled(records, "tz-three-block")
    (bound,) = [r for r in records if r.check_id == "tz-mean-symbol-bound"]
    assert min(bound.params["sup_mean_norm"]) > 3.0
    # Its resolvent outgrows the 2-block symbol: 5.98 times it at d = 32.
    (resolvent,) = [r for r in records if r.check_id == "tz-resolvent-symbol-bound"]
    assert resolvent.value > 5.0


def test_tz_power_gate_fails_with_an_entry_nudged(monkeypatch):
    build = reproduce.build_tz_block

    def nudged(d):
        mat = kl.materialize(build(d))
        mat[0, d] += 1e-6
        return kl.Dense(mat)

    monkeypatch.setattr(reproduce, "build_tz_block", nudged)
    records, _ = reproduce._ex29(kl.SEED)
    assert_controlled(records, "tz-nudged")


def mid_only_count(d, n2, shifts):
    """The Sturm count with a_mid in every row's last pivot, where a_last belongs."""
    s1 = shifts - 1.0
    beta2 = (n2 * shifts / s1) ** 2
    a_mid = 2.0 * n2 + 1.0 - shifts + 2.0 * n2 / s1
    piv = n2 - shifts + n2 / s1
    above = piv > 0.0
    for k in range(1, d):
        m = min(len(n2), d - k)
        piv = a_mid[:m] - beta2[:m] / piv[:m]
        above[:m] |= piv > 0.0
    return above


def test_tz_norm_oracle_fails_with_a_mid_in_the_last_pivot(monkeypatch):
    # The last pivot's n^2/(s-1) doubled moves ||T^32|| at d = 512 by about
    # 5e-12 relative: the dense oracle's 1e-13 tells, and no other gate does.
    monkeypatch.setattr(kc, "_tz_gram_has_eigenvalue_above", mid_only_count)
    records, _ = reproduce._ex29(kl.SEED)
    assert_controlled(records, "tz-mid-last-pivot")
    assert [r.check_id for r in records if r.status == "fail"] == ["tz-norm-dense-oracle"]


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
    # With eps_j doubled, y_j = 2^j leaves the residual -2^-j in column j,
    # and the resolvent's first row, twice the closed form's, nears 2 ||y_J||.
    assert_controlled(records, "ergces-eps-doubled")


def test_ergces_first_row_gate_fails_on_first_rows_scaled_by_1_01(monkeypatch):
    # The bound eps_j/2 is attained at n = 1, so 1% more breaks it.
    exact = reproduce.ergces_power_sums

    def scaled(j_max, ns):
        sums = exact(j_max, ns)
        sums[:, 0, 1:] *= 1.01
        return sums

    monkeypatch.setattr(reproduce, "ergces_power_sums", scaled)
    records, _ = reproduce._prop35(kl.SEED)
    assert_controlled(records, "ergces-first-row")


def test_ergces_fixed_direction_fails_with_column_0_flipped(monkeypatch):
    def flipped(j_max):
        mat = kl.materialize(kl.build_ergces(j_max))
        mat[0, 0] = 1.0
        return kl.Dense(mat)

    monkeypatch.setattr(reproduce, "build_ergces", flipped)
    records, _ = reproduce._prop35(kl.SEED)
    # With +1 in place of -1, nothing of the spectrum is near -r_J.
    assert_controlled(records, "ergces-column-0")


def test_bermbmp_gates_fail_with_the_first_ratio_scaled(monkeypatch):
    build = reproduce.build_bermbmp_shift
    monkeypatch.setattr(reproduce, "build_bermbmp_shift",
                        lambda *args: first_ratio_scaled(build(*args)))
    records, _ = reproduce._thm15(kl.SEED)
    assert_controlled(records, "bermbmp-ratio")


def test_bermbmp_absolute_cesaro_fails_at_alpha_0_9(monkeypatch):
    # The shift at alpha = 0.9 against the gate 2/(1 - 0.3) of alpha = 0.3:
    # its averaged orbit norms reach 4.146, above 2.857.
    monkeypatch.setattr(reproduce, "build_bermbmp_shift", lambda alpha, direction, d: (
        kl.WeightedShift(direction, ((np.arange(1, d) + 1.0) / np.arange(1, d)) ** 0.9)))
    records, _ = reproduce._thm15(kl.SEED)
    assert_controlled(records, "bermbmp-alpha-0.9")


def test_orbit_claims_fail_against_the_constant_scaled_by_0_02(monkeypatch):
    # H1..H4 hold against bounds in C = kb2_sum_C; at 0.02 C every live record
    # of thm2.7-claims fails (at 0.05 C one H1 record still passes).
    exact = reproduce.kb2_constant

    def shrunk(*args):
        report = exact(*args)
        return replace(report, kb2_sum_C=0.02 * report.kb2_sum_C)

    monkeypatch.setattr(reproduce, "kb2_constant", shrunk)
    records, _ = reproduce._thm27(kl.SEED)
    assert_controlled(records, "claims-constant-0.02")
    counts = Counter((r.check_id, r.status) for r in records if r.check_id.startswith("H"))
    assert counts == {("H1", "fail"): 14, ("H2", "fail"): 25, ("H3", "fail"): 11,
                      ("H4", "fail"): 30}


def test_the_double_sum_fails_against_the_guide_constant_scaled_by_0_25(monkeypatch):
    # TN-C1 holds each windowed double sum against the guide shift's mean
    # sup (1.085 and 1.364 at eta = 0.25 and 0.45).  At 0.25 of it the
    # bounds, 0.271 and 0.341, lie below every sum (the least are 0.343 and
    # 0.409), so all 112 records fail; at 0.5 some would still pass.
    exact = reproduce._guide_constant
    monkeypatch.setattr(reproduce, "_guide_constant", lambda eta: 0.25 * exact(eta))
    records, _ = reproduce._thm24(kl.SEED)
    assert_controlled(records, "guide-constant-0.25")
    tn_c1 = [r for r in records if r.check_id == "TN-C1"]
    assert len(tn_c1) == 112
    assert max(r.bound for r in tn_c1) < min(r.value for r in tn_c1)


def test_every_gate_has_a_control_or_a_reason():
    patterns = [p for group in CONTROLLED.values() for p in group] + list(NO_CONTROL)
    gated = [record.check_id for run in reproduce.RUNNERS.values() for record in run(kl.SEED)[0]
             if record.status in ("pass", "fail")]
    for check in gated:
        owners = [p for p in patterns if fnmatchcase(check, p)]
        assert len(owners) == 1, (check, owners)
    for pattern in patterns:
        assert any(fnmatchcase(check, pattern) for check in gated), pattern
