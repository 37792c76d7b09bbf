import tracemalloc

import numpy as np
import pytest

import kreisslab as kl
import kreisslab.cesaro
import kreisslab.kreiss
import kreisslab.operators
import kreisslab.reproduce
from kreisslab.cesaro import _angle_grid, _dense_norm, _power_sums, _rotated_mean_norms
from kreisslab.operators import _dense_dimension
from kreisslab.reproduce import CANONICAL_CATALOG


def random_dense(d, seed, real=False):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((d, d))
    if not real:
        mat = mat + 1j * rng.standard_normal((d, d))
    return kl.Dense(0.5 * mat)


def cesaro_mean2(op, n):
    """The second mean, cross-checking its two equivalent forms.

    Form one averages the running means with weights (j+1); form two is
    the triangular sum of (n+1-j) T^j.  Both are accumulated in one pass
    over the package's power stream and must agree to 1e-12; the
    triangular form is returned.
    """
    if n < 0:
        raise kl.ValidationError("mean index must be non-negative")
    eye = np.eye(_dense_dimension(op), dtype=complex)
    mat = kl.materialize(op) if n > 0 else None
    scale = 2.0 / ((n + 1) * (n + 2))

    averaged = eye  # sum of (j+1) * M_j, literally
    triangular = (n + 1) * eye
    for j, power, running, _ in _power_sums(lambda p: p @ mat, eye, n):
        averaged = averaged + (j + 1) * (running / (j + 1))
        triangular = triangular + (n + 1 - j) * power
    form_one = scale * averaged
    form_two = scale * triangular

    gap = float(np.max(np.abs(form_one - form_two)))
    if gap > 1e-12 * max(1.0, float(np.max(np.abs(form_two)))):
        raise RuntimeError(f"second-mean forms disagree by {gap:.3e}")
    return kl.Dense(form_two)


def test_power_stream_makes_no_step_past_a_zero_power():
    mat = kl.materialize(kl.build_tz_block(4)).real  # T^5 = 0
    calls = []

    def step(p):
        calls.append(p)
        return p @ mat

    stream = list(_power_sums(step, np.eye(8), 40))
    assert len(calls) == 5
    assert [settled for *_, settled in stream] == [n >= 5 for n in range(1, 41)]
    power = total = np.eye(8)
    for _, got_power, got_total, _ in stream:
        power = power @ mat
        total = total + power
        np.testing.assert_array_equal(got_power, power)
        np.testing.assert_array_equal(got_total, total)


# --- second mean ---


def test_second_mean_zero_index():
    mean = cesaro_mean2(kl.build_TN(3, 0.3), 0)
    np.testing.assert_array_equal(mean.matrix, np.eye(6))


def test_second_mean_zero_operator():
    # only the j = 0 term survives: (2/20) * 4 * I
    mean = cesaro_mean2(kl.Dense(np.zeros((3, 3))), 3)
    np.testing.assert_allclose(mean.matrix, 0.4 * np.eye(3), rtol=1e-15)


def test_second_mean_matches_independent_powering():
    op = random_dense(6, 3)
    n = 10
    mat = kl.materialize(op)
    oracle = np.zeros((6, 6), dtype=complex)
    for j in range(n + 1):
        oracle += (n + 1 - j) * np.linalg.matrix_power(mat, j)
    oracle *= 2.0 / ((n + 1) * (n + 2))
    np.testing.assert_allclose(cesaro_mean2(op, n).matrix, oracle, atol=1e-12)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_second_mean_forms_agree_random(n):
    # the builder cross-checks its two forms to 1e-12 internally
    cesaro_mean2(random_dense(8, 40 + n), n)


# --- rotated profile ---


def test_profile_identity_sup_is_one():
    profile = kl.rotated_mean_norm_profile(kl.Dense(np.eye(3)), 12, angle_count=16)
    np.testing.assert_allclose(profile.sup_lambda, np.ones(13), rtol=1e-12)
    np.testing.assert_allclose(profile.norm_m1, np.ones(13), rtol=1e-12)


def test_profile_shift_shortcut_matches_dense_grid():
    op = kl.build_TN(4, 0.3)
    short = kl.rotated_mean_norm_profile(op, 16, angle_count=256)
    assert short.rotation_shortcut
    dense = kl.rotated_mean_norm_profile(kl.Dense(kl.materialize(op)), 16, angle_count=8)
    assert not dense.rotation_shortcut
    np.testing.assert_allclose(short.sup_lambda, dense.sup_lambda, rtol=1e-9)


def test_profile_angle_count_irrelevant_for_shifts():
    op = kl.build_bermbmp_shift(0.45, "forward", 8)
    one = kl.rotated_mean_norm_profile(op, 12, angle_count=1)
    many = kl.rotated_mean_norm_profile(op, 12, angle_count=256)
    np.testing.assert_array_equal(one.sup_lambda, many.sup_lambda)


def test_shift_mean_rotation_invariance_on_dense_grid():
    # defeat the shortcut by materializing, then sweep a 64-angle grid
    for op in (kl.build_TN(4, 0.3), kl.build_bermbmp_shift(0.3, "forward", 8)):
        lams = np.exp(2j * np.pi * np.arange(64) / 64)
        table = _rotated_mean_norms(kl.Dense(kl.materialize(op)), 12, lams)
        spread = table.max(axis=0) - table.min(axis=0)
        assert float(spread.max()) <= 1e-9


def test_profile_past_a_zero_power_norms_the_sum_once(monkeypatch):
    op = kl.build_TN(4, 0.3)  # d = 8, so T^8 = 0 and M_n = (sum_{j<8} T^j) / (n+1) from n = 7 on
    calls = []
    monkeypatch.setattr(kreisslab.cesaro, "_dense_norm",
                        lambda mat: calls.append(mat.shape) or _dense_norm(mat))
    profile = kl.rotated_mean_norm_profile(op, 24, angle_count=1)
    assert len(calls) == 8  # n = 0..7; each later sum is the n = 7 one
    mat = kl.materialize(op)
    power = total = np.eye(8, dtype=complex)
    expected = [1.0]
    for n in range(1, 25):
        power = power @ mat
        total = total + power
        expected.append(np.linalg.norm(total, 2) / (n + 1))
    np.testing.assert_allclose(profile.norm_m1, expected, rtol=1e-12)


@pytest.mark.parametrize("op", [kl.build_ergces(12), kl.build_tz_block(8),
                                kl.RotatedScale(np.exp(0.3j), kl.build_tz_block(4))],
                         ids=["ergces-12", "tzblock-8", "complex-rotated"])
def test_an_order_2_profile_norms_first_order_cells_at_lam_1_only(monkeypatch, op):
    # The order-2 profile norms its second-order cells at every swept
    # point, and first-order cells only on the lam = 1 row that it reports
    # as norm_m1, with the bits of the exhaustive first-order table.
    _, lams = _angle_grid(op, 64)
    first = _rotated_mean_norms(op, 64, lams, 1)
    second = _rotated_mean_norms(op, 64, lams, 2)
    calls = []
    monkeypatch.setattr(kreisslab.cesaro, "_dense_norm",
                        lambda mat: calls.append(mat.shape) or _dense_norm(mat))
    _rotated_mean_norms(op, 64, np.ones(1), 1)
    row = len(calls)
    calls.clear()
    profile = kl.rotated_mean_norm_profile(op, 64, 64, order=2)
    assert len(calls) == len(lams) * 65 + row
    np.testing.assert_array_equal(profile.norm_m1, first[0], strict=True)
    np.testing.assert_array_equal(profile.norm_m2, second[0], strict=True)
    np.testing.assert_array_equal(profile.sup_lambda, second.max(axis=0), strict=True)
    calls.clear()
    profile = kl.rotated_mean_norm_profile(op, 64, 64)
    assert len(calls) == len(lams) * row
    np.testing.assert_array_equal(profile.norm_m1, first[0], strict=True)
    np.testing.assert_array_equal(profile.sup_lambda, first.max(axis=0), strict=True)


def test_profile_of_a_sum_above_the_dense_cap_is_the_max_over_its_blocks():
    op = kl.build_shields_counterexample(0.15, 0.45, 64)
    assert kl.dimension(op) > kl.DENSE_CAP
    profile = kl.rotated_mean_norm_profile(op, 2, angle_count=1)
    per_block = [kl.rotated_mean_norm_profile(s, 2, angle_count=1).sup_lambda
                 for s in op.summands]
    np.testing.assert_array_equal(profile.sup_lambda, np.max(per_block, axis=0))


def test_profile_ergces_even_means_bounded():
    profile = kl.rotated_mean_norm_profile(kl.build_ergces(20), 256, angle_count=1)
    even = profile.norm_m1[2::2]
    assert float(even.max()) <= 1.5 + 1e-6


def test_ergces_even_mean_entry_bound():
    j_max = 20
    mat = kl.materialize(kl.build_ergces(j_max))
    eps = 2.0 ** (-np.arange(1, j_max + 1, dtype=float))
    power = np.eye(j_max + 1, dtype=complex)
    total = np.eye(j_max + 1, dtype=complex)
    for n in range(1, 257):
        power = power @ mat
        total = total + power
        if n % 2 == 0:
            mean = total / (n + 1)
            assert np.all(np.abs(mean[0, 1:]) <= eps / 2.0 + 1e-9)


def test_profile_validation():
    with pytest.raises(kl.ValidationError):
        kl.rotated_mean_norm_profile(kl.build_TN(2, 0.25), 4, angle_count=0)
    with pytest.raises(kl.ValidationError):
        kl.rotated_mean_norm_profile(kl.build_TN(2, 0.25), 4, order=3)


# --- shift mean brackets ---


def one_point_means(op, n_max):
    """||M_n(op)|| for n = 0..n_max from the dense tables: the brackets' oracle."""
    return _rotated_mean_norms(op, n_max, np.array([1.0 + 0.0j]))[0]


def assert_contains(bracket, values):
    # The dense values carry the Gram eigensolve's error, which
    # _PRUNE_SLACK covers; the sides are certified for the exact norms.
    slack = kreisslab.cesaro._PRUNE_SLACK
    assert np.all(bracket.lower <= values * (1.0 + slack))
    assert np.all(values <= bracket.upper * (1.0 + slack))


@pytest.mark.parametrize("eta", [0.25, 0.45])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_shift_mean_brackets_contain_the_dense_means(n, eta):
    op = kl.build_TN(n, eta)
    bracket = kl.shift_mean_norm_bracket(op, range(8 * n + 1))
    assert_contains(bracket, one_point_means(op, 8 * n))
    low, high = bracket.lower.max(), bracket.upper.max()
    assert low <= high <= low * (1.0 + kreisslab.cesaro._SHIFT_MEAN_WIDTH)


@pytest.mark.parametrize("eta", [0.25, 0.45])
def test_the_guide_constant_is_the_lower_side_of_a_bracket_of_the_dense_sweep(eta):
    # TN-C1's c1 was the dense guide sweep's ukb_C; its bracket holds that
    # value (up to the eigensolve's own error) within a width of 1e-9.
    guide = kl.build_bermbmp_shift(eta, "forward", 64)
    bracket = kl.shift_mean_norm_bracket(guide, range(257))
    low, high = bracket.lower.max(), bracket.upper.max()
    dense = kl.kb2_constant(guide, 256).ukb_C
    slack = kreisslab.cesaro._PRUNE_SLACK
    assert low <= dense * (1.0 + slack) and dense <= high * (1.0 + slack)
    assert high <= low * (1.0 + 1e-9)
    assert kreisslab.reproduce._guide_constant(eta) == low


def test_shift_mean_brackets_contain_40_digit_norms():
    import mpmath

    n_max = 16
    for eta in (0.25, 0.45):
        op = kl.build_TN(8, eta)
        bracket = kl.shift_mean_norm_bracket(op, range(n_max + 1))
        with mpmath.workdps(40):
            ratios = [mpmath.mpf(float(r)) for r in op.ratios]
            weights = [mpmath.mpf(1)]
            for r in ratios:
                weights.append(weights[-1] * r)
            d = len(weights)
            for n in range(n_max + 1):
                mean = mpmath.matrix(d, d)
                for i in range(d):
                    for j in range(max(0, i - n), i + 1):
                        mean[i, j] = weights[i] / weights[j] / (n + 1)
                top = max(mpmath.eigsy(mean.T * mean, eigvals_only=True))
                exact = mpmath.sqrt(top)
                assert mpmath.mpf(float(bracket.lower[n])) <= exact, (eta, n)
                assert exact <= mpmath.mpf(float(bracket.upper[n])), (eta, n)


def test_shift_mean_bracket_of_a_direct_sum_is_the_blockwise_max():
    op = kl.build_shields_counterexample(0.15, 0.45, 8)
    ns = range(40)
    bracket = kl.shift_mean_norm_bracket(op, ns)
    assert_contains(bracket, np.max([one_point_means(s, 39) for s in op.summands], axis=0))
    # Each summand's own bracket holds the same norms as the sum's.
    alone = [kl.shift_mean_norm_bracket(s, ns) for s in op.summands]
    assert np.all(bracket.lower <= np.max([b.upper for b in alone], axis=0))
    assert np.all(np.max([b.lower for b in alone], axis=0) <= bracket.upper)


def test_shift_mean_bracket_at_zero_and_past_nilpotency():
    op = kl.build_TN(8, 0.45)  # d = 16: T^16 = 0, so M_n = 16 M_15 / (n + 1) from n = 15 on
    ns = [0, 15, 16, 40, 127, 3, 0]
    bracket = kl.shift_mean_norm_bracket(op, ns)
    assert bracket.lower[0] == bracket.upper[0] == bracket.lower[-1] == 1.0
    for i, n in enumerate(ns[2:5], 2):
        for side in (bracket.lower, bracket.upper):
            assert side[i] == pytest.approx(side[1] * 16 / (n + 1), rel=8 * kreisslab.cesaro._EPS)
    assert_contains(bracket, one_point_means(op, 127)[ns])
    # A backward shift and a rotation leave every side unchanged.
    turned = kl.RotatedScale(1j, kl.WeightedShift("backward", op.ratios))
    twin = kl.shift_mean_norm_bracket(turned, ns)
    np.testing.assert_array_equal(twin.lower, bracket.lower)
    np.testing.assert_array_equal(twin.upper, bracket.upper)


def test_shift_mean_bracket_validation():
    shift = kl.build_TN(4, 0.3)
    for op in (kl.Dense(np.eye(3)), kl.DirectSum((shift, kl.Dense(np.eye(2))))):
        with pytest.raises(kl.ValidationError):
            kl.shift_mean_norm_bracket(op, [1, 2])
    for ns in ([-1], [1.5]):
        with pytest.raises(kl.ValidationError):
            kl.shift_mean_norm_bracket(shift, ns)
    with pytest.raises(kl.ConvergenceError):
        kl.shift_mean_norm_bracket(kl.WeightedShift("forward", np.full(40, 1e20)), [1])


def test_thm24_eigensolves_no_mean_at_d_128(monkeypatch):
    # Every mean, the guide shift's among them, is bracketed with no
    # eigensolve and no mean sweep, and the dense power oracle is stepped
    # through apply and normed on its one nonzero column rather than formed
    # by matrix_power at d = 128.
    def refuse(*args):
        raise AssertionError("thm2.4 called np.linalg.matrix_power or a mean sweep")

    shapes = []
    norm = kreisslab.operators._matrix_norm

    def recording(mat):
        shapes.append(mat.shape)
        return norm(mat)

    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    for module in (kreisslab.cesaro, kreisslab.kreiss):
        monkeypatch.setattr(module, "rotated_mean_tables", refuse)
    for module in (kreisslab.operators, kreisslab.cesaro, kreisslab.reproduce):
        monkeypatch.setattr(module, "_matrix_norm", recording)
    records, _ = kreisslab.reproduce._thm24(kl.SEED)
    assert all(record.status != "fail" for record in records)
    assert shapes and {columns for _, columns in shapes} == {1}


# --- identities ---


def test_identity_check_identity_operator():
    assert kl.cesaro_identity_check(kl.Dense(np.eye(4)), 5).max() <= 1e-15


def test_identity_check_tn():
    assert kl.cesaro_identity_check(kl.build_TN(8, 0.3), 17).max() <= 1e-10


def test_identity_check_random_dense():
    assert kl.cesaro_identity_check(random_dense(8, 9), 5).max() <= 1e-11


def test_identity_check_catalog_sample():
    ops = (
        kl.build_TN(8, 0.3),
        kl.build_shields_counterexample(0.15, 0.45, 4),
        kl.build_bermbmp_shift(0.45, "forward", 16),
        kl.build_ergces(12),
        kl.build_tz_block(16),
    )
    for op in ops:
        residuals = kl.cesaro_identity_check(op, 64)
        assert residuals.shape == (64,)
        assert residuals.max() <= 1e-10


def test_identity_check_residual_at_n_does_not_depend_on_n_max():
    op = random_dense(6, 4)
    full = kl.cesaro_identity_check(op, 13)
    for n_max in (1, 2, 7):
        assert np.array_equal(kl.cesaro_identity_check(op, n_max), full[:n_max])


def test_identity_check_norms_one_residual_per_index(monkeypatch):
    # Each residual is the norm of T^n - ((n+1) M_n - n M_(n-1)), bit for
    # bit, with one norm per index and no pruning cascade.
    real = kreisslab.cesaro._dense_norm
    normed = []

    def counting(mat):
        normed.append(1)
        return real(mat)

    def cascade(*args):
        raise AssertionError("the identity check prunes nothing")

    monkeypatch.setattr(kreisslab.cesaro, "_dense_norm", counting)
    monkeypatch.setattr(kreisslab.cesaro, "_norm_unless_beaten", cascade)
    n_max = 64
    for name, params in CANONICAL_CATALOG:
        op = kl.make_operator(name, **params).spec
        mat = kl.materialize(op)
        eye = np.eye(mat.shape[0], dtype=mat.dtype)
        powers, means = [eye], [eye]
        for j, power, total, _ in _power_sums(lambda p: p @ mat, eye, n_max):
            powers.append(power)
            means.append(total * (1.0 / (j + 1)))
        expected = [real(powers[n] - ((n + 1) * means[n] - n * means[n - 1]))
                    for n in range(1, n_max + 1)]
        normed.clear()
        np.testing.assert_array_equal(kl.cesaro_identity_check(op, n_max), expected)
        assert len(normed) == n_max


def test_identity_check_needs_positive_index():
    with pytest.raises(kl.ValidationError):
        kl.cesaro_identity_check(kl.Dense(np.eye(2)), 0)


def test_mean_respects_dense_cap():
    op = kl.build_TN(2049, 0.3)  # d = 4098 > DENSE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(kl.SizeError):
            cesaro_mean2(op, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # raised before allocating any d x d matrix


# --- decay ---


def test_mean_difference_identity_operator():
    diffs = kl.mean_difference_decay(kl.Dense(np.eye(3)), (4, 16, 64))
    np.testing.assert_allclose(diffs, 0.0, atol=1e-15)


def test_mean_difference_decay_tn():
    op = kl.build_TN(32, 0.45)
    diffs = kl.mean_difference_decay(op, (64, 512))
    assert diffs[1] < diffs[0]
    # T^64 = 0: the stream stops stepping there, and no bit changes
    # against means that step every index.
    mat = kl.materialize(op)
    power = total = np.eye(64, dtype=complex)
    means = [total]
    for n in range(1, 514):
        power = power @ mat
        total = total + power
        means.append(total / (n + 1))
    expected = [_dense_norm(means[n + 1] - means[n]) for n in (64, 512)]
    np.testing.assert_array_equal(diffs, expected)


def test_mean_difference_decay_ergces():
    diffs = kl.mean_difference_decay(kl.build_ergces(20), (64, 256, 512))
    assert diffs[2] < diffs[0]
    # threshold frozen from the dense oracle (observed 0.0623 at n = 256)
    assert diffs[1] <= 0.07


def test_mean_difference_ladder_validation():
    with pytest.raises(kl.ValidationError):
        kl.mean_difference_decay(kl.Dense(np.eye(2)), (8, 4))
    with pytest.raises(kl.ValidationError):
        kl.mean_difference_decay(kl.Dense(np.eye(2)), ())
    with pytest.raises(kl.ValidationError):
        kl.mean_difference_decay(kl.Dense(np.eye(2)), (-5, 16))


# --- rungs ---


#: Spectral radius 1/2 behind an off-diagonal of 3, as in test_kreiss.
NONNORMAL = kl.Dense(np.diag(np.full(8, 0.5)) + np.diag(np.full(7, 3.0), 1))
RUNG_OPS = {
    "ergces-12": kl.build_ergces(12),
    "nonnormal": NONNORMAL,
    # A complex contraction: unit spectral radius would let the sums grow.
    "complex-dense": kl.Dense(0.95 * np.linalg.qr(random_dense(10, 3).matrix)[0]),
}


def stepped_means(mat, block, ladder):
    # One product per index: the oracle of the sums read at the rungs.
    means = {0: block}
    power = total = block
    for n in range(1, ladder[-1] + 1):
        power = mat @ power
        total = total + power
        if n in ladder:
            means[n] = total / (n + 1)
    return means


@pytest.mark.parametrize("op", RUNG_OPS.values(), ids=RUNG_OPS.keys())
def test_rung_means_equal_stepped_ones(op):
    d = kl.dimension(op)
    mat = kl.materialize(op)
    ladder = (3, 16, 64, 255, 1000, 4096)
    rng = np.random.default_rng(kl.SEED)
    vecs = [v / np.linalg.norm(v)
            for v in rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))]
    means = stepped_means(mat, np.column_stack(vecs), ladder)
    probe = kl.ergodic_probe(op, probes=vecs, ladder=ladder)
    expected = [[np.linalg.norm(col) for col in (means[b] - means[a]).T]
                for a, b in zip(ladder, ladder[1:])]
    np.testing.assert_allclose(probe.gaps, np.array(expected).T, rtol=1e-12, atol=0)
    sums = stepped_means(mat, np.eye(d, dtype=complex), (*ladder, *(n + 1 for n in ladder)))
    diffs = kl.mean_difference_decay(op, ladder)
    np.testing.assert_allclose(diffs, [_dense_norm(sums[n + 1] - sums[n]) for n in ladder],
                               rtol=1e-12, atol=0)


# --- ergodic probes ---


def probe_verdict(probe):
    # The rule of the ergces-ergodic-probe and tz-ergodic-probe checks.
    return kl.gate("probe", probe.gaps[:, -1].max(), "<=", kl.PROBE_TOLERANCE).status


def test_probe_zero_operator():
    probe = kl.ergodic_probe(kl.Dense(np.zeros((5, 5))), probes=3)
    assert probe_verdict(probe) == "pass"
    assert np.all(np.diff(probe.gaps, axis=1) < 0)


def test_probe_rejects_a_negative_seed():
    # It ended in numpy's ValueError ("expected non-negative integer").
    with pytest.raises(kl.ValidationError, match="seed must be non-negative, got -1"):
        kl.ergodic_probe(kl.build_tz_block(4), probes=2, seed=-1)


@pytest.mark.parametrize("seed", [1.5, "7"])
def test_probe_rejects_a_non_integral_seed(seed):
    # They ended in numpy's TypeError ("SeedSequence expects int") or in a failed `<`.
    with pytest.raises(kl.ValidationError, match="seed must be an integer"):
        kl.ergodic_probe(kl.build_tz_block(4), probes=2, seed=seed)


def test_probe_takes_a_seed_of_any_integral_type():
    op = kl.build_tz_block(4)
    expected = kl.ergodic_probe(op, probes=2, ladder=(4, 8), seed=7).gaps
    got = kl.ergodic_probe(op, probes=2, ladder=(4, 8), seed=np.int64(7)).gaps
    np.testing.assert_array_equal(got, expected)


def test_probe_ergces_positive_verdict():
    probe = kl.ergodic_probe(
        kl.build_ergces(20), probes=8, ladder=(16, 64, 256, 1024, 4096, 8192, 16384)
    )
    assert probe_verdict(probe) == "pass"


def test_probe_tz_coordinates_positive_verdict():
    vecs = []
    for j in (0, 3, 17, 256, 261):
        v = np.zeros(512)
        v[j] = 1.0
        vecs.append(v)
    op = kl.build_tz_block(256)
    probe = kl.ergodic_probe(op, probes=vecs)
    assert probe_verdict(probe) == "pass"
    assert probe.probe_labels == tuple(f"given-{i}" for i in range(5))
    # T^257 = 0, so the stream stops stepping long before the ladder top;
    # the gaps equal those of orbits stepped at every index, bit for bit.
    # The orbits are integer-valued, so a sparse step sums them exactly.
    mat = kl.materialize(op).real
    rows, cols = np.nonzero(mat)
    step = lambda v: np.bincount(rows, weights=mat[rows, cols] * v[cols], minlength=512)
    expected = [orbit_gaps(step, x, probe.ladder) for x in vecs]
    np.testing.assert_array_equal(probe.gaps, expected)


def orbit_gaps(step, x, ladder):
    # One probe at a time: the Cauchy gaps of its running means.
    means = {0: x}
    power = total = x
    for n in range(1, ladder[-1] + 1):
        power = step(power)
        total = total + power
        if n in ladder:
            means[n] = total / (n + 1)
    return [float(np.linalg.norm(means[b] - means[a])) for a, b in zip(ladder, ladder[1:])]


def test_batched_probes_equal_single_probe_orbits_on_tz_coordinates():
    # Integer-valued orbits: stepping the probes together changes no bit.
    op = kl.build_tz_block(16)
    mat = kl.materialize(op).real
    ladder = (16, 64, 256, 1024)
    vecs = list(np.eye(32)[[0, 3, 15, 16, 20, 31]])
    probe = kl.ergodic_probe(op, probes=vecs, ladder=ladder)
    expected = [orbit_gaps(lambda v: mat @ v, x, ladder) for x in vecs]
    np.testing.assert_array_equal(probe.gaps, expected)


def test_batched_probes_match_single_probe_orbits_on_seeded_ergces():
    op = kl.build_ergces(20)
    d = kl.dimension(op)
    mat = kl.materialize(op)
    ladder = (16, 64, 256, 1024)
    rng = np.random.default_rng(kl.SEED)
    expected = []
    for _ in range(8):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        expected.append(orbit_gaps(lambda v: mat @ v, x / np.linalg.norm(x), ladder))
    probe = kl.ergodic_probe(op, probes=8, ladder=ladder)
    np.testing.assert_allclose(probe.gaps, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("op", [kl.build_ergces(12), kl.build_tz_block(8)],
                         ids=["ergces-12", "tzblock-8"])
def test_a_real_matrix_steps_complex_probes_as_one_real_block(op):
    # The seeded probes are complex: the gaps equal those of complex
    # products with the matrix, bit for bit (ergces 12 steps to the ladder
    # top, tzblock 8 settles).
    d = kl.dimension(op)
    ladder = (16, 64, 256, 1024)
    probe = kl.ergodic_probe(op, probes=8, ladder=ladder)
    rng = np.random.default_rng(kl.SEED)
    vecs = []
    for _ in range(8):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vecs.append(x / np.linalg.norm(x))
    mat = kl.materialize(op).astype(complex)
    block = np.column_stack(vecs)
    means = {0: block.T.copy()}
    for n, _, running, _ in _power_sums(lambda b: mat @ b, block, ladder[-1]):
        if n in ladder:
            means[n] = (running / (n + 1)).T.copy()
    expected = [[np.linalg.norm(row) for row in means[b] - means[a]]
                for a, b in zip(ladder, ladder[1:])]
    np.testing.assert_array_equal(probe.gaps, np.array(expected).T)


def test_probes_above_the_dense_cap_step_through_apply():
    op = kl.build_TN(2049, 0.3)
    d = kl.dimension(op)
    assert d > kl.DENSE_CAP
    ladder = (16, 32)
    rng = np.random.default_rng(kl.SEED)
    expected = []
    for _ in range(2):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        expected.append(orbit_gaps(lambda v: kl.apply(op, v), x / np.linalg.norm(x), ladder))
    probe = kl.ergodic_probe(op, probes=2, ladder=ladder)
    np.testing.assert_array_equal(probe.gaps, expected)


def test_probe_count_of_any_integral_type():
    # A count is told from vectors by operator.index, so a numpy integer
    # counts and a float is an error rather than a TypeError.
    op = kl.build_tz_block(4)
    probe = kl.ergodic_probe(op, np.int64(2), (1, 2))
    np.testing.assert_array_equal(probe.gaps, kl.ergodic_probe(op, 2, (1, 2)).gaps)
    for count in (2.0, 2.5, np.float64(2)):
        with pytest.raises(kl.ValidationError, match="probe count must be an integer"):
            kl.ergodic_probe(op, count, (1, 2))


def test_probe_validation():
    with pytest.raises(kl.ValidationError):
        kl.ergodic_probe(kl.Dense(np.eye(2)), probes=[np.zeros(2)])
    with pytest.raises(kl.ValidationError):
        kl.ergodic_probe(kl.Dense(np.eye(2)), probes=0)
    with pytest.raises(kl.DimensionError):
        kl.ergodic_probe(kl.Dense(np.eye(2)), probes=[np.ones(2), np.ones(3)])
    with pytest.raises(kl.ValidationError):
        kl.ergodic_probe(kl.Dense(np.eye(2)), probes=2, ladder=(8,))
    with pytest.raises(kl.ValidationError):
        kl.ergodic_probe(kl.Dense(np.eye(2)), probes=2, ladder=(-5, 16))


def test_real_operators_step_real_power_streams(monkeypatch, tmp_path):
    # materialize decides the field once: every stream of a real operator
    # starts real, with no complex array whose imaginary parts are all zero.
    starts = []

    def recording(step, start, n_max):
        starts.append(start.dtype)
        return _power_sums(step, start, n_max)

    for module in (kreisslab.operators, kreisslab.cesaro, kreisslab.reproduce):
        monkeypatch.setattr(module, "_power_sums", recording)
    ergces, tz = kl.build_ergces(8), kl.build_tz_block(4)
    calls = {
        "identity-ergces": lambda: kl.cesaro_identity_check(ergces, 16),
        "identity-tzblock": lambda: kl.cesaro_identity_check(tz, 16),
        "identity-tn": lambda: kl.cesaro_identity_check(kl.build_TN(4, 0.3), 16),
        "decay": lambda: kl.mean_difference_decay(ergces, (16, 64)),
        "powers": lambda: kl.power_norms(ergces, 12),
        "profile": lambda: kl.rotated_mean_norm_profile(tz, 12, angle_count=8, order=2),
        "kb2": lambda: kl.kb2_constant(ergces, 16, 8),
        "prop3.5": lambda: kreisslab.reproduce.reproduce("prop3.5", tmp_path),
    }
    for name, call in calls.items():
        starts.clear()
        call()
        assert starts and set(starts) == {np.dtype(float)}, name


def test_a_real_mean_is_its_sum_times_the_reciprocal():
    # numpy divides a complex array by a real scalar as a product with the
    # scalar's reciprocal, so a real stream's mean must be written
    # x * (1.0 / c), not x / c, to keep the bits of the complex one.
    rng = np.random.default_rng(11)
    x = rng.standard_normal(512) * 2.0 ** rng.integers(-60, 60, 512)
    quotients_differ = False
    for c in range(1, 4097):
        expected = ((x + 0j) / c).real
        np.testing.assert_array_equal((x * (1.0 / c)).view(np.int64), expected.view(np.int64))
        quotients_differ = quotients_differ or not np.array_equal(x / c, expected)
    assert quotients_differ


def complex_identity_residuals(mat, n_max):
    """cesaro_identity_check's residuals from a complex stream and complex quotients."""
    eye = np.eye(mat.shape[0], dtype=complex)
    mat = mat.astype(complex)
    powers, means, total = [eye], [eye], eye
    for j in range(1, n_max + 1):
        powers.append(powers[-1] @ mat)
        total = total + powers[-1]
        means.append(total / (j + 1))
    return np.array([_dense_norm(powers[n] - ((n + 1) * means[n] - n * means[n - 1]))
                     for n in range(1, n_max + 1)])


def test_real_means_keep_the_bits_of_complex_quotients():
    # Integer powers and sums are exact in either field, so only the means'
    # quotients can tell a real stream from a complex one: written as
    # products with the reciprocal, they agree bit for bit.
    mat = np.random.default_rng(5).integers(-1, 2, (6, 6)).astype(float)
    op = kl.Dense(mat)
    np.testing.assert_array_equal(kl.cesaro_identity_check(op, 12),
                                  complex_identity_residuals(mat, 12))
    sums = {n: sum(np.linalg.matrix_power(mat.astype(complex), j) for j in range(n + 1))
            for n in (3, 4, 7, 8)}
    expected = [_dense_norm(sums[n + 1] / (n + 2) - sums[n] / (n + 1)) for n in (3, 7)]
    np.testing.assert_array_equal(kl.mean_difference_decay(op, (3, 7)), expected)


@pytest.mark.parametrize("probe, ladder, message", [
    (False, (), "ladder needs at least one rung"),
    (True, (16,), "ladder needs at least two rungs"),
    (False, (4, 4), "ladder must be strictly increasing"),
    (True, (8, 4), "ladder must be strictly increasing"),
], ids=["decay-empty", "probe-one-rung", "decay-repeated", "probe-decreasing"])
def test_ladder_rule(probe, ladder, message):
    op = kl.build_tz_block(4)
    with pytest.raises(kl.ValidationError, match=message):
        kl.ergodic_probe(op, 2, ladder) if probe else kl.mean_difference_decay(op, ladder)
