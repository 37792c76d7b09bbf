import math
import warnings

import numpy as np
import pytest

import kreisslab as kl
import kreisslab.constructions as kc
from kreisslab.operators import _matrix_norm
from kreisslab.reproduce import CANONICAL_CATALOG


def test_tn_weights_hand_values():
    np.testing.assert_allclose(
        kl.tn_weights(2, 0.25), [1.0, 2**0.25, 2**0.25, 2**0.5], rtol=1e-14
    )


@pytest.mark.parametrize("eta", [0.05, 0.25, 0.45])
def test_tn_weight_anchors_every_size_up_to_256(eta):
    for n in range(1, 257):
        w = kl.tn_weights(n, eta)
        assert w.size == 2 * n
        assert abs(w[0] - 1.0) <= 1e-12
        assert abs(w[n - 1] - n**eta) <= 1e-12 * n**eta
        assert abs(w[n] - n**eta) <= 1e-12 * n**eta
        assert abs(w[-1] - n ** (2 * eta)) <= 1e-12 * n ** (2 * eta)


@pytest.mark.parametrize("n,eta", [(2, 0.25), (8, 0.3), (16, 0.45), (64, 0.45)])
def test_tn_ratio_maximum_at_first_step(n, eta):
    op = kl.build_TN(n, eta)
    top = float(op.ratios.max())
    assert abs(top - 2**eta) <= 1e-12 * top
    # the first ratio attains the maximum (ties with the last in exact
    # arithmetic, so compare values rather than argmax indices)
    assert op.ratios[0] >= top * (1 - 1e-12)


def test_tn_norm_and_top_power():
    for n, eta in [(8, 0.25), (16, 0.45)]:
        series = kl.power_norms(kl.build_TN(n, eta), 2 * n - 1)
        assert abs(series.values[0] - 2**eta) <= 1e-12
        assert abs(series.values[-1] - n ** (2 * eta)) <= 1e-12 * n ** (2 * eta)


def test_tn_params_validation():
    with pytest.raises(kl.ValidationError):
        kl.build_TN(0, 0.25)
    with pytest.raises(kl.ValidationError):
        kl.build_TN(4, 0.5)
    with pytest.raises(kl.ValidationError):
        kl.build_TN(4, 0.0)
    with pytest.raises(kl.ValidationError):
        kl.build_TN(4, -0.1)


# --- direct sum ---


def test_shields_dimension():
    op = kl.build_shields_counterexample(0.15, 0.45, 4)
    assert kl.dimension(op) == 20  # sum of 2n over n = 1..4


def test_shields_power_lower_bound_instance():
    op = kl.build_shields_counterexample(0.15, 0.45, 4)
    series = kl.power_norms(op, 7)
    assert series.values[6] >= 4**0.9 * (1 - 1e-12)
    assert 4**0.9 > (1.0 / 3.0) * 8**0.85


def test_shields_norm_below_sqrt2():
    op = kl.build_shields_counterexample(0.15, 0.45, 4)
    norm = float(kl.power_norms(op, 1).values[0])
    assert abs(norm - 2**0.45) <= 1e-12
    assert norm < math.sqrt(2.0)


def test_shields_odd_and_even_power_identities():
    eta, n_max = 0.45, 6
    op = kl.build_shields_counterexample(0.15, eta, n_max)
    series = kl.power_norms(op, 2 * n_max - 1)
    # equality from n = 2 on; at n = 1 the larger summands push the norm
    # to 2**eta and only the lower bound survives
    assert series.values[0] >= 1.0
    for n in range(2, n_max + 1):
        expected = n ** (2 * eta)
        assert abs(series.values[2 * n - 2] - expected) <= 1e-12 * expected
    for n in range(1, n_max):
        floor = (n + 1) ** (2 * eta) / 2**eta
        assert series.values[2 * n - 1] >= floor * (1 - 1e-12)


def test_shields_certified_range():
    assert kl.shields_certified_kmax(64) == 126


def test_shields_params_validation():
    with pytest.raises(kl.ValidationError):
        kl.build_shields_counterexample(0.15, 0.40, 4)  # eta below (1-eps)/2
    with pytest.raises(kl.ValidationError):
        kl.build_shields_counterexample(1.2, 0.45, 4)
    with pytest.raises(kl.ValidationError):
        kl.build_shields_counterexample(0.15, 0.45, 1)


# --- ratio shift ---


def test_bermbmp_forward_ratios():
    op = kl.build_bermbmp_shift(0.45, "forward", 3)
    np.testing.assert_allclose(op.ratios, [2**0.45, 1.5**0.45], rtol=1e-14)


def test_bermbmp_backward_annihilates_first():
    op = kl.build_bermbmp_shift(0.3, "backward", 2)
    out = kl.apply(op, np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, 0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
def test_bermbmp_norm_is_first_ratio(alpha):
    op = kl.build_bermbmp_shift(alpha, "forward", 6)
    sigma = np.linalg.svd(kl.materialize(op), compute_uv=False)[0]
    assert abs(sigma - 2**alpha) <= 1e-12 * 2**alpha
    assert abs(float(kl.power_norms(op, 1).values[0]) - 2**alpha) <= 1e-12


def test_bermbmp_power_growth():
    d = 16
    op = kl.build_bermbmp_shift(0.3, "backward", d)
    series = kl.power_norms(op, d - 1)
    expected = (np.arange(1, d, dtype=float) + 1.0) ** 0.3
    np.testing.assert_allclose(series.values, expected, rtol=1e-12)


def test_bermbmp_validation():
    with pytest.raises(kl.ValidationError):
        kl.build_bermbmp_shift(0.6, "forward", 4)
    with pytest.raises(kl.ValidationError):
        kl.build_bermbmp_shift(0.3, "forward", 1)


# --- rank-one-perturbed diagonal ---


def test_ergces_hand_matrix():
    got = kl.materialize(kl.build_ergces(2))
    expected = np.array(
        [
            [-1.0, -0.5, -0.25],
            [0.0, -0.75, 0.0],
            [0.0, 0.0, -15.0 / 16.0],
        ]
    )
    np.testing.assert_allclose(got, expected, rtol=0, atol=0)


def test_ergces_fixed_vector():
    op = kl.build_ergces(4)
    e0 = np.zeros(5)
    e0[0] = 1.0
    np.testing.assert_allclose(kl.apply(op, e0), -e0)


def test_ergces_range_witness():
    op = kl.build_ergces(4)
    e0 = np.zeros(5)
    e0[0] = 1.0
    e1 = np.zeros(5)
    e1[1] = 1.0
    image = kl.apply(op, -2.0 * e1) + (-2.0 * e1)  # (T + I)(-e_1/eps_1)
    np.testing.assert_allclose(image, e0 - 0.5 * e1, atol=1e-15)


def test_ergces_power_closed_form_first_power():
    np.testing.assert_allclose(
        kl.ergces_power_closed_form(3, 1), kl.materialize(kl.build_ergces(3)).real
    )


def test_ergces_power_closed_form_entry():
    # squaring oracle for the (0, 1) entry: eps_1 (1 + c_1) = 0.875
    got = kl.ergces_power_closed_form(2, 2)
    assert abs(got[0, 1] - 0.875) <= 1e-15
    dense = np.linalg.matrix_power(kl.materialize(kl.build_ergces(2)).real, 2)
    np.testing.assert_allclose(got, dense, atol=1e-15)


def test_ergces_closed_form_matches_dense_powering():
    j_max = 20
    mat = kl.materialize(kl.build_ergces(j_max))
    power = np.eye(j_max + 1, dtype=complex)
    for n in range(1, 201):
        power = power @ mat
        gap = np.max(np.abs(power - kl.ergces_power_closed_form(j_max, n)))
        assert gap <= 1e-13


def test_ergces_left_eigenvector_norm_is_exact():
    # ||y_J||^2 = (4^(J+1) - 1)/3 for y_j = 2^j, an integer: the double norm equals
    # the correctly rounded square root of the exact integer.
    for j_max in range(21):
        assert np.linalg.norm(2.0 ** np.arange(j_max + 1)) == math.sqrt((4 ** (j_max + 1) - 1) // 3)
    # ErgcesParams.left_norm, which prop3.5 and the kreiss bracket read, gives the same bits.
    for j_max in range(2, 21):
        assert kl.ErgcesParams(j_max).left_norm == math.sqrt((4 ** (j_max + 1) - 1) // 3)
    assert round(kl.ErgcesParams(20).left_norm, 2) == 1210791.27


def test_ergces_validation():
    with pytest.raises(kl.ValidationError):
        kl.build_ergces(1)
    with pytest.raises(kl.ValidationError):
        kl.ergces_power_closed_form(3, 0)


# --- coupled backward-shift block ---


def test_tz_block_top_right_block():
    got = kl.materialize(kl.build_tz_block(2))
    np.testing.assert_allclose(got[:2, 2:], [[-1.0, 1.0], [0.0, -1.0]])
    np.testing.assert_allclose(got[2:, :2], 0.0)


@pytest.mark.parametrize("d", [2, 3, 16, 512])
def test_tz_block_is_the_block_formula_byte_for_byte(d):
    # tobytes() tells -0.0 from 0.0, which an array comparison does not.
    b = np.eye(d, k=1)
    expected = np.block([[b, b - np.eye(d)], [np.zeros((d, d)), b]])
    assert kl.materialize(kl.build_tz_block(d)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [2, 3, 16, 512])
def test_tz_block_power_is_the_eye_formula_byte_for_byte(d):
    for n in (1, d - 1, d, d + 1):
        bn = np.eye(d, k=n)
        expected = np.block([[bn, n * (bn - np.eye(d, k=n - 1))], [np.zeros((d, d)), bn]])
        assert kl.tz_block_power(d, n).tobytes() == expected.tobytes(), n


def test_tz_block_power_formula_matches_dense():
    # Integer entries: the closed form equals the dense power exactly, also
    # past n = d where the diagonal blocks vanish.
    for d, n_top in ((8, 16), (64, 32)):
        mat = kl.materialize(kl.build_tz_block(d)).real
        power = np.eye(2 * d)
        for n in range(1, n_top + 1):
            power = power @ mat
            np.testing.assert_array_equal(kl.tz_block_power(d, n), power)


def test_tz_block_power_is_normed_like_the_dense_power():
    # d = 600: both sides take the Gram eigensolve on equal matrices.
    series = kl.power_norms(kl.build_tz_block(300), 8)
    closed = [kl.spectral_norm(kl.Dense(kl.tz_block_power(300, k))).value for k in range(1, 9)]
    np.testing.assert_array_equal(closed, series.values)


def _ulps(got, expected):
    expected = np.asarray(expected)
    return np.abs(got - expected) / np.spacing(expected)


@pytest.mark.parametrize("d", [2, 3, 8, 16, 64])
def test_tz_block_power_norms_match_the_svd(d):
    got = kl.tz_block_power_norms(d, d - 1)
    svd = [np.linalg.svd(kl.tz_block_power(d, n), compute_uv=False)[0] for n in range(1, d)]
    assert got.shape == (d - 1,)
    assert np.max(_ulps(got, svd)) <= 8


def test_tz_block_power_norms_match_the_gram_eigensolve_at_d512():
    got = kl.tz_block_power_norms(512, 32)
    for n in (1, 16, 32):
        dense = _matrix_norm(kl.tz_block_power(512, n))
        assert dense.method == "dense-gram"
        assert _ulps(got[n - 1], dense.value) <= 4, n


def test_tz_block_power_norms_match_a_40_digit_eigensolve():
    import mpmath

    d = 12
    got = kl.tz_block_power_norms(d, d - 1)
    with mpmath.workdps(40):
        for n in range(1, d):
            power = kl.tz_block_power(d, n)
            gram = (power.T @ power).astype(int)  # exact: small integer entries
            top = max(mpmath.eigsy(mpmath.matrix(gram.tolist()), eigvals_only=True))
            expected = mpmath.sqrt(top)
            rel = abs(mpmath.mpf(float(got[n - 1])) - expected) / expected
            assert rel <= 2 * np.finfo(float).eps, n


def test_tz_block_power_norms_edges():
    for d, k_max in ((8, 0), (8, 8), (8, -1), (2, 2)):
        with pytest.raises(kl.ValidationError):
            kl.tz_block_power_norms(d, k_max)
    # n = d - 1 leaves a 2 x 2 Schur complement (q = 2).
    d = 9
    top = kl.tz_block_power_norms(d, d - 1)[-1]
    svd = np.linalg.svd(kl.tz_block_power(d, d - 1), compute_uv=False)[0]
    assert _ulps(top, svd) <= 8
    # Each row is computed on its own, so a shorter ladder is a prefix.
    first = kl.tz_block_power_norms(64, 32)
    np.testing.assert_array_equal(first, kl.tz_block_power_norms(64, 32))
    np.testing.assert_array_equal(first[:5], kl.tz_block_power_norms(64, 5))


def _pivot_block(k_max):
    """Pivot steps per block of the Sturm count over k_max rows of 15 shifts."""
    return kc._TZ_PIVOT_BLOCK_BYTES // (8 * k_max * len(kc._TZ_SHIFTS))


# (260, 60): the tail k >= 200 starts inside a block and runs into the
# next; (276, 60): it starts on a block boundary.
_KERNEL_CASES = ((2, 1), (7, 6), (129, 1), (512, 32), (513, 100), (260, 60), (276, 60))


def test_pivot_block_cases_cover_a_straddling_and_an_aligned_tail():
    size = _pivot_block(60)
    assert (260 - 60) % size and (260 - 60) // size < (260 - 1) // size
    assert (276 - 60) % size == 0


@pytest.mark.parametrize("d, k_max", _KERNEL_CASES)
def test_block_kernel_matches_the_stepwise_count_on_random_shifts(d, k_max):
    rng = np.random.default_rng(d * 1000 + k_max)
    n2 = np.arange(1.0, k_max + 1)[:, None] ** 2
    lo, hi = 2.0 * n2 + 1.0, 4.0 * n2 + 2.0 * np.sqrt(n2) + 1.0
    # Shifts across each row's whole bracket, and beyond it down to 1.5.
    for shifts in (lo + (hi - lo) * rng.random((k_max, 15)),
                   1.5 + (hi - 1.5) * rng.random((k_max, 15))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kc._tz_gram_has_eigenvalue_above(d, n2, shifts)
        expected = kc._tz_gram_has_eigenvalue_above_stepwise(d, n2, shifts)
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("d, k_max", _KERNEL_CASES)
def test_tz_block_power_norms_are_the_same_bytes_with_the_stepwise_count(monkeypatch, d,
                                                                         k_max):
    got = kl.tz_block_power_norms(d, k_max).tobytes()
    monkeypatch.setattr(kc, "_tz_gram_has_eigenvalue_above",
                        kc._tz_gram_has_eigenvalue_above_stepwise)
    assert kl.tz_block_power_norms(d, k_max).tobytes() == got


def test_block_kernel_hands_a_zero_pivot_to_the_stepwise_count(monkeypatch):
    # n^2 = 1, s = 2: the first pivot n^2 - s + n^2/(s - 1) is exactly 0.
    n2, shifts = np.array([[1.0]]), np.array([[2.0]])
    stepwise, calls = kc._tz_gram_has_eigenvalue_above_stepwise, []

    def spy(*args):
        calls.append(args)
        return stepwise(*args)

    monkeypatch.setattr(kc, "_tz_gram_has_eigenvalue_above_stepwise", spy)
    for d in (2, 3, 64):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kc._tz_gram_has_eigenvalue_above(d, n2, shifts)
        np.testing.assert_array_equal(got, stepwise(d, n2, shifts))
    assert len(calls) == 3


def _block_size(entry):
    """tzblock's d, whose T^(d+1) is zero; else the largest block's dimension."""
    if entry.name == "tzblock":
        return entry.params["d"]
    return max(stop - start for start, stop, *_ in kl.blocks(entry.spec))


@pytest.mark.parametrize("name, params", CANONICAL_CATALOG,
                         ids=[name for name, _ in CANONICAL_CATALOG])
def test_catalog_power_norms_match_the_dense_oracle(name, params):
    entry = kl.make_operator(name, **params)
    d = _block_size(entry)
    for k_max in (1, d - 1, d, d + 3):
        got = entry.power_norms(k_max)
        dense = kl.power_norms(entry.spec, k_max)
        np.testing.assert_array_equal(got.k, np.arange(1, k_max + 1))
        if name != "tzblock":
            assert got.values.tobytes() == dense.values.tobytes()
            assert got.methods == dense.methods
            continue
        k = got.k
        assert _ulps(got.values[k < d], dense.values[k < d]).max(initial=0.0) <= 3
        assert np.all(got.values[k == d] == d) and np.all(dense.values[k == d] == d)
        assert got.values[k > d].tobytes() == np.zeros(np.sum(k > d)).tobytes()
        assert got.methods == tuple("sturm-count" if n < d else "closed-form" for n in k)


def test_tz_block_strictly_upper_triangular():
    mat = kl.materialize(kl.build_tz_block(5))
    assert not np.any(np.tril(mat, 0))


def test_tz_block_validation():
    with pytest.raises(kl.ValidationError):
        kl.build_tz_block(1)


# --- catalog ---


def test_make_operator_names():
    entries = [
        kl.make_operator("tn", n=4, eta=0.3),
        kl.make_operator("shields", epsilon=0.15, eta=0.45, n_max=3),
        kl.make_operator("bermbmp", alpha=0.3, direction="backward", d=8),
        kl.make_operator("ergces", j_max=5),
        kl.make_operator("tzblock", d=4),
    ]
    for entry in entries:
        assert entry.notes
        assert kl.dimension(entry.spec) >= 2


def test_make_operator_unknown_name():
    with pytest.raises(kl.ValidationError):
        kl.make_operator("volterra", d=4)


#: Every catalog entry point that takes a size, called with a float one.
FLOAT_SIZES = {
    "build_TN": lambda: kl.build_TN(4.5, 0.3),
    "build_tz_block": lambda: kl.build_tz_block(4.7),
    "build_ergces": lambda: kl.build_ergces(6.9),
    "build_bermbmp_shift": lambda: kl.build_bermbmp_shift(0.3, "forward", 4.5),
    "build_shields_counterexample": lambda: kl.build_shields_counterexample(0.15, 0.45, 4.5),
    "make_operator": lambda: kl.make_operator("tzblock", d=4.5),
    "shields_certified_kmax": lambda: kl.shields_certified_kmax(4.5),
    "tz_block_power": lambda: kl.tz_block_power(8, 2.5),
    "tz_block_power_norms": lambda: kl.tz_block_power_norms(8, 2.5),
}


@pytest.mark.parametrize("call", FLOAT_SIZES.values(), ids=FLOAT_SIZES.keys())
def test_a_float_size_is_rejected_not_truncated(call):
    with pytest.raises(kl.ValidationError, match="must be an integer"):
        call()


def test_any_integral_size_builds_the_same_operator():
    for name, params in (("tn", {"n": np.int64(4), "eta": 0.3}),
                         ("shields", {"epsilon": 0.15, "eta": 0.45, "n_max": np.int32(3)}),
                         ("bermbmp", {"alpha": 0.3, "d": np.int64(8)}),
                         ("ergces", {"j_max": np.int16(5)}),
                         ("tzblock", {"d": np.uint8(4)})):
        entry = kl.make_operator(name, **params)
        plain = kl.make_operator(name, **{k: v.item() if isinstance(v, np.generic) else v
                                          for k, v in params.items()})
        np.testing.assert_array_equal(kl.materialize(entry.spec), kl.materialize(plain.spec))
        assert (entry.params, entry.notes) == (plain.params, plain.notes)
        assert all(type(value) is type(plain.params[key]) for key, value in entry.params.items())
    assert kl.shields_certified_kmax(np.int64(64)) == 126
    np.testing.assert_array_equal(kl.tz_block_power(np.int64(8), np.int64(3)), kl.tz_block_power(8, 3))
