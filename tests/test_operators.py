import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreisslab as kl
import kreisslab.operators
import kreisslab.reproduce
from kreisslab.cesaro import _dense_norm, _rotated_mean_norms, rotated_mean_tables
from kreisslab.kreiss import certify_spectral_radius, resolvent_norm
from kreisslab.operators import _matrix_norm


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def random_dense(d, seed, real=False):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((d, d))
    if not real:
        mat = mat + 1j * rng.standard_normal((d, d))
    return kl.Dense(mat)


def catalog_zoo():
    return [
        kl.build_TN(4, 0.25),
        kl.build_bermbmp_shift(0.3, "backward", 6),
        kl.build_ergces(5),
        kl.build_tz_block(4),
        kl.build_shields_counterexample(0.15, 0.45, 3),
        kl.RotatedScale(np.exp(0.7j), kl.build_TN(3, 0.3)),
        kl.DirectSum((kl.build_TN(2, 0.25), kl.build_ergces(3))),
        random_dense(5, 7),
    ]


# --- apply ---


def test_apply_identity():
    x = np.array([1.0, 2.0, 3.0])
    out = kl.apply(kl.Dense(np.eye(3)), x)
    np.testing.assert_allclose(out, x)


def test_apply_forward_shift_single_step():
    op = kl.WeightedShift("forward", np.array([2.0, 2.0]))
    out = kl.apply(op, e(0, 3))
    np.testing.assert_allclose(out, 2.0 * e(1, 3))


def test_apply_tn_first_basis_vector():
    # image of e_1 is (w_2/w_1) e_2 = 2**0.25 e_2
    op = kl.build_TN(2, 0.25)
    out = kl.apply(op, e(0, 4))
    np.testing.assert_allclose(out, 2**0.25 * e(1, 4), rtol=1e-14)


def test_apply_dimension_mismatch():
    with pytest.raises(kl.DimensionError):
        kl.apply(kl.build_TN(2, 0.25), np.ones(3))


def test_apply_takes_a_block_of_columns():
    # A (d, k) block is applied as its k columns; a shift scales each
    # column exactly as it scales a lone vector.
    rng = np.random.default_rng(18)
    for op in catalog_zoo():
        d = kl.dimension(op)
        block = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        got = kl.apply(op, block)
        want = np.column_stack([kl.apply(op, column) for column in block.T])
        if kl.is_shift_like(op):
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    op = kl.build_TN(2, 0.25)
    for bad in (np.ones((3, 2)), np.ones((4, 2, 2))):
        with pytest.raises(kl.DimensionError):
            kl.apply(op, bad)
    with pytest.raises(kl.DimensionError):
        kl.resolvent_apply(op, 2.0, np.ones((4, 2)))  # vectors only


def test_apply_direct_sum_blockwise():
    op = kl.DirectSum((kl.Dense(2 * np.eye(2)), kl.Dense(3 * np.eye(1))))
    out = kl.apply(op, np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out, [2, 2, 3])


def test_apply_rotated_scale():
    lam = np.exp(1j * np.pi / 3)
    out = kl.apply(kl.RotatedScale(lam, kl.Dense(np.eye(2))), np.ones(2))
    np.testing.assert_allclose(out, lam * np.ones(2))


# --- adjoint ---


def test_adjoint_identity():
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(kl.apply_adjoint(kl.Dense(np.eye(2)), x), x)


def test_adjoint_forward_shift_is_backward():
    op = kl.WeightedShift("forward", np.array([2.0, 2.0]))
    out = kl.apply_adjoint(op, e(1, 3))
    np.testing.assert_allclose(out, 2.0 * e(0, 3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_adjoint_inner_product_identity_dense(seed):
    rng = np.random.default_rng(seed)
    op = kl.Dense(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = np.vdot(y, kl.apply(op, x))
    rhs = np.vdot(kl.apply_adjoint(op, y), x)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


def test_adjoint_consistency_all_variants():
    rng = np.random.default_rng(11)
    for op in catalog_zoo():
        d = kl.dimension(op)
        for _ in range(4):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            lhs = np.vdot(y, kl.apply(op, x))
            rhs = np.vdot(kl.apply_adjoint(op, y), x)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


# --- materialize ---


def test_materialize_shift_column_convention():
    # image of e_1 is 3 e_2, so the entry sits at row 2, column 1
    op = kl.WeightedShift("forward", np.array([3.0]))
    np.testing.assert_allclose(kl.materialize(op), [[0, 0], [3, 0]])


def test_materialize_direct_sum_diagonal():
    op = kl.DirectSum((kl.Dense([[2.0]]), kl.Dense([[5.0]])))
    np.testing.assert_allclose(kl.materialize(op), np.diag([2.0, 5.0]))


def test_materialize_tn_subdiagonal():
    # hand evaluation of the weights: (1, 2**0.25, 2**0.25, 2**0.5)
    weights = np.array([1.0, 2**0.25, 2**0.25, 2**0.5])
    expected = np.zeros((4, 4))
    expected[np.arange(1, 4), np.arange(3)] = weights[1:] / weights[:-1]
    got = kl.materialize(kl.build_TN(2, 0.25))
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    np.testing.assert_allclose(np.diag(got.real, -1), [2**0.25, 1.0, 2**0.25], rtol=1e-14)


def complex_materialization(op):
    """The complex matrix of op, entry by entry as a complex field builds it."""
    d = kl.dimension(op)
    mat = np.zeros((d, d), dtype=complex)
    for start, stop, scalar, leaf in kl.blocks(op):
        block = mat[start:stop, start:stop]
        if isinstance(leaf, kl.Dense):
            block[...] = leaf.matrix
        else:
            idx = np.arange(stop - start - 1)
            rows, cols = (idx + 1, idx) if leaf.direction == "forward" else (idx, idx + 1)
            block[rows, cols] = leaf.ratios
        if scalar != 1.0:
            block *= scalar
    return mat


@pytest.mark.parametrize("op, dtype", [
    *[(kl.make_operator(name, **params).spec, float)
      for name, params in kreisslab.reproduce.CANONICAL_CATALOG],
    (kl.RotatedScale(-1, kl.build_tz_block(3)), float),
    (kl.DirectSum((kl.RotatedScale(-1, kl.build_TN(2, 0.3)), kl.build_ergces(3))), float),
    (kl.Dense(kl.materialize(kl.build_ergces(4)) + 0j), float),
    (kl.RotatedScale(1j, kl.build_TN(3, 0.3)), complex),
    (kl.DirectSum((kl.build_ergces(3), kl.RotatedScale(1j, kl.build_tz_block(2)))), complex),
    (random_dense(5, 7), complex),
], ids=lambda x: getattr(x, "__name__", type(x).__name__))
def test_materialize_is_real_exactly_when_the_operator_is(op, dtype):
    got = kl.materialize(op)
    expected = complex_materialization(op)
    assert got.dtype == np.dtype(dtype)
    assert kreisslab.operators._is_real(op) == (dtype is float)
    np.testing.assert_array_equal(got, expected)
    if dtype is float:
        # The real entries carry the bits of the complex ones, down to the sign of a zero.
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected.real))
    else:
        np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(expected.imag))


def test_materialize_cap():
    op = kl.build_TN(2049, 0.3)  # d = 4098 > DENSE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(kl.SizeError):
            kl.materialize(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # raised before allocating the 268 MB matrix


def test_materialize_matches_apply_on_basis():
    for op in catalog_zoo():
        d = kl.dimension(op)
        mat = kl.materialize(op)
        for j in range(d):
            np.testing.assert_allclose(mat[:, j], kl.apply(op, e(j, d)), atol=1e-14)


# --- spectral norm ---


def test_spectral_norm_zero_operator():
    est = kl.spectral_norm(kl.Dense(np.zeros((4, 4))))
    assert est.value == 0.0


def test_spectral_norm_tn():
    est = kl.spectral_norm(kl.build_TN(64, 0.45))
    assert est.method == "power-iteration"
    assert abs(est.value - 2**0.45) <= 1e-9 * 2**0.45


def test_spectral_norm_matches_svd_oracle():
    op = random_dense(8, 3)
    sigma = np.linalg.svd(kl.materialize(op), compute_uv=False)[0]
    est = kl.spectral_norm(op)
    assert abs(est.value - sigma) <= 1e-9 * sigma


def test_spectral_norm_rotation_invariance():
    for lam in (1j, np.exp(0.3j), -1.0):
        base = kl.build_TN(8, 0.3)
        a = kl.spectral_norm(base).value
        b = kl.spectral_norm(kl.RotatedScale(lam, base)).value
        assert abs(a - b) <= 1e-10 * a


def test_spectral_norm_invalid_tolerance():
    with pytest.raises(kl.ValidationError):
        kl.spectral_norm(kl.Dense(np.eye(2)), tol=0.0)


def test_spectral_norm_rejects_a_nan_tolerance(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("power iteration ran")

    monkeypatch.setattr(kreisslab.operators, "_power_iteration", refuse)
    for op in (kl.build_TN(4, 0.3), kl.Dense(np.eye(2))):
        with pytest.raises(kl.ValidationError, match="tolerance"):
            kl.spectral_norm(op, tol=float("nan"))


def test_spectral_norm_rejects_a_tolerance_of_one_or_more(monkeypatch):
    # With tol = inf the iteration stopped after one step of TN(300, 0.45)
    # at 1.00718, against the norm 1.36604, and called that power-iteration.
    def refuse(*args, **kwargs):
        raise AssertionError("power iteration ran")

    monkeypatch.setattr(kreisslab.operators, "_power_iteration", refuse)
    for tol in (1.0, 2.0, float("inf")):
        for op in (kl.build_TN(300, 0.45), kl.Dense(np.eye(2))):
            with pytest.raises(kl.ValidationError, match="tolerance must lie in"):
                kl.spectral_norm(op, tol=tol)


def test_explicit_matrices_are_never_iterated(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("power iteration ran")

    monkeypatch.setattr("kreisslab.operators._power_iteration", refuse)
    op = random_dense(8, 11)
    est = kl.spectral_norm(op)
    sigma = np.linalg.svd(op.matrix, compute_uv=False)[0]
    assert (est.method, est.residual, est.iterations) == ("dense-gram", 0.0, 0)
    assert abs(est.value - sigma) <= 1e-12 * sigma
    series = kl.power_norms(kl.build_ergces(20), 4)
    assert series.methods == ("dense-gram",) * 4
    mat = np.random.default_rng(12).standard_normal((16, 16))
    sigma = np.linalg.svd(mat, compute_uv=False)[0]
    assert abs(_dense_norm(mat) - sigma) <= 1e-12 * sigma
    assert _matrix_norm(np.diag([1.0, 0.5, 0.25, 0.125])).value == 1.0

    # Above SVD_CAP too, and on top singular values no iteration separates.
    d = 600
    assert d > kl.SVD_CAP
    rng = np.random.default_rng(13)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    singular = np.concatenate(([1.0, 1.0 - 1e-9], np.linspace(0.5, 0.01, d - 2)))
    est = kl.spectral_norm(kl.Dense((u * singular) @ v.conj().T))
    assert est.method == "dense-gram"
    assert abs(est.value - 1.0) <= 1e-12

    series = kl.power_norms(kl.build_tz_block(d // 2), 4)
    assert series.methods == ("dense-gram",) * 4
    n = series.k.astype(float)
    assert np.all(series.values < n + np.sqrt(n * n + 1.0))

    s = rng.uniform(-0.9, 0.9, d)
    normal = kl.Dense((u * s) @ u.conj().T)
    expected = 1.0 / float(np.min(np.abs(1.5 - s)))
    assert abs(resolvent_norm(normal, 1.5) - expected) <= 1e-10


def test_matrix_norm_above_the_svd_cap_is_the_gram_eigensolve():
    # sqrt(lambda_max(A* A)) agrees with the SVD to about d*eps*sigma_1.
    def check(mat):
        d = mat.shape[0]
        assert d > kl.SVD_CAP
        est = _matrix_norm(mat)
        sigma = np.linalg.svd(mat, compute_uv=False)[0]
        assert (est.method, est.residual, est.iterations) == ("dense-gram", 0.0, 0)
        assert abs(est.value - sigma) <= 4 * d * np.finfo(float).eps * sigma

    for n in (1, 16, 32):
        check(kl.tz_block_power(512, n))
    d = 600
    rng = np.random.default_rng(14)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    singular = np.concatenate(([2.0, 2.0 - 1e-13, 2.0 - 1e-12], np.linspace(1.9, 0.0, d - 3)))
    check((u * singular) @ v.conj().T)
    # Scattered zero columns, zero rows, or both, real and complex.
    real = rng.standard_normal((d, d))
    cols, rows = rng.choice(d, 40, replace=False), rng.choice(d, 40, replace=False)
    for mat in (real, real + 1j * rng.standard_normal((d, d))):
        for zero_cols, zero_rows in ((cols, []), ([], rows), (cols, rows)):
            holed = mat.copy()
            holed[:, zero_cols] = 0.0
            holed[zero_rows] = 0.0
            check(holed)
    zero = _matrix_norm(np.zeros((d, d)))
    assert zero.value == 0.0 and not np.signbit(zero.value)
    assert zero.method == "dense-gram"


def test_matrix_norm_is_the_gram_eigensolve_at_every_size():
    # One route for every explicit matrix: within 4 d eps sigma_1 of the SVD.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(15)

    def check(mat):
        d = mat.shape[0]
        est = _matrix_norm(mat)
        sigma = np.linalg.svd(mat, compute_uv=False)[0]
        assert (est.method, est.residual, est.iterations) == ("dense-gram", 0.0, 0)
        assert abs(est.value - sigma) <= 4 * d * eps * sigma

    for d in (1, 2, 8, 32, 128, 512, 600):
        for dtype in (float, complex):
            def draw():
                mat = rng.standard_normal((d, d))
                return mat + 1j * rng.standard_normal((d, d)) if dtype is complex else mat

            mat = draw()
            check(mat)
            check(np.outer(mat[:, 0], mat[0].conj()))  # rank one
            if d >= 8:
                (u, _), (v, _) = np.linalg.qr(draw()), np.linalg.qr(draw())
                top = np.concatenate(([2.0, 2.0 - 1e-13, 2.0 - 1e-12],
                                      np.linspace(1.9, 0.0, d - 3)))
                check((u * top) @ v.conj().T)
            est = _matrix_norm(np.zeros((d, d), dtype=dtype))
            assert est.value == 0.0 and not np.signbit(est.value)
            assert est.method == "dense-gram"


def test_matrix_norm_rescales_a_gram_matrix_out_of_range():
    # Near 1e160 the Gram matrix overflows, near 1e-160 its squares are
    # subnormal, near 1e-170 they vanish: each such matrix is scaled by a
    # power of two before its Gram matrix is formed.
    d = 600
    eps = np.finfo(float).eps
    rng = np.random.default_rng(16)
    real = rng.standard_normal((d, d))
    for mat in (real, real + 1j * rng.standard_normal((d, d))):
        for scale in (1e160, 1e-160, 1e-170):
            sigma = np.linalg.svd(scale * mat, compute_uv=False)[0]
            est = _matrix_norm(scale * mat)
            assert est.method == "dense-gram"
            assert abs(est.value - sigma) <= 4 * d * eps * sigma
    assert _matrix_norm(np.full((2, 2), 1e308)).value == np.inf  # above the float range
    for bad in (np.inf, -np.inf, np.nan):
        holed = real.copy()
        holed[3, 5] = bad
        with pytest.raises(kl.ConvergenceError, match="non-finite"):
            _matrix_norm(holed)


def test_no_norm_of_an_explicit_matrix_takes_the_svd(monkeypatch):
    # The dense norm of every explicit matrix is the Gram eigensolve: the
    # SVD is left to sigma_min, and none runs for a spectral norm.
    op = random_dense(12, 17)
    mat = op.matrix
    lams = np.exp(2j * np.pi * np.arange(4) / 4)
    sigma = np.linalg.svd(mat, compute_uv=False)[0]
    powers = [np.linalg.svd(np.linalg.matrix_power(mat, k), compute_uv=False)[0]
              for k in range(1, 6)]

    def refuse(*args, **kwargs):
        raise AssertionError("svd ran")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert abs(kl.spectral_norm(op).value - sigma) <= 1e-13 * sigma
    assert kl.spectral_norm(kl.build_TN(8, 0.45)).method == "power-iteration"  # cross-checked
    np.testing.assert_allclose(kl.power_norms(op, 5).values, powers, rtol=1e-13)
    norm1, norm2 = _rotated_mean_norms(op, 6, lams, True)
    sup1, sup2, _ = rotated_mean_tables(op, 6, lams, True)
    assert (sup1, sup2) == (norm1.max(), norm2.max())


def test_gram_eigensolve_drops_the_zero_rows_and_columns(monkeypatch):
    # T^n of the tz block has 2n - 1 zero columns, so A* A has as many
    # zero rows and columns; only the rest reaches the eigensolve.
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda gram: shapes.append(gram.shape)
                        or eigvalsh(gram))
    for n in (1, 16):
        _matrix_norm(kl.tz_block_power(512, n))
    assert shapes == [(1023, 1023), (993, 993)]


def test_public_signatures_carry_no_cap_knob():
    # Norm and size policy is fixed by SVD_CAP and DENSE_CAP, not per call.
    for name in kl.__all__:
        obj = getattr(kl, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        params = inspect.signature(obj).parameters
        assert not {"svd_cap", "cap"} & set(params), name


# --- power norms ---


def test_power_norms_identity():
    series = kl.power_norms(kl.Dense(np.eye(3)), 5)
    np.testing.assert_allclose(series.values, np.ones(5))


def test_power_norms_tn_top_power():
    series = kl.power_norms(kl.build_TN(16, 0.45), 31)
    assert series.methods[-1] == "closed-form"
    assert abs(series.values[-1] - 16**0.9) <= 1e-12 * 16**0.9


def test_power_norms_closed_form_vs_svd_oracle():
    op = kl.build_TN(8, 0.3)
    mat = kl.materialize(op)
    series = kl.power_norms(op, 15)
    power = np.eye(16, dtype=complex)
    for k in range(1, 16):
        power = power @ mat
        sigma = np.linalg.svd(power, compute_uv=False)[0]
        assert abs(series.values[k - 1] - sigma) <= 1e-8 * max(sigma, 1e-300)


def test_power_norms_nilpotent_beyond_dimension():
    series = kl.power_norms(kl.build_TN(2, 0.25), 8)
    assert np.all(series.values[4:] == 0.0)
    assert series.values[3] == 0.0  # dimension 4: T^4 = 0


def test_dense_power_norms_stop_at_the_first_zero_power(monkeypatch):
    # tzblock 4 is a dense 8 x 8 block with T^5 = 0: T^1..T^4 are normed,
    # and the tail is exactly 0.0 without a norm.
    op = kl.build_tz_block(4)
    normed = []

    def counting(mat):
        normed.append(mat.shape)
        return _matrix_norm(mat)

    monkeypatch.setattr(kreisslab.operators, "_matrix_norm", counting)
    series = kl.power_norms(op, 20)
    assert len(normed) == 4
    mat = kl.materialize(op).real
    power = mat
    want = []
    for k in range(1, 21):
        want.append(_matrix_norm(power).value)
        power = power @ mat
    np.testing.assert_array_equal(series.values, want)
    assert np.all(series.values[4:] == 0.0) and np.all(series.values[:4] > 0.0)
    assert series.methods == ("dense-gram",) * 20


def test_power_norms_direct_sum_is_summand_max():
    a = kl.build_TN(3, 0.3)
    b = kl.build_TN(5, 0.3)
    both = kl.power_norms(kl.DirectSum((a, b)), 9)
    sa = kl.power_norms(a, 9)
    sb = kl.power_norms(b, 9)
    np.testing.assert_array_equal(both.values, np.maximum(sa.values, sb.values))


def test_power_norms_submultiplicative():
    for op in (kl.build_TN(6, 0.4), kl.build_ergces(6), random_dense(6, 5, real=True)):
        series = kl.power_norms(op, 12)
        for k in (1, 2, 3, 5):
            for m in (1, 2, 4, 7):
                assert series.values[k + m - 1] <= (
                    series.values[k - 1] * series.values[m - 1] * (1 + 1e-8)
                )


def test_power_norms_validates_kmax():
    with pytest.raises(kl.ValidationError):
        kl.power_norms(kl.Dense(np.eye(2)), 0)


# --- resolvent ---


def test_resolvent_zero_operator():
    x = np.array([2.0, 4.0])
    np.testing.assert_allclose(kl.resolvent_apply(kl.Dense(np.zeros((2, 2))), 2.0, x), x / 2)


def test_resolvent_identity():
    x = np.array([1.0, -1.0, 2.0])
    np.testing.assert_allclose(kl.resolvent_apply(kl.Dense(np.eye(3)), 2.0, x), x)


def test_resolvent_shift_vs_dense_lu_oracle():
    op = kl.build_TN(4, 0.25)
    lam = 1.5
    x = e(0, 8)
    got = kl.resolvent_apply(op, lam, x)
    oracle = np.linalg.solve(lam * np.eye(8) - kl.materialize(op), x.astype(complex))
    assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(x)


def test_resolvent_structured_variants_vs_dense():
    rng = np.random.default_rng(2)
    ops = [
        kl.build_bermbmp_shift(0.3, "backward", 6),
        kl.DirectSum((kl.build_TN(2, 0.25), kl.build_TN(3, 0.3))),
        kl.RotatedScale(np.exp(0.4j), kl.build_TN(3, 0.3)),
    ]
    for op in ops:
        d = kl.dimension(op)
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lam = 1.25 + 0.3j
        got = kl.resolvent_apply(op, lam, x)
        oracle = np.linalg.solve(lam * np.eye(d) - kl.materialize(op), x)
        assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(x)


def test_resolvent_requires_point_outside_disc():
    with pytest.raises(kl.ValidationError):
        kl.resolvent_apply(kl.Dense(np.eye(2)), 0.5, np.ones(2))


def test_resolvent_singular_point():
    with pytest.raises(kl.SingularError):
        kl.resolvent_apply(kl.Dense(np.diag([2.0, 3.0])), 2.0, np.ones(2))


# --- type validation ---


def test_weight_sequence_provenance_anchors():
    with pytest.raises(kl.ValidationError):
        kl.WeightSequence(np.array([1.0, 2.0, 3.0, 4.0]), eta=0.25, n=2)


def test_weight_sequence_requires_positive():
    with pytest.raises(kl.ValidationError):
        kl.WeightSequence(np.array([1.0, 0.0]))


def test_rotated_scale_requires_unimodular():
    with pytest.raises(kl.ValidationError):
        kl.RotatedScale(1.1, kl.Dense(np.eye(2)))


def test_shift_requires_positive_ratios():
    with pytest.raises(kl.ValidationError):
        kl.WeightedShift("forward", np.array([1.0, -2.0]))
    with pytest.raises(kl.ValidationError):
        kl.WeightedShift("sideways", np.array([1.0]))


def test_norm_estimate_non_negative():
    with pytest.raises(kl.ValidationError):
        kl.NormEstimate(-1.0, "closed-form", 0.0, 0)


def test_operator_specs_are_immutable():
    op = kl.build_TN(2, 0.25)
    with pytest.raises(ValueError):
        op.ratios[0] = 5.0


# --- the block walk ---

MU, NU = np.exp(0.9j), np.exp(-0.4j)


def shift_matrix(leaf):
    d = leaf.ratios.size + 1
    mat = np.zeros((d, d))
    for j, r in enumerate(leaf.ratios):
        if leaf.direction == "forward":
            mat[j + 1, j] = r
        else:
            mat[j, j + 1] = r
    return mat


def nested_spec():
    """mu * (nu * T_3 (+) ergces (+) (backward shift)), and its leaves with their scalars."""
    tn = kl.build_TN(3, 0.45)
    erg = kl.build_ergces(3)
    berm = kl.build_bermbmp_shift(0.3, "backward", 4)
    op = kl.RotatedScale(MU, kl.DirectSum(
        (kl.RotatedScale(NU, tn), erg, kl.DirectSum((berm,)))
    ))
    leaves = [(MU * NU, tn, shift_matrix(tn)), (MU, erg, erg.matrix), (MU, berm, shift_matrix(berm))]
    return op, leaves


def block_diagonal(mats):
    d = sum(m.shape[0] for m in mats)
    out = np.zeros((d, d), dtype=complex)
    offset = 0
    for m in mats:
        out[offset:offset + m.shape[0], offset:offset + m.shape[0]] = m
        offset += m.shape[0]
    return out


def test_blocks_walk_nested_spec():
    op, leaves = nested_spec()
    got = kl.blocks(op)
    assert [(start, stop) for start, stop, _, _ in got] == [(0, 6), (6, 10), (10, 14)]
    for (_, _, scalar, leaf), (want, want_leaf, _) in zip(got, leaves):
        assert leaf is want_leaf
        assert abs(scalar - want) <= 1e-15
    assert got[1][2] == MU  # a single rotation is carried exactly
    shift = kl.build_TN(3, 0.3)
    ((start, stop, scalar, leaf),) = kl.blocks(shift)
    assert (start, stop, leaf) == (0, 6, shift)
    assert type(scalar) is float and scalar == 1.0


def test_block_kernels_match_the_block_diagonal_oracle():
    op, leaves = nested_spec()
    oracle = block_diagonal([scalar * mat for scalar, _, mat in leaves])
    d = oracle.shape[0]
    rng = np.random.default_rng(21)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    np.testing.assert_allclose(kl.apply(op, x), oracle @ x, rtol=0, atol=1e-13)

    lam = 1.3 + 0.4j
    system = lam * np.eye(d) - oracle
    got = kl.resolvent_apply(op, lam, x)
    assert np.linalg.norm(got - np.linalg.solve(system, x)) <= 1e-10 * np.linalg.norm(x)
    smin = np.linalg.svd(system, compute_uv=False)[-1]
    assert abs(resolvent_norm(op, lam) - 1.0 / smin) <= 1e-10 / smin

    series = kl.power_norms(op, 8)
    per_block = np.array([
        [np.linalg.svd(np.linalg.matrix_power(mat, k), compute_uv=False)[0] for k in range(1, 9)]
        for _, _, mat in leaves
    ])
    np.testing.assert_allclose(series.values, per_block.max(axis=0), rtol=1e-12)
    whole = [np.linalg.svd(np.linalg.matrix_power(oracle, k), compute_uv=False)[0]
             for k in range(1, 9)]
    np.testing.assert_allclose(series.values, whole, rtol=1e-10)
    # each k is tagged by the block attaining the max: the shift T_3 at k = 1, 2, 5
    winners = np.argmax(per_block, axis=0)
    assert list(winners) == [0, 0, 1, 1, 0, 1, 1, 1]
    assert series.methods == tuple("dense-gram" if w == 1 else "closed-form" for w in winners)

    lams = np.exp(2j * np.pi * np.arange(4) / 4)
    norm1, norm2 = _rotated_mean_norms(op, 6, lams, True)
    for li, z in enumerate(lams):
        power = total = triangular = np.eye(d, dtype=complex)
        for n in range(1, 7):
            power = power @ (z * oracle)
            total = total + power
            triangular = triangular + total
            assert abs(norm1[li, n] - np.linalg.norm(total, 2) / (n + 1)) <= 1e-12
            want2 = 2.0 * np.linalg.norm(triangular, 2) / ((n + 1) * (n + 2))
            assert abs(norm2[li, n] - want2) <= 1e-12

    radius = np.max(np.abs(np.linalg.eigvals(oracle)))
    assert abs(certify_spectral_radius(op) - radius) <= 1e-12


def test_is_shift_like_reads_every_block():
    op, _ = nested_spec()
    assert not kl.is_shift_like(op)
    shifts = kl.RotatedScale(MU, kl.DirectSum(
        (kl.RotatedScale(NU, kl.build_TN(3, 0.3)), kl.DirectSum((kl.build_TN(2, 0.3),)))
    ))
    assert kl.is_shift_like(shifts)
    assert not kl.is_shift_like(kl.DirectSum((kl.build_TN(2, 0.3), kl.Dense(np.eye(1)))))
