import math

import numpy as np
import pytest

import kreisslab as kl
import kreisslab.cesaro
import kreisslab.kreiss
from kreisslab.cesaro import (_EPS, _angle_grid, _beaten, _bounds_beaten, _dense_norm, _frobenius,
                              _rotated_mean_norms, _schatten4)
from kreisslab.kreiss import (_chain_reach, _leaf_inverse, _plain_beaten, _strong_term,
                              certify_spectral_radius, default_radii)


def zero_op(d=4):
    return kl.Dense(np.zeros((d, d)))


def identity_op(d=4):
    return kl.Dense(np.eye(d))


# --- grids ---


def test_annulus_grid_validation():
    with pytest.raises(kl.ValidationError):
        kl.AnnulusGrid((1.0,), 4)
    with pytest.raises(kl.ValidationError):
        kl.AnnulusGrid((1.5,), 0)


def test_default_radii_cluster_toward_one():
    radii = default_radii()
    assert radii[0] == 1.5
    assert min(radii) == 1.0 + 2.0**-12


def test_grid_refine_is_superset():
    grid = kl.AnnulusGrid.default(8)
    fine = grid.refine()
    assert set(grid.radii) <= set(fine.radii)
    assert fine.angle_count == 16


# --- resolvent constant ---


def test_kreiss_zero_operator():
    report = kl.kreiss_constant(zero_op(), kl.AnnulusGrid.default())
    # resolvent of 0 is lam^-1 I, so each term is (r-1)/r, peaking at the
    # largest radius and approaching 1 as radii grow
    assert abs(report.kreiss_C - 0.5 / 1.5) <= 1e-12
    wide = kl.kreiss_constant(zero_op(), kl.AnnulusGrid((101.0,), 1))
    assert report.kreiss_C < wide.kreiss_C < 1.0


def test_kreiss_identity_operator():
    report = kl.kreiss_constant(identity_op(), kl.AnnulusGrid.default(8))
    assert abs(report.kreiss_C - 1.0) <= 1e-10


def test_kreiss_tn_grid_stability():
    op = kl.build_TN(16, 0.45)
    grid = kl.AnnulusGrid.default(1)
    base = kl.kreiss_constant(op, grid).kreiss_C
    fine = kl.kreiss_constant(op, grid.refine()).kreiss_C
    assert base > 0
    assert abs(fine - base) <= 0.05 * base


def test_kreiss_grid_monotone_under_refinement():
    op = kl.build_ergces(8)
    grid = kl.AnnulusGrid(default_radii(6), 8)
    base = kl.kreiss_constant(op, grid).kreiss_C
    fine = kl.kreiss_constant(op, grid.refine()).kreiss_C
    assert fine >= base


def test_kreiss_rotation_invariance_matched_grids():
    op = kl.build_TN(6, 0.3)
    rotated = kl.Dense(1j * kl.materialize(op))
    plain = kl.Dense(kl.materialize(op))
    grid = kl.AnnulusGrid(default_radii(6), 8)  # angle set closed under *i
    a = kl.kreiss_constant(plain, grid).kreiss_C
    b = kl.kreiss_constant(rotated, grid).kreiss_C
    assert abs(a - b) <= 1e-9 * a


def test_kreiss_rejects_expansive_operator():
    with pytest.raises(kl.ValidationError):
        kl.kreiss_constant(kl.Dense(np.diag([2.0, 0.5])), kl.AnnulusGrid.default(1))


def test_resolvent_norm_blockwise_vs_dense():
    op = kl.DirectSum((kl.build_TN(2, 0.25), kl.build_TN(4, 0.3)))
    lam = 1.25 + 0.25j
    direct = kl.resolvent_norm(op, lam)
    dense = 1.0 / np.linalg.svd(
        lam * np.eye(12) - kl.materialize(op), compute_uv=False
    )[-1]
    assert abs(direct - dense) <= 1e-9 * dense


def test_resolvent_norm_large_dimension_solve_path():
    # above the SVD cap the norm comes from solve-driven power iteration
    op = kl.build_TN(300, 0.45)  # dimension 600 > 512
    lam = 1.25
    got = kl.resolvent_norm(op, lam)
    small = kl.build_TN(300, 0.45)
    oracle = 1.0 / np.linalg.svd(
        lam * np.eye(600) - kl.materialize(small), compute_uv=False
    )[-1]
    assert abs(got - oracle) <= 1e-6 * oracle


def test_resolvent_stall_is_an_error_not_a_skipped_point(monkeypatch):
    # A stalled estimate above the SVD cap must not be dropped as if the
    # point were singular: that would quietly lower the supremum.
    monkeypatch.setattr(kl.kreiss, "_power_iteration",
                        lambda *args, **kwargs: (1.0, 0.5, 20000, False))
    op = kl.build_TN(300, 0.45)  # dimension 600 > 512
    reports = []
    with pytest.raises(kl.ConvergenceError):
        reports.append(kl.kreiss_constant(op, kl.AnnulusGrid.default(1)))
    assert reports == []


# --- mean-based constants ---


def test_uniform_constant_zero_and_identity():
    assert abs(kl.uniform_kreiss_constant(zero_op(), 16).ukb_C - 1.0) <= 1e-12
    assert abs(kl.uniform_kreiss_constant(identity_op(), 16).ukb_C - 1.0) <= 1e-12


def test_kb2_constant_zero_operator():
    report = kl.kb2_constant(zero_op(), 16)
    assert abs(report.kb2_sum_C - 1.0) <= 1e-12  # only the j = 0 term: N/N^2 at N = 1


def test_kb2_constant_identity():
    # triangular sum of ones: N(N+1)/2, so N^-2 scaling gives (N+1)/(2N) <= 1
    report = kl.kb2_constant(identity_op(), 16)
    assert abs(report.kb2_sum_C - 1.0) <= 1e-12
    assert abs(report.kb2_C - 1.0) <= 1e-12


def test_kb2_constant_stable_under_longer_sweep():
    op = kl.build_TN(16, 0.45)
    a = kl.kb2_constant(op, 256).kb2_sum_C
    b = kl.kb2_constant(op, 512).kb2_sum_C
    assert b >= a  # sup over a superset
    assert abs(b - a) <= 0.05 * a


def test_kb2_constant_reports_the_uniform_constant_of_its_pass():
    op = kl.build_ergces(8)
    assert kl.kb2_constant(op, 32, 16).ukb_C == kl.uniform_kreiss_constant(op, 32, 16).ukb_C


def test_ukb_angle_grid_monotone():
    op = kl.build_ergces(8)
    a = kl.uniform_kreiss_constant(op, 32, angles=8).ukb_C
    b = kl.uniform_kreiss_constant(op, 32, angles=16).ukb_C  # superset of angles
    assert b >= a


# --- strong constant ---


def test_strong_zero_operator():
    report = kl.strong_kreiss_constant(zero_op(), kl.AnnulusGrid.default(1), k_max=8)
    assert abs(report.strong_C - 0.5 / 1.5) <= 1e-12


def test_strong_identity_is_one():
    report = kl.strong_kreiss_constant(identity_op(), kl.AnnulusGrid.default(4), k_max=8)
    assert abs(report.strong_C - 1.0) <= 1e-9


def test_strong_dominates_plain_constant():
    grid = kl.AnnulusGrid(default_radii(8), 4)
    for op in (kl.build_TN(8, 0.3), kl.build_ergces(8)):
        plain = kl.kreiss_constant(op, grid).kreiss_C
        strong = kl.strong_kreiss_constant(op, grid, k_max=6).strong_C
        assert strong >= plain * (1 - 1e-12)


def test_strong_bermbmp_grid_stability():
    op = kl.build_bermbmp_shift(0.3, "forward", 32)
    grid = kl.AnnulusGrid(default_radii(8), 1)
    base = kl.strong_kreiss_constant(op, grid, k_max=8).strong_C
    fine = kl.strong_kreiss_constant(op, grid.refine(), k_max=8).strong_C
    assert math.isfinite(base)
    assert abs(fine - base) <= 0.05 * base


# --- bound-and-prune sups ---


def contractive_dense(d, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return kl.Dense(0.9 * mat / np.max(np.abs(np.linalg.eigvals(mat))))


def exhaustive_mean_sups(op, n_max, angles):
    """(ukb_C, kb2_C, kb2_sum_C) as the maxima of the fully normed tables."""
    _, lams = _angle_grid(op, angles)
    norm1, norm2 = _rotated_mean_norms(op, n_max, lams, True)
    n = np.arange(n_max + 1, dtype=float)
    return (float(norm1.max()), float(norm2.max()),
            float((norm2 * ((n + 2.0) / (2.0 * (n + 1.0)))).max()))


def exhaustive_strong_sup(op, grid, k_max):
    """(strong_C, skipped) of the strong sweep with every (point, block, k) cell normed."""
    _, angles = _angle_grid(op, grid.angle_count)
    leaves = [(scalar, kl.materialize(leaf)) for _, _, scalar, leaf in kl.blocks(op)]
    best = 0.0
    skipped = []
    for r in grid.radii:
        for mu in angles:
            try:
                resolvents = [np.linalg.inv((r * mu if scalar == 1.0 else r * mu / scalar)
                                            * np.eye(mat.shape[0]) - mat)
                              for scalar, mat in leaves]
            except np.linalg.LinAlgError:
                skipped.append((float(r), complex(mu)))
                continue
            for resolvent in resolvents:
                power = resolvent
                for k in range(1, k_max + 1):
                    if k > 1:
                        power = power @ resolvent
                    term = k * math.log(r - 1.0) + math.log(_dense_norm(power))
                    best = max(best, math.exp(min(term, 700.0)))
    return best, tuple(skipped)


def exhaustive_plain_sweep(op, grid):
    """(kreiss_C, kreiss_C_radius, skipped) with every grid point normed by resolvent_norm."""
    _, angles = _angle_grid(op, grid.angle_count)
    best, radius, skipped = 0.0, None, []
    for r in grid.radii:
        for mu in angles:
            try:
                point = max(best, (r - 1.0) * kreisslab.kreiss.resolvent_norm(op, r * mu))
            except kl.SingularError:
                skipped.append((float(r), complex(mu)))
                continue
            if point > best:
                radius = float(r)
            best = point
    return best, radius, tuple(skipped)


#: Spectral radius 1/2 behind an off-diagonal of 3: resolvent norms far above 1/(|lam|-1).
NONNORMAL = kl.Dense(np.diag(np.full(8, 0.5)) + np.diag(np.full(7, 3.0), 1))

SWEEP_OPS = {
    "tzblock-8": kl.build_tz_block(8),
    "ergces-12": kl.build_ergces(12),
    "rotated-dense-plus-shift": kl.RotatedScale(np.exp(0.3j), kl.DirectSum(
        (kl.RotatedScale(np.exp(1.1j), contractive_dense(5, 4)), kl.build_TN(3, 0.3)))),
    "zero": zero_op(),
    "identity": identity_op(),  # every lam = 1 mean cell ties at 1
}


@pytest.mark.parametrize("op", SWEEP_OPS.values(), ids=SWEEP_OPS.keys())
def test_pruned_sups_equal_the_exhaustive_maxima(op):
    report = kl.kb2_constant(op, 32, 16)
    assert (report.ukb_C, report.kb2_C, report.kb2_sum_C) == exhaustive_mean_sups(op, 32, 16)
    assert kl.uniform_kreiss_constant(op, 32, 16).ukb_C == report.ukb_C
    grid = kl.AnnulusGrid.default(16)
    assert kl.strong_kreiss_constant(op, grid, 8).strong_C == exhaustive_strong_sup(op, grid, 8)[0]


@pytest.mark.parametrize("op", [*SWEEP_OPS.values(), NONNORMAL],
                         ids=[*SWEEP_OPS.keys(), "nonnormal"])
def test_fused_pass_equals_the_exhaustive_sweeps(op, monkeypatch):
    grid = kl.AnnulusGrid.default(16)
    powers = []

    def counting(mat, beaten):
        powers.append(mat.shape)
        return kreisslab.cesaro._norm_unless_beaten(mat, beaten)

    monkeypatch.setattr(kreisslab.kreiss, "_norm_unless_beaten", counting)
    fused = kl.kreiss_constant(op, grid, 8)
    if op is NONNORMAL:  # the chain cut stops some power chains early
        assert len(powers) < 8 * len(grid.radii) * grid.angle_count
    plain = exhaustive_plain_sweep(op, grid)
    strong = exhaustive_strong_sup(op, grid, 8)
    assert (fused.kreiss_C, fused.kreiss_C_radius, fused.skipped) == plain
    assert (fused.strong_C, fused.strong_skipped) == strong
    alone = kl.kreiss_constant(op, grid)
    assert (alone.kreiss_C, alone.kreiss_C_radius, alone.skipped, alone.strong_C) == (*plain, None)
    assert kl.strong_kreiss_constant(op, grid, 8).strong_C == strong[0]


def test_fused_pass_skips_the_points_the_exhaustive_sweeps_skip(monkeypatch):
    # Two points lose their inverse: the strong sweep skips both, the plain
    # sweep norms them unpruned and skips the one whose SVD fails too.
    op = NONNORMAL
    grid = kl.AnnulusGrid.default(8)
    _, angles = _angle_grid(op, 8)
    radii = grid.radii
    lost = radii[7] * angles[3]
    no_inverse = {radii[1] * angles[5], lost}
    corner = kl.materialize(op)[0, 0]
    inv, norm = np.linalg.inv, kreisslab.kreiss.resolvent_norm
    normed = []

    def failing_inv(a):
        if any(a[0, 0] == lam - corner for lam in no_inverse):
            raise np.linalg.LinAlgError("singular")
        return inv(a)

    def failing_norm(op, lam):
        normed.append(lam)
        if lam == lost:
            raise kl.SingularError("singular")
        return norm(op, lam)

    monkeypatch.setattr(np.linalg, "inv", failing_inv)
    monkeypatch.setattr(kreisslab.kreiss, "resolvent_norm", failing_norm)
    fused = kl.kreiss_constant(op, grid, 8)
    assert no_inverse <= set(normed)
    assert fused.skipped == ((radii[7], complex(angles[3])),)
    assert fused.strong_skipped == ((radii[1], complex(angles[5])), (radii[7], complex(angles[3])))
    assert (fused.kreiss_C, fused.kreiss_C_radius, fused.skipped) == exhaustive_plain_sweep(op, grid)
    assert (fused.strong_C, fused.strong_skipped) == exhaustive_strong_sup(op, grid, 8)
    assert fused.to_dict()["skipped"] == [list(p) for p in fused.skipped + fused.strong_skipped]


def test_pruning_keeps_a_cell_whose_svd_rounds_above_its_frobenius_norm():
    # A nearly rank-one 2 x 2 sum I + T whose SVD comes out at least two
    # ulps above its computed Frobenius norm, behind a 1 x 1 block whose
    # mean sits strictly between the two: without the slack, the larger
    # cell would be pruned by its own rounding.
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        v = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        shift = 1e8 * (u @ v)
        total = np.eye(2, dtype=complex) + shift
        low = np.nextafter(_frobenius(total), np.inf)
        if low < _dense_norm(total):
            break
    else:
        pytest.fail("no seeded sum rounds two ulps above its Frobenius norm")
    op = kl.DirectSum((kl.Dense([[low - 1.0]]), kl.Dense(shift)))
    sup = exhaustive_mean_sups(op, 1, 1)[0]
    assert sup == _dense_norm(total) / 2 > low / 2 > _frobenius(total) / 2
    assert kl.uniform_kreiss_constant(op, 1, 1).ukb_C == sup


def test_frobenius_bound_with_its_slack_covers_the_svd():
    rng = np.random.default_rng(17)
    above = 0
    for d in (1, 2, 5, 16, 32):
        for _ in range(40):
            general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
            v = rng.standard_normal((1, d)) + 1j * rng.standard_normal((1, d))
            for mat in (general, u @ v):  # sigma_1 equals the Frobenius norm for u v^H
                assert not _beaten(_frobenius(mat), _dense_norm(mat))
            above += _dense_norm(u @ v) > _frobenius(u @ v)
    assert above > 0  # some rank-one norms round above their Frobenius norm: the slack is used
    # squares that may have underflowed bound nothing
    assert _frobenius(np.zeros((3, 3))) == _frobenius(np.full((3, 3), 1e-160)) == math.inf


def test_schatten4_bound_with_its_slack_covers_the_svd():
    # The cascade's second bound at every size the catalog sweeps reach
    # (tzblock 64 is 128 x 128), on general, rank-one and nearly rank-one
    # matrices, where sigma_1 nearly equals the Schatten-4 norm.
    rng = np.random.default_rng(23)
    below = 0
    for d in (1, 2, 5, 16, 32, 64, 128):
        for _ in range(40 if d <= 32 else 8):
            general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
            v = rng.standard_normal((1, d)) + 1j * rng.standard_normal((1, d))
            near = u @ v + 1e-7 * general
            for mat in (general, u @ v, near, (u @ v).real):
                norm = _dense_norm(mat)
                assert _dense_norm(mat) <= _schatten4(mat) * (1 + d * d * _EPS) * (1 + 1e-12)
                assert not _bounds_beaten(mat, lambda bound: _beaten(bound, norm))
                below += norm > _schatten4(mat)
    assert below > 0  # some dense norms round above the bare Schatten-4 norm: the slack is used
    assert _schatten4(np.zeros((3, 3))) == _schatten4(np.full((3, 3), 1e-80)) == math.inf


def test_inversion_aware_plain_bound_covers_the_svd_near_the_circle():
    # ergces 20 at r - 1 = 2^-12: cond(lam I - T) up to about 1e5, so the
    # inverse carries the largest rounding of any default grid point.
    op = kl.build_ergces(20)
    mat = kl.materialize(op)
    eye = np.eye(mat.shape[0])
    r = 1.0 + 2.0 ** -12
    _, angles = _angle_grid(op, 64)
    worst = 0.0
    for mu in angles:
        system, resolvent = _leaf_inverse(mat, eye, r * mu)
        value = (r - 1.0) * kl.resolvent_norm(op, r * mu)
        assert not _plain_beaten(system, resolvent, r, value)
        worst = max(worst, mat.shape[0] * _EPS * _frobenius(system) * _frobenius(resolvent))
    assert 1e-12 < worst < 1e-9  # the inversion term matters, yet prunes like a 1e-9 slack


@pytest.mark.parametrize("op", [NONNORMAL, contractive_dense(16, 3), kl.build_tz_block(8),
                                kl.build_ergces(12)],
                         ids=["nonnormal", "dense-16", "tzblock-8", "ergces-12"])
def test_chain_cut_covers_every_later_term(op):
    # Where q = (r-1) ||R||_F <= 1, the cut argues (r-1)^k ||R^k|| <= bound_j
    # for every k > j; in rounding, the computed terms stay within
    # _chain_reach of either cascade bound of power j, at k_max = 16.
    mat = kl.materialize(op)
    d = mat.shape[0]
    k_max = 16
    reach = _chain_reach(k_max, d)
    pairs = 0
    _, angles = _angle_grid(op, 16)
    for r in default_radii():
        log_gap = math.log(r - 1.0)
        for mu in angles:
            _, resolvent = _leaf_inverse(mat, np.eye(d), r * mu)
            if (r - 1.0) * _frobenius(resolvent) > 1.0:
                continue
            powers = [resolvent]
            for _ in range(k_max - 1):
                powers.append(powers[-1] @ resolvent)
            terms = [_strong_term(k, log_gap, _dense_norm(p)) for k, p in enumerate(powers, 1)]
            for j, power in enumerate(powers, 1):
                for bound in (_frobenius(power), _schatten4(power)):
                    bound_j = _strong_term(j, log_gap, bound * (1 + d * d * _EPS)) * reach
                    assert not any(_beaten(bound_j, term) for term in terms[j:])
                    pairs += k_max - j
    assert pairs > 0


def test_pruned_sweeps_of_a_tz_block_norm_few_cells(monkeypatch):
    calls = []
    solves = []

    def counting(mat):
        calls.append(mat.shape)
        return _dense_norm(mat)

    def counting_resolvent(op, lam):
        solves.append(lam)
        return kl.resolvent_norm(op, lam)

    monkeypatch.setattr(kreisslab.cesaro, "_dense_norm", counting)
    monkeypatch.setattr(kreisslab.kreiss, "resolvent_norm", counting_resolvent)
    op = kl.build_tz_block(16)
    report = kl.kb2_constant(op, 128, 64)
    fused = kl.kreiss_constant(op, kl.AnnulusGrid.default(64), 16)
    assert len(calls) <= 560  # 531 of 28,800 cells: 16,512 means and 12,288 resolvent powers
    assert len(solves) <= 80  # 73 sigma_min SVDs of 768 grid points
    # the exhaustive sweep's values
    got = (report.ukb_C, report.kb2_C, report.kb2_sum_C, fused.strong_C, fused.kreiss_C)
    want = (9.612697312887626, 7.618976457286319, 4.009987609098062, 9.693293899356368,
            6.032400028538849)
    np.testing.assert_allclose(got, want, rtol=1e-12)


# --- orbit claims ---


def unit(d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


def test_claim1_zero_operator():
    res = kl.hilbert_claim1(kl.orbit_norms(zero_op(), unit(4), 3), 1.0, 4)
    assert res.passed and res.value == 1.0 and res.bound == 256.0


def test_claims_identity_operator():
    x = unit(4, 1)
    norms = kl.orbit_norms(identity_op(), x, 12)
    assert kl.hilbert_claim1(norms, 1.0, 10).value == pytest.approx(10.0)
    res2 = kl.hilbert_claim2(norms, 1.0, 10, 4)
    assert res2.passed and res2.value == pytest.approx(4.0)
    res3 = kl.hilbert_claim3(norms, 1.0, 9)
    assert res3.passed and res3.value == pytest.approx(9.0)
    res4 = kl.hilbert_claim4(norms, 1.0, 12, 2, 6)
    assert res4.passed and res4.value == pytest.approx(4.0)


def test_claim2_shift_basis_vector():
    op = kl.build_TN(8, 0.3)
    C = kl.kb2_constant(op, 64).kb2_sum_C
    x = np.zeros(16, dtype=complex)
    x[0] = 1.0
    res = kl.hilbert_claim2(kl.orbit_norms(op, x, 15), C, 15, 8)
    assert res.status == "pass"


def test_claims_vacuous_on_annihilated_orbit():
    op = kl.build_TN(4, 0.3)  # dimension 8, nilpotent at 8
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    res = kl.hilbert_claim3(kl.orbit_norms(op, x, 8), 1.0, 8)
    assert res.status == "vacuous-pass"
    assert res.passed is True and res.value is None


def test_claims_validation():
    with pytest.raises(kl.ValidationError):
        kl.hilbert_claim1(kl.orbit_norms(zero_op(), 2 * unit(4), 3), 1.0, 4)  # not unit norm
    with pytest.raises(kl.ValidationError):
        kl.hilbert_claim2(kl.orbit_norms(zero_op(), unit(4), 4), 1.0, 4, 4)  # M must be < N
    with pytest.raises(kl.ValidationError):
        kl.hilbert_claim4(kl.orbit_norms(zero_op(), unit(4), 4), 1.0, 4, 3, 2)
    with pytest.raises(kl.ValidationError, match="orbit norms"):
        kl.hilbert_claim3(kl.orbit_norms(zero_op(), unit(4), 7), 1.0, 8)  # needs ||T^8 x||
    with pytest.raises(kl.ValidationError, match="orbit norms"):
        kl.hilbert_claim1(kl.orbit_norms(zero_op(), unit(4), 2), 1.0, 4)  # needs ||T^3 x||


def test_orbit_norms_stop_at_an_exactly_zero_vector(monkeypatch):
    # A backward shift of dimension 8 is nilpotent: T^8 x = 0, so the
    # orbit is applied 8 times, not 20, and its tail equals stepping on.
    op = kl.build_bermbmp_shift(0.3, "backward", 8)
    x = unit(8, 3)
    stepped = [float(np.linalg.norm(x))]
    v = x
    for _ in range(20):
        v = kl.apply(op, v)
        stepped.append(float(np.linalg.norm(v)))
    calls = []
    original = kl.kreiss.apply

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(kl.kreiss, "apply", counting)
    norms = kl.orbit_norms(op, x, 20)
    assert len(calls) == 8
    assert norms.tolist() == stepped
    assert norms[8] == 0.0 < norms[7]


def test_orbit_norms_of_a_block_are_its_columns_orbits():
    # Probes stepped as one block keep each probe's own norms bit for bit.
    for op in (kl.build_TN(8, 0.45), kl.build_bermbmp_shift(0.3, "backward", 12),
               kl.RotatedScale(np.exp(0.3j), kl.build_bermbmp_shift(0.45, "forward", 12))):
        d = kl.dimension(op)
        probes = [unit(d, seed) for seed in range(5)]
        norms = kl.orbit_norms(op, np.array(probes).T, 20)
        assert norms.shape == (5, 21)
        for row, x in zip(norms, probes):
            assert row.tolist() == kl.orbit_norms(op, x, 20).tolist()
    assert kl.orbit_norms(kl.build_TN(8, 0.45), np.zeros((16, 0)), 4).shape == (0, 5)


def test_run_hilbert_claims_steps_all_probes_as_one_block(monkeypatch):
    op = kl.build_bermbmp_shift(0.45, "forward", 16)
    C = kl.kb2_constant(op, 32).kb2_sum_C
    calls = []
    original = kl.kreiss.orbit_norms

    def counting(*args):
        calls.append((np.shape(args[1]), args[2]))
        return original(*args)

    monkeypatch.setattr(kl.kreiss, "orbit_norms", counting)
    results = kl.run_hilbert_claims(op, C, n_probes=3, n_top=16, seed=5)
    assert calls == [((kl.dimension(op), 3), 16)]
    # The same records as each instance computing its own orbit up to its N.
    expected = []
    for i in range(3):
        rng = np.random.default_rng([5, i])
        x = rng.standard_normal(kl.dimension(op)) + 1j * rng.standard_normal(kl.dimension(op))
        x /= np.linalg.norm(x)
        tag = {"x_seed": i}
        ladder = kl.dyadic_ladder(16)
        for N in ladder:
            expected.append(kl.hilbert_claim1(kl.orbit_norms(op, x, N - 1), C, N, tag))
            expected.append(kl.hilbert_claim3(kl.orbit_norms(op, x, N), C, N, tag))
            expected += [kl.hilbert_claim2(kl.orbit_norms(op, x, N), C, N, M, tag)
                         for M in ladder if M < N]
            expected += [kl.hilbert_claim4(kl.orbit_norms(op, x, N), C, N, M1, M2, tag)
                         for M1 in ladder for M2 in ladder if M1 < M2 < N]
    assert [r.to_dict() for r in results] == [r.to_dict() for r in expected]


def test_claim_driver_zero_failures():
    for op in (kl.build_TN(16, 0.45), kl.build_bermbmp_shift(0.45, "forward", 64)):
        C = kl.kb2_constant(op, 256).kb2_sum_C
        results = kl.run_hilbert_claims(op, C, n_probes=8, n_top=64)
        statuses = {r.status for r in results}
        assert not any(r.passed is False for r in results)
        assert "vacuous-pass" in statuses  # nilpotent truncations hit these


# --- windowed double sum ---


def test_tn_claim1_bound_seeded():
    c1 = kl.uniform_kreiss_constant(kl.build_bermbmp_shift(0.45, "forward", 48), 128).ukb_C
    rng = np.random.default_rng(5)
    gamma = np.abs(rng.standard_normal(48))
    gamma /= np.linalg.norm(gamma)
    delta = np.abs(rng.standard_normal(48))
    delta /= np.linalg.norm(delta)
    for n in (1, 4, 16, 64):
        res = kl.tn_claim1_bound(0.45, n, gamma, delta, c1)
        assert res.passed, (n, res.value, res.bound)


def test_tn_claim1_validation():
    bad = np.ones(4)
    bad[0] = -1.0
    with pytest.raises(kl.ValidationError):
        kl.tn_claim1_bound(0.3, 2, bad / np.linalg.norm(bad), np.ones(4) / 2.0, 1.0)


# --- power-sum bound ---


def test_tn_claim2_single_term():
    for eta in (0.05, 0.45):
        res = kl.tn_claim2_bound(eta, 1)
        assert res.passed and res.value == 1.0 and res.bound == pytest.approx(1 / (1 - 2 * eta))


def test_tn_claim2_fsum_oracle():
    eta, m = 0.45, 1000
    res = kl.tn_claim2_bound(eta, m)
    oracle = math.fsum(j ** (-2 * eta) for j in range(1, m + 1))
    assert res.value == pytest.approx(oracle, rel=1e-13)
    assert res.passed
    assert res.bound == pytest.approx(1000**0.1 / (1 - 0.9))


@pytest.mark.parametrize("eta", [0.05, 0.15, 0.25, 0.35, 0.45])
def test_tn_claim2_large_sweep(eta):
    assert kl.tn_claim2_bound(eta, 10**6).passed


# --- square-root growth bound ---


def test_lemma_constant_sequence():
    res = kl.lemma21_bound(np.ones(2001))
    assert res.status == "pass"
    assert res.params["B"] <= 1.0


def test_lemma_sqrt_sequence():
    n = np.arange(0, 10001, dtype=float)
    res = kl.lemma21_bound(np.sqrt(n + 1.0))
    assert res.status == "pass"
    # hypothesis sup is attained at the smallest radius: 1/(1+r)^2 at r=1/2
    assert res.params["B"] == pytest.approx(4.0 / 9.0, rel=1e-3)
    assert res.value <= 1.0


def test_lemma_linear_sequence_diverges():
    res = kl.lemma21_bound(np.arange(0, 10001, dtype=float))
    assert res.status == "hypothesis-diverged"
    assert res.passed is None
    assert res.params["diverged"] is True
    profile = res.params["B_profile"]
    assert profile[-1] > 4 * profile[len(profile) // 2]


def test_lemma_validation():
    with pytest.raises(kl.ValidationError):
        kl.lemma21_bound(np.array([3.0, 2.0, 1.0]))
    with pytest.raises(kl.ValidationError):
        kl.lemma21_bound(np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(kl.ValidationError):
        kl.lemma21_bound(np.ones(10), r_grid=(0.5, 1.5))


# --- spectral radius certification ---


def test_certify_spectral_radius_structures():
    assert certify_spectral_radius(kl.build_TN(4, 0.3)) == 0.0
    assert certify_spectral_radius(kl.build_shields_counterexample(0.15, 0.45, 3)) == 0.0
    assert certify_spectral_radius(kl.build_tz_block(4)) == 0.0
    assert certify_spectral_radius(kl.build_ergces(6)) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    big = kl.Dense(rng.standard_normal((300, 300)))  # beyond the eigenvalue cap
    assert certify_spectral_radius(big) is None
