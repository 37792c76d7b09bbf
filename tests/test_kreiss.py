import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kreisslab as kl
import kreisslab.cesaro
import kreisslab.cli
import kreisslab.kreiss
import kreisslab.reproduce as reproduce
from kreisslab.cesaro import (_EPS, _POOLED_PRODUCT, _SEED_WINDOW, _angle_grid, _beaten,
                              _bounds_beaten, _dense_norm, _frobenius, _gram_strip, _mean_cells,
                              _rotated_mean_norms, _schatten4, _seed_bounds)
from kreisslab.kreiss import _chain_reach, _leaf_inverse, certify_spectral_radius, default_radii
from kreisslab.operators import _compact


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


# --- resolvent constant ---


def test_kreiss_zero_operator():
    report = kl.kreiss_constant(zero_op(), kl.AnnulusGrid.default())
    # resolvent of 0 is lam^-1 I, so each term is (r-1)/r, peaking at the
    # largest radius and approaching 1 as radii grow
    assert abs(report.kreiss_C - 0.5 / 1.5) <= 1e-12
    wide = kl.kreiss_constant(zero_op(), kl.AnnulusGrid((101.0,), 1))
    assert report.kreiss_C < wide.kreiss_C < 1.0
    # Without k_max the strong sweep is the k = 1 term alone: the plain sweep.
    assert (report.strong_C, report.k_max) == (report.kreiss_C, 1)
    with pytest.raises(kl.ValidationError, match="k_max must be at least 1"):
        kl.kreiss_constant(zero_op(), kl.AnnulusGrid.default(), 0)


def test_kreiss_identity_operator():
    report = kl.kreiss_constant(identity_op(), kl.AnnulusGrid.default(8))
    assert abs(report.kreiss_C - 1.0) <= 1e-10


def midpoint_radii(levels):
    """default_radii(levels) with the geometric midpoint of each pair of neighbors inserted."""
    return tuple(1.0 + 2.0 ** (-m / 2) for m in range(2, 2 * levels + 1))


def test_kreiss_tn_grid_stability():
    op = kl.build_TN(16, 0.45)
    grid = kl.AnnulusGrid.default(1)
    assert set(grid.radii) < set(midpoint_radii(12))
    base = kl.kreiss_constant(op, grid).kreiss_C
    fine = kl.kreiss_constant(op, kl.AnnulusGrid(midpoint_radii(12), 2)).kreiss_C
    assert base > 0
    assert abs(fine - base) <= 0.05 * base


def test_kreiss_grid_monotone_under_refinement():
    op = kl.build_ergces(8)
    grid = kl.AnnulusGrid(default_radii(6), 8)
    base = kl.kreiss_constant(op, grid).kreiss_C
    fine = kl.kreiss_constant(op, kl.AnnulusGrid(default_radii(12), 16)).kreiss_C  # a superset
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


def test_resolvent_norm_of_a_large_shift_is_its_svd():
    # Every block, a shift above the SVD cap too, is normed by 1/sigma_min
    # of its materialized system; above DENSE_CAP it cannot be materialized.
    op = kl.build_TN(300, 0.45)  # dimension 600 > 512
    lam = 1.25
    oracle = 1.0 / np.linalg.svd(lam * np.eye(600) - kl.materialize(op), compute_uv=False)[-1]
    assert kl.resolvent_norm(op, lam) == oracle
    with pytest.raises(kl.SizeError):
        kl.resolvent_norm(kl.build_TN(2049, 0.45), lam)


@pytest.mark.parametrize("k_max", [1, 2])
def test_large_shift_sweeps_equal_their_dense_twin(k_max):
    # A shift above the SVD cap once took its resolvent norm from a power
    # iteration that stalled on these radii (ConvergenceError).
    op = kl.build_TN(300, 0.45)  # dimension 600 > 512
    grid = kl.AnnulusGrid((1.0625, 1.03125), 1)
    shift = kl.kreiss_constant(op, grid, k_max)
    dense = kl.kreiss_constant(kl.Dense(kl.materialize(op)), grid, k_max)
    assert (shift.kreiss_C, shift.strong_C) == (dense.kreiss_C, dense.strong_C)
    assert shift.kreiss_C > 0


def test_resolvent_stall_is_an_error_not_a_skipped_point(monkeypatch):
    # An SVD that does not converge is a failed estimate: it must not be
    # dropped as if the point were singular, which would quietly lower the
    # supremum.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    reports = []
    with pytest.raises(kl.ConvergenceError):
        reports.append(kl.kreiss_constant(kl.build_TN(8, 0.45), kl.AnnulusGrid.default(1)))
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
    fine = kl.strong_kreiss_constant(op, kl.AnnulusGrid(midpoint_radii(8), 2), k_max=8).strong_C
    assert math.isfinite(base)
    assert abs(fine - base) <= 0.05 * base


# --- bound-and-prune sups ---


def contractive_dense(d, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return kl.Dense(0.9 * mat / np.max(np.abs(np.linalg.eigvals(mat))))


def full_grid(op, angles):
    """Every point of the uniform N-point grid that a sweep of op stands for, built here.

    lam = 1 alone for a shift-like op.  Otherwise point k <= N/2 is
    exp(2 pi i k / N), point N/2 of an even grid exactly -1, and point
    k > N/2 the exact conjugate of point N - k, for a real op too.
    """
    if kl.is_shift_like(op):
        return np.array([1.0 + 0.0j])
    head = np.exp(2j * np.pi * np.arange(angles // 2 + 1) / angles)
    if angles % 2 == 0:
        head[-1] = -1.0
    return np.concatenate((head, head[1:(angles + 1) // 2][::-1].conj()))


def exhaustive_mean_sups(op, n_max, angles):
    """(ukb_C, kb2_C, kb2_sum_C) as the maxima of the fully normed tables over the full grid."""
    lams = full_grid(op, angles)
    norm1, norm2 = (_rotated_mean_norms(op, n_max, lams, order) for order in (1, 2))
    n = np.arange(n_max + 1, dtype=float)
    return (float(norm1.max()), float(norm2.max()),
            float((norm2 * ((n + 2.0) / (2.0 * (n + 1.0)))).max()))


def exhaustive_inverses(op, grid):
    """(r, mu, resolvents) at each full-grid point in order; resolvents is None where inv fails.

    Each block's resolvent is inv(lam' I - A) with lam' = lam / scalar,
    as the sweeps fold each rotation into lam.
    """
    angles = full_grid(op, grid.angle_count)
    leaves = [(scalar, kl.materialize(leaf)) for _, _, scalar, leaf in kl.blocks(op)]
    for r in grid.radii:
        for mu in angles:
            try:
                resolvents = [np.linalg.inv((r * mu if scalar == 1.0 else r * mu / scalar)
                                            * np.eye(mat.shape[0]) - mat)
                              for scalar, mat in leaves]
            except np.linalg.LinAlgError:
                resolvents = None
            yield r, mu, resolvents


def exhaustive_strong_sup(op, grid, k_max):
    """(strong_C, skipped) of the strong sweep with every (point, block, k) cell normed.

    Each cell is ||Q^k|| for the scaled inverse Q = (r-1) R.
    """
    best = 0.0
    skipped = []
    for r, mu, resolvents in exhaustive_inverses(op, grid):
        if resolvents is None:
            skipped.append((float(r), complex(mu)))
            continue
        for resolvent in resolvents:
            scaled = (r - 1.0) * resolvent
            power = scaled
            for k in range(1, k_max + 1):
                if k > 1:
                    power = power @ scaled
                best = max(best, _dense_norm(power))
    return best, tuple(skipped)


def exhaustive_plain_terms(op, grid):
    """(r, mu, term) at every grid point in order: the max over blocks of ||(r-1) R||, or None."""
    return [(r, mu, None if resolvents is None
             else max(_dense_norm((r - 1.0) * resolvent) for resolvent in resolvents))
            for r, mu, resolvents in exhaustive_inverses(op, grid)]


def exhaustive_plain_sweep(op, grid):
    """(kreiss_C, kreiss_C_radius, skipped) of the exhaustive k = 1 sweep: every point normed."""
    best, radius, skipped = 0.0, None, []
    for r, mu, term in exhaustive_plain_terms(op, grid):
        if term is None:
            skipped.append((float(r), complex(mu)))
            continue
        point = max(best, term)
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
    "unequal-blocks": kl.DirectSum((kl.RotatedScale(np.exp(0.7j), contractive_dense(5, 2)),
                                    kl.build_tz_block(3), kl.build_ergces(6))),
    # T^5 = 0 in the tz block, while the other block never settles.
    "settles-mid-sweep": kl.DirectSum((kl.build_tz_block(4), kl.Dense(0.5 * np.eye(2)))),
    # Shifts: one-point sweeps at lam = 1, whose cells are all nonnegative.
    "bermbmp-16": kl.build_bermbmp_shift(0.45, "forward", 16),
    "shields-4": kl.build_shields_counterexample(0.15, 0.45, 4),
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
    assert (fused.strong_C, fused.skipped) == strong
    alone = kl.kreiss_constant(op, grid)
    assert (alone.kreiss_C, alone.kreiss_C_radius, alone.skipped) == plain
    assert (alone.strong_C, alone.k_max) == (alone.kreiss_C, 1)
    assert kl.strong_kreiss_constant(op, grid, 8).strong_C == strong[0]


#: NONNORMAL turned by a non-real scalar: complex, so every sweep evaluates the whole grid.
COMPLEX_TWIN = kl.Dense(NONNORMAL.matrix * np.exp(0.3j))


def failing_points(monkeypatch, no_inverse, corner):
    """Fail np.linalg.inv at the points no_inverse, told apart by the corner entry lam - corner.

    Returns the corner entries of the systems np.linalg.inv is asked for.
    """
    inv = np.linalg.inv
    inverted = []

    def failing_inv(a):
        inverted.append(a[0, 0])
        if any(a[0, 0] == point - corner for point in no_inverse):
            raise np.linalg.LinAlgError("singular")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", failing_inv)
    return inverted


def test_fused_pass_skips_the_points_the_exhaustive_sweeps_skip(monkeypatch):
    # Two points lose their inverse: both sweeps skip both, each listed once.
    # Angles 3 and 5 of 8 are a conjugate pair, so only a complex operator,
    # which is swept at every angle, can lose them independently.
    op = COMPLEX_TWIN
    grid = kl.AnnulusGrid.default(8)
    _, angles = _angle_grid(op, 8)
    radii = grid.radii
    no_inverse = {radii[1] * angles[5], radii[7] * angles[3]}
    failing_points(monkeypatch, no_inverse, kl.materialize(op)[0, 0])
    fused = kl.kreiss_constant(op, grid, 8)
    assert fused.skipped == ((radii[1], complex(angles[5])), (radii[7], complex(angles[3])))
    assert (fused.kreiss_C, fused.kreiss_C_radius, fused.skipped) == exhaustive_plain_sweep(op, grid)
    assert (fused.strong_C, fused.skipped) == exhaustive_strong_sup(op, grid, 8)
    assert fused.to_dict()["skipped"] == [list(p) for p in fused.skipped]


def test_a_real_operator_skips_a_lost_point_with_its_conjugate(monkeypatch):
    # The half sweep of a real operator evaluates angles 0..4 of 8.  A point
    # lost at angle 3 stands for its conjugate at angle 5, which the sweep
    # never visits: both are listed once, in grid order, for both sweeps.
    # The full-grid sweeps lose the conjugate too, as a real singular point would.
    op = NONNORMAL
    grid = kl.AnnulusGrid.default(8)
    angles = full_grid(op, 8)
    radii = grid.radii
    lost = radii[7] * angles[3]
    corner = kl.materialize(op)[0, 0]
    inverted = failing_points(monkeypatch, {lost}, corner)
    fused = kl.kreiss_constant(op, grid, 8)
    unswept = {radius * mu - corner for radius in radii for mu in angles[5:]}
    assert lost - corner in inverted and not unswept & set(inverted)
    pair = ((radii[7], complex(angles[3])), (radii[7], complex(angles[5])))
    assert angles[5] == np.conj(angles[3])
    assert fused.skipped == pair
    assert fused.to_dict()["skipped"] == [list(p) for p in pair]
    monkeypatch.undo()
    failing_points(monkeypatch, {lost, np.conj(lost)}, corner)
    assert (fused.kreiss_C, fused.kreiss_C_radius, fused.skipped) == exhaustive_plain_sweep(op, grid)
    assert (fused.strong_C, fused.skipped) == exhaustive_strong_sup(op, grid, 8)


def test_a_real_operator_skips_a_lost_point_at_minus_r_once(monkeypatch):
    # Point 4 of 8 is exactly -1, so the inverse fails at the real point
    # -r: a real point is its own conjugate, and it is listed once, with no
    # mirror, as the full-grid sweeps list it.
    op = NONNORMAL
    grid = kl.AnnulusGrid.default(8)
    radii = grid.radii
    corner = kl.materialize(op)[0, 0]
    inverted = failing_points(monkeypatch, {-radii[5]}, corner)
    fused = kl.kreiss_constant(op, grid, 8)
    assert -radii[5] - corner in inverted
    assert fused.skipped == ((radii[5], -1.0 + 0.0j),)
    assert fused.to_dict()["skipped"] == [[radii[5], -1.0 + 0.0j]]
    assert (fused.kreiss_C, fused.kreiss_C_radius, fused.skipped) == exhaustive_plain_sweep(op, grid)
    assert (fused.strong_C, fused.skipped) == exhaustive_strong_sup(op, grid, 8)


#: Real operators, whose sweeps evaluate angles 0..N/2 of an N-point grid.
REAL_OPS = {
    "tzblock-8": kl.build_tz_block(8),
    "ergces-12": kl.build_ergces(12),
    "nonnormal": NONNORMAL,
    "negated-sum": kl.RotatedScale(-1, kl.DirectSum((kl.build_tz_block(3), kl.build_TN(3, 0.3)))),
}


@pytest.mark.parametrize("angles", [1, 2, 7, 16])
@pytest.mark.parametrize("op", REAL_OPS.values(), ids=REAL_OPS.keys())
def test_half_sweeps_of_a_real_operator_equal_the_full_grid(op, angles):
    _, lams = _angle_grid(op, angles)
    full = full_grid(op, angles)
    head = angles // 2 + 1
    np.testing.assert_array_equal(lams, full[:head])
    report = kl.kb2_constant(op, 16, angles)
    assert (report.ukb_C, report.kb2_C, report.kb2_sum_C) == exhaustive_mean_sups(op, 16, angles)
    assert kl.uniform_kreiss_constant(op, 16, angles).ukb_C == report.ukb_C
    norm1, norm2 = (_rotated_mean_norms(op, 16, full, order) for order in (1, 2))
    for table in (norm1, norm2):  # each conjugate row repeats its partner's bits
        np.testing.assert_array_equal(table[head:], table[1:(angles + 1) // 2][::-1])
    for order, table in ((1, norm1), (2, norm2)):
        profile = kl.rotated_mean_norm_profile(op, 16, angles, order)
        np.testing.assert_array_equal(profile.sup_lambda, table.max(axis=0))
        np.testing.assert_array_equal(profile.norm_m1, norm1[0])
    np.testing.assert_array_equal(profile.norm_m2, norm2[0])
    grid = kl.AnnulusGrid.default(angles)
    fused = kl.kreiss_constant(op, grid, 8)
    assert (fused.kreiss_C, fused.kreiss_C_radius, fused.skipped) == exhaustive_plain_sweep(op, grid)
    assert (fused.strong_C, fused.skipped) == exhaustive_strong_sup(op, grid, 8)


@pytest.mark.parametrize("angles", [1, 2, 3, 7, 8, 16, 64, 255])
def test_angle_grid_pairs_its_points_as_exact_conjugates(angles):
    # A complex operator gets all N points, closed under conjugation
    # exactly; a real one gets points 0..N/2, the head of the same grid;
    # a shift gets lam = 1 alone.
    shortcut, lams = _angle_grid(COMPLEX_TWIN, angles)
    assert not shortcut and lams.shape == (angles,)
    head = angles // 2 + 1
    exp = np.exp(2j * np.pi * np.arange(head) / angles)
    if angles % 2 == 0:  # exp(i pi) = -1 + 1.2e-16i; the grid's point is exactly -1
        assert exp[-1] != -1.0
        exp[-1] = -1.0
    np.testing.assert_array_equal(lams[:head], exp, strict=True)
    k = np.arange(1, angles)
    np.testing.assert_array_equal(lams[angles - k], np.conj(lams[k]))
    assert {complex(z) for z in np.conj(lams)} == {complex(z) for z in lams}
    shortcut, real = _angle_grid(NONNORMAL, angles)
    assert not shortcut
    np.testing.assert_array_equal(real, lams[:head], strict=True)
    shortcut, one = _angle_grid(kl.build_TN(4, 0.3), angles)
    assert shortcut
    np.testing.assert_array_equal(one, [1.0 + 0.0j], strict=True)


def test_only_a_real_operator_sweeps_half_the_angles(monkeypatch):
    calls = []

    def counting(mat, eye, lam):
        calls.append(lam)
        return _leaf_inverse(mat, eye, lam)

    monkeypatch.setattr(kreisslab.kreiss, "_leaf_inverse", counting)
    grid = kl.AnnulusGrid.default(16)
    for op, per_radius in ((COMPLEX_TWIN, 16), (kl.RotatedScale(np.exp(0.3j), NONNORMAL), 16),
                           (kl.RotatedScale(1j, REAL_OPS["negated-sum"]), 2 * 16),
                           (NONNORMAL, 9), (REAL_OPS["negated-sum"], 2 * 9)):
        calls.clear()
        kl.kreiss_constant(op, grid, 4)
        assert len(calls) == per_radius * len(grid.radii)


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
    # matrices, where sigma_1 nearly equals the Schatten-4 norm, and on
    # nonnegative ones: general, rank-one, with a zero row and column, and
    # the mean sums of a shift.  No bound may be beaten by the matrix's
    # own norm.
    rng = np.random.default_rng(23)
    below = 0

    def check(mat):
        nonlocal below
        d = max(mat.shape)
        norm = _dense_norm(mat)
        assert norm <= _schatten4(mat) * (1 + d * d * _EPS) * (1 + 1e-12)
        assert not _bounds_beaten(mat, lambda bound: _beaten(bound, norm))
        below += norm > _schatten4(mat)

    for d in (1, 2, 5, 16, 32, 64, 128):
        for _ in range(40 if d <= 32 else 8):
            general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
            v = rng.standard_normal((1, d)) + 1j * rng.standard_normal((1, d))
            near = u @ v + 1e-7 * general
            positive = rng.random((d, d))
            holed = positive.copy()
            holed[d // 2] = holed[:, d // 2] = 0.0
            for mat in (general, u @ v, near, (u @ v).real, positive,
                        np.outer(rng.random(d), rng.random(d)), holed):
                check(mat)
    shift = kl.materialize(kl.build_TN(16, 0.45))
    total = np.eye(32)
    for _ in range(31):
        check(total)
        total = total @ shift + np.eye(32)
    assert below > 0  # some dense norms round above the bare Schatten-4 norm: the slack is used
    assert _schatten4(np.zeros((3, 3))) == _schatten4(np.full((3, 3), 1e-80)) == math.inf


@pytest.mark.parametrize("op", [NONNORMAL, contractive_dense(16, 3), kl.build_tz_block(8),
                                kl.build_ergces(12)],
                         ids=["nonnormal", "dense-16", "tzblock-8", "ergces-12"])
def test_chain_cut_covers_every_later_term(op):
    # Where ||Q||_F <= 1 for Q = (r-1) R, the cut argues ||Q^k|| <= bound_j
    # for every k > j; in rounding, the computed terms stay within
    # _chain_reach of either cascade bound of power j, at k_max = 16.
    mat = kl.materialize(op)
    d = mat.shape[0]
    k_max = 16
    reach = _chain_reach(k_max, d)
    pairs = 0
    for r in default_radii():
        for mu in full_grid(op, 16):
            resolvent = _leaf_inverse(mat, np.eye(d), r * mu)
            scaled = (r - 1.0) * resolvent
            if _frobenius(scaled) > 1.0:
                continue
            powers = [scaled]
            for _ in range(k_max - 1):
                powers.append(powers[-1] @ scaled)
            terms = [_dense_norm(p) for p in powers]
            for j, power in enumerate(powers, 1):
                for bound in (_frobenius(power), _schatten4(power)):
                    bound_j = bound * (1 + d * d * _EPS) * reach
                    assert not any(_beaten(bound_j, term) for term in terms[j:])
                    pairs += k_max - j
    assert pairs > 0


def strongly_nonnormal(d, seed, real):
    """Q (diag(0.9 u) + 2 N) Q*: eigenvalues 0.9 u inside the disk, N a random strict upper triangle."""
    rng = np.random.default_rng(seed)
    draw = (lambda: rng.standard_normal((d, d))) if real else \
        (lambda: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    unit, _ = np.linalg.qr(draw())
    phases = rng.uniform(-1.0, 1.0, d) if real else np.exp(2j * np.pi * rng.uniform(size=d))
    core = np.diag(0.9 * phases) + 2.0 * np.triu(draw(), 1)
    return kl.Dense(unit @ core @ unit.conj().T)


#: Operators whose stopped strong chains must give the values of chains normed at every k.
CHAIN_OPS = {
    "tzblock-8": kl.build_tz_block(8),
    "tzblock-16": kl.build_tz_block(16),
    "ergces-12": kl.build_ergces(12),
    "ergces-20": kl.build_ergces(20),
    "tn-16": kl.build_TN(16, 0.3),  # the rotation shortcut: one angle per radius
    "shift-plus-dense": kl.DirectSum((kl.build_bermbmp_shift(0.3, "backward", 6), NONNORMAL)),
    "rotated-leaf": kl.DirectSum((kl.RotatedScale(np.exp(0.4j), kl.build_tz_block(6)),
                                  kl.build_ergces(5))),
    "real-nonnormal": strongly_nonnormal(10, 5, True),
    "complex-nonnormal": strongly_nonnormal(10, 6, False),
}


@pytest.mark.parametrize("op", CHAIN_OPS.values(), ids=CHAIN_OPS.keys())
def test_stopped_chains_equal_chains_normed_at_every_power(op):
    grid = kl.AnnulusGrid.default(32)
    report = kl.kreiss_constant(op, grid, 16)
    plain = exhaustive_plain_sweep(op, grid)
    assert (report.kreiss_C, report.kreiss_C_radius, report.skipped) == plain
    assert (report.strong_C, report.skipped) == exhaustive_strong_sup(op, grid, 16)


def test_strong_chains_stop_by_submultiplicativity(monkeypatch):
    # Cascade calls and Gram eigensolves of kreiss_constant(op, default(64), 16):
    # 3,246 and 125 on tzblock 16, 1,200 and 170 on ergces 20 when a chain
    # stopped only where ||Q||_F <= 1.
    calls, solves = [], []
    cascade = kreisslab.cesaro._norm_unless_beaten

    def counting(mat, beaten):
        calls.append(mat.shape)
        return cascade(mat, beaten)

    def counting_norm(mat):
        solves.append(mat.shape)
        return _dense_norm(mat)

    monkeypatch.setattr(kreisslab.kreiss, "_norm_unless_beaten", counting)
    monkeypatch.setattr(kreisslab.cesaro, "_dense_norm", counting_norm)
    for op, most_calls, most_solves in ((kl.build_tz_block(16), 1300, 125),
                                        (kl.build_ergces(20), 720, 170)):
        calls.clear()
        solves.clear()
        kl.kreiss_constant(op, kl.AnnulusGrid.default(64), 16)
        assert len(calls) <= most_calls
        assert len(solves) <= most_solves


def chain_powers(scaled, k_max):
    """The computed powers Q, Q Q, .. of a chain, each formed from the last, and their norms."""
    powers = [scaled]
    for _ in range(k_max - 1):
        powers.append(powers[-1] @ scaled)
    return powers, [_dense_norm(power) for power in powers]


@pytest.mark.parametrize("op", [NONNORMAL, strongly_nonnormal(10, 5, True),
                                strongly_nonnormal(10, 6, False), kl.build_tz_block(8)],
                         ids=["nonnormal", "real-nonnormal", "complex-nonnormal", "tzblock-8"])
def test_split_bound_covers_every_later_term(op):
    # Past the first power a with ||Q^a|| <= 1, every computed term k + m
    # stays within U_k cap _chain_reach(k_max, d, cap) of term k's value,
    # with cap = max(1, ||Q||, .., ||Q^(a-1)||) from the values themselves,
    # the smallest the cascade can give.
    mat = kl.materialize(op)
    d = mat.shape[0]
    k_max = 16
    pairs = 0
    for r in default_radii():
        for mu in full_grid(op, 16):
            _, terms = chain_powers((r - 1.0) * _leaf_inverse(mat, np.eye(d), r * mu), k_max)
            a = next((k for k, term in enumerate(terms) if term <= 1.0), None)
            if not a:  # no such power, or a = 1 (test_chain_cut_covers_every_later_term)
                continue
            cap = max(1.0, *terms[:a])
            split = cap * _chain_reach(k_max, d, cap)
            for k in range(a, k_max):
                assert not any(_beaten(terms[k] * split, term) for term in terms[k + 1:])
                pairs += k_max - 1 - k
    assert pairs > 0


def test_a_chain_past_a_large_first_power_stops_at_its_cap(monkeypatch):
    # On tzblock 8 at lam = 1.5i, ||Q|| = 2.07 and ||Q^3|| = 2.83 peak before
    # ||Q^7|| = 0.98: the chain can stop only on the cap of its first six
    # powers, since ||Q||_F > 1.  Against any running best, the stopped
    # chain gives the values of the chain normed at every power.
    mat = kl.materialize(kl.build_tz_block(8))
    r, lam = 1.5, 1.5j
    scaled = (r - 1.0) * _leaf_inverse(mat, np.eye(16), lam)
    _, terms = chain_powers(scaled, 16)
    assert _frobenius(scaled) > terms[0] > 1.0 and terms[6] <= 1.0 < min(terms[:6])
    calls = []
    cascade = kreisslab.cesaro._norm_unless_beaten

    def counting(mat, beaten):
        calls.append(mat.shape)
        return cascade(mat, beaten)

    monkeypatch.setattr(kreisslab.kreiss, "_norm_unless_beaten", counting)
    top = max(terms)
    stops = 0
    for strong in (0.0, 0.5, *terms, *(0.999 * t for t in terms), 1.001 * top, 1.5 * top, 9.0):
        calls.clear()
        plain, got = kreisslab.kreiss._leaf_chain(scaled, 16, min(strong, terms[0]), strong)
        assert (plain, got) == (terms[0], max(strong, top))
        stops += len(calls) < 16
        assert len(calls) >= 7 or strong > top  # never before a = 7 unless nothing can win
    assert stops >= 3
    calls.clear()
    kreisslab.kreiss._leaf_chain(scaled, 16, 0.0, 1.5 * top)
    assert 7 <= len(calls) < 16


def test_strong_chain_matches_a_40_digit_oracle_where_resolvent_powers_overflow():
    # At r - 1 = 2^-12, R^k of ergces 8 overflows before k = 100, but every
    # term sigma_1(Q^k) of the scaled inverse Q = (r-1) R stays in range.
    import mpmath

    op = kl.build_ergces(8)
    r, k_max = 1.0 + 2.0**-12, 100
    got = kl.strong_kreiss_constant(op, kl.AnnulusGrid((r,), 2), k_max).strong_C
    mat = kl.materialize(op)
    _, angles = _angle_grid(op, 2)
    expected = 0
    with mpmath.workdps(40):
        exact = mpmath.matrix(mat.tolist())
        for mu in angles[::-1]:  # the sup sits at lam = -r
            scaled = (r - 1.0) * mpmath.inverse(complex(r * mu) * mpmath.eye(mat.shape[0]) - exact)
            power = scaled
            for k in range(1, k_max + 1):
                if k > 1:
                    power = power * scaled
                if mpmath.mnorm(power, "F") > expected:  # else sigma_1 <= ||Q^k||_F cannot win
                    top = max(mpmath.eighe(power.H * power, eigvals_only=True))
                    expected = max(expected, mpmath.sqrt(top))
        assert abs(got - expected) <= 1e-13 * expected


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
    assert len(solves) == 1  # the oracle's one sigma_min SVD
    # 156 of 14,850 cells (8,514 means and 6,336 resolvent powers) and the oracle
    assert len(calls) + len(solves) <= 210
    # the exhaustive sweep's values
    got = (report.ukb_C, report.kb2_C, report.kb2_sum_C, fused.strong_C, fused.kreiss_C)
    want = (9.612697312887626, 7.618976457286319, 4.009987609098062, 9.693293899356368,
            6.032400028538849)
    np.testing.assert_allclose(got, want, rtol=1e-12)


ORACLE_CASES = {
    "tzblock-8": (kl.build_tz_block(8), kl.AnnulusGrid.default(64)),
    "tzblock-16": (kl.build_tz_block(16), kl.AnnulusGrid.default(64)),
    "ergces-12": (kl.build_ergces(12), kl.AnnulusGrid.default(64)),
    "ergces-20": (kl.build_ergces(20), kl.AnnulusGrid.default(64)),
    # cond(lam I - T) up to about 1e5: the inverse carries the largest
    # rounding of any default grid point.
    "ergces-20-near-circle": (kl.build_ergces(20), kl.AnnulusGrid((1.0 + 2.0**-12,), 64)),
    **{name: (op, kl.AnnulusGrid.default(16)) for name, op in SWEEP_OPS.items()},
    "nonnormal": (NONNORMAL, kl.AnnulusGrid.default(16)),
}


@pytest.mark.parametrize("op, grid", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_the_svd_oracle_matches_kreiss_C_at_its_sup(op, grid):
    # kreiss_C is the Gram norm of (r-1) R; kreiss_C_svd is (r-1) / sigma_min
    # of the system at the first grid point where kreiss_C is reached.
    report = kl.kreiss_constant(op, grid)
    terms = exhaustive_plain_terms(op, grid)
    r, mu = next((r, mu) for r, mu, term in terms if term == report.kreiss_C)
    assert report.kreiss_C_radius == r
    assert report.kreiss_C_svd == (r - 1.0) * kl.resolvent_norm(op, r * mu)
    assert abs(report.kreiss_C_svd - report.kreiss_C) <= 1e-12 * report.kreiss_C
    assert report.to_dict()["kreiss_C_svd"] == report.kreiss_C_svd
    assert kl.strong_kreiss_constant(op, grid, 4).kreiss_C_svd is None


def test_the_grid_pass_takes_no_svd(monkeypatch):
    # The sweep norms every resolvent term from its inverse; the one SVD is
    # the oracle's, and with no point to check there is none.
    svds, solves = [], []
    svd, resolvent_norm = np.linalg.svd, kreisslab.kreiss.resolvent_norm

    def counting_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    def counting_resolvent(op, lam):
        solves.append(lam)
        return resolvent_norm(op, lam)

    def singular(a):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(kreisslab.kreiss, "resolvent_norm", counting_resolvent)
    op, grid = kl.build_tz_block(16), kl.AnnulusGrid.default(64)
    assert kl.kreiss_constant(op, grid, 16).kreiss_C_svd is not None
    assert (len(svds), len(solves)) == (1, 1)
    monkeypatch.setattr(np.linalg, "inv", singular)
    svds.clear()
    solves.clear()
    report = kl.kreiss_constant(op, grid, 16)
    assert (report.kreiss_C, report.kreiss_C_radius, report.kreiss_C_svd) == (0.0, None, None)
    assert len(report.skipped) == len(grid.radii) * 64
    assert (svds, solves) == ([], [])


def stepped_alone(mat, lam, n_max):
    """The mean cells (total, triangular, T^n) of one matrix at one point: the engine's oracle.

    The power of the compacted matrix is stepped alone, one product at a
    time, and scaled by a running lam^n, real when lam and the matrix are.
    """
    mat = _compact(mat)
    # One-element arrays: numpy may round a product with a scalar operand differently.
    lam = np.array([lam.real if np.isrealobj(mat) and lam.imag == 0 else lam])
    lam_n = np.ones_like(lam)
    power = np.eye(mat.shape[0], dtype=mat.dtype)
    total = triangular = np.eye(mat.shape[0], dtype=lam_n.dtype)
    cells = [(total, triangular, power)]
    for _ in range(n_max):
        power = power @ mat
        lam_n = lam_n * lam
        total = total + lam_n * power
        triangular = triangular + total
        cells.append((total, triangular, power))
    return cells


@pytest.mark.parametrize("op", SWEEP_OPS.values(), ids=SWEEP_OPS.keys())
def test_swept_cells_equal_stepping_each_point_alone(op):
    _, lams = _angle_grid(op, 8)
    # A rotated leaf's points are its scalar times the grid, as one array product.
    leaves = [(lams if scalar == 1.0 else lams * scalar, kl.materialize(leaf))
              for _, _, scalar, leaf in kl.blocks(op)]
    stops = {len(lams) - 1: 5, 0: 3}
    plan = [(np.array(list(stops)), np.array(list(stops.values())))] + [None] * (len(leaves) - 1)
    for chosen in (None, plan):
        seen = []
        for leaf, point, n, total, triangular, settled in _mean_cells(op, 12, lams, True, chosen):
            points, mat = leaves[leaf]
            cells = stepped_alone(mat, points[point], 12)
            np.testing.assert_array_equal(total, cells[n][0], strict=True)
            np.testing.assert_array_equal(triangular, cells[n][1], strict=True)
            assert settled is (n > 0 and not cells[n][2].any())
            seen.append((leaf, point, n))
        if chosen is None:
            assert sorted(seen) == [(leaf, point, n) for leaf in range(len(leaves))
                                    for point in range(len(lams)) for n in range(13)]
        else:  # each planned point up to exactly its stop
            assert sorted(seen) == sorted((0, point, n) for point, stop in stops.items()
                                          for n in range(stop + 1))


def stepped_chain(mat, lam, n_max):
    """The mean cells of one point by the chain (lam T)^n = (lam T)^(n-1) (lam T), in complex.

    Each cell comes with the sizes of its terms: the sum over its powers
    of their largest entries, with the cell's weights.
    """
    scaled = lam * mat.astype(complex)
    power = total = triangular = np.eye(mat.shape[0], dtype=complex)
    size = size2 = 1.0
    cells = [(total, triangular, size, size2)]
    for _ in range(n_max):
        power = power @ scaled
        total = total + power
        triangular = triangular + total
        size += np.abs(power).max()
        size2 += size
        cells.append((total, triangular, size, size2))
    return cells


@pytest.mark.parametrize("op", SWEEP_OPS.values(), ids=SWEEP_OPS.keys())
def test_scaled_real_powers_equal_the_complex_chain(op):
    # lam^n T^n and (lam T)^n agree to rounding: every entry of a cell
    # within 1e-13 of the sizes of its terms (the sums cancel on the identity).
    lams = full_grid(op, 16)
    leaves = [(lams if scalar == 1.0 else lams * scalar, kl.materialize(leaf))
              for _, _, scalar, leaf in kl.blocks(op)]
    chains = {}
    for leaf, point, n, total, triangular, _ in _mean_cells(op, 24, lams, True):
        points, mat = leaves[leaf]
        if (leaf, point) not in chains:
            chains[leaf, point] = stepped_chain(mat, points[point], 24)
        want, want2, size, size2 = chains[leaf, point][n]
        np.testing.assert_allclose(total, want, rtol=0, atol=1e-13 * size)
        np.testing.assert_allclose(triangular, want2, rtol=0, atol=1e-13 * size2)
    assert len(chains) == len(leaves) * len(lams)


def test_a_real_grid_steps_its_real_point_apart():
    lams = _angle_grid(NONNORMAL, 8)[1]
    kinds = {(leaf, point, total.dtype.kind)
             for leaf, point, n, total, *_ in _mean_cells(NONNORMAL, 2, lams, False)}
    assert sorted(kinds) == [(0, 0, "f"), (0, 1, "c"), (0, 2, "c"), (0, 3, "c"), (0, 4, "f")]
    settles = [(n, settled) for _, _, n, _, _, settled in
               _mean_cells(SWEEP_OPS["settles-mid-sweep"], 6, np.ones(1), False)]
    assert settles[4:7] == [(4, False), (5, True), (6, True)]  # T^5 = 0 for tzblock 4


def test_the_seeded_mean_sweep_norms_few_cells(monkeypatch):
    calls = []

    def counting(mat):
        calls.append(mat.shape)
        return _dense_norm(mat)

    monkeypatch.setattr(kreisslab.cesaro, "_dense_norm", counting)
    report = kl.kb2_constant(kl.build_tz_block(16), 128, 64)
    assert len(calls) <= 60  # 30 of the 8,514 first- and second-order cells
    assert (report.ukb_C, report.kb2_C, report.kb2_sum_C) == (
        9.612697312887624, 7.618976457286323, 4.009987609098064)
    # A one-point sweep (the rotation shortcut of a shift) runs one pass,
    # with the same cells normed as before the seed existed: there a seed
    # saves no eigensolve and costs a second pass.
    monkeypatch.setattr(kreisslab.cesaro._MeanSups, "seed", None)
    for op, count in ((kl.build_bermbmp_shift(0.45, "forward", 64), 114),
                      (kl.build_TN(16, 0.45), 70)):
        calls.clear()
        kl.kb2_constant(op, 256, 256)
        assert len(calls) == count


@pytest.mark.parametrize("angles", [1, 8])
def test_a_non_finite_mean_cell_raises(angles):
    # The squares overflow at n = 2, to inf and to inf - inf = NaN: no bound prunes such a cell.
    for mat in ([[0.5, 1e200], [0.0, 1e200]], [[1e200, 1e200], [1e200, -1e200]]):
        with pytest.raises(kl.ConvergenceError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            kl.kb2_constant(kl.Dense(np.array(mat)), 8, angles)


def leaf_seed_bounds(op, n_max, lams):
    """_seed_bounds of each leaf of op at the points lams (times the leaf's rotation)."""
    return [_seed_bounds(kl.materialize(leaf), n_max,
                         np.asarray(lams if scalar == 1.0 else lams * scalar, dtype=complex))
            for _, _, scalar, leaf in kl.blocks(op)]


@pytest.mark.parametrize("n_max", [0, 1, 32, 300])
@pytest.mark.parametrize("op", [*SWEEP_OPS.values(), COMPLEX_TWIN],
                         ids=[*SWEEP_OPS.keys(), "complex-dense"])
def test_seed_bounds_hold_every_stepped_cell(op, n_max):
    # The power-algebra bounds hold the Frobenius norm of the cell that
    # _mean_cells steps, of both orders, at every point and n (n_max = 300
    # spans two windows of the Gram strips).  Each bound is held against the
    # cell's exact Frobenius norm: at lam = -1 an identity cell can be 0,
    # which _frobenius reads as no bound (inf).
    _, lams = _angle_grid(op, 8)
    bounds = leaf_seed_bounds(op, n_max, lams)
    cells = 0
    for leaf, point, n, total, triangular, settled in _mean_cells(op, n_max, lams, True):
        bound1, bound2 = bounds[leaf]
        if settled:
            assert bound1[point, n] == -np.inf
        else:
            assert np.linalg.norm(total) <= bound1[point, n] < np.inf
        assert np.linalg.norm(triangular) <= bound2[point, n] < np.inf
        cells += 1
    assert cells == len(bounds) * len(lams) * (n_max + 1)


def test_a_sweep_past_the_table_budget_keeps_the_exhaustive_maxima():
    # The powers of ergces 6 never settle, so at n_max 1024 the table
    # budget cuts the seed's windows to 63 values of n.
    op, n_max = kl.build_ergces(6), 1024
    assert _SEED_WINDOW**2 // (n_max + 1) == 63
    report = kl.kb2_constant(op, n_max, 8)
    assert (report.ukb_C, report.kb2_C, report.kb2_sum_C) == exhaustive_mean_sups(op, n_max, 8)


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_seed_tables_keep_to_their_budget():
    # Windows of 256 values of n held 90.8 MiB of tables here; the budget
    # of _SEED_WINDOW**2 entries per table leaves the held power stack,
    # the phase table and the bound arrays as the bulk.
    op = kl.build_ergces(12)
    _, lams = _angle_grid(op, 64)
    assert len(lams) == 33
    mat = kl.materialize(op)
    assert traced_peak(lambda: _seed_bounds(mat, 4096, lams)) < 24 * 2**20


def test_the_seed_steps_each_leaf_chain_once(monkeypatch):
    # The Gram matrix of the seed comes from one held stack of each leaf's
    # powers: one pass of the power stream per leaf, however long the chain.
    chains = []
    stream = kreisslab.cesaro._power_sums

    def counting(step, start, n_max):
        # The points that _mean_cells steps make streams too: count the Gram's passes only.
        if sys._getframe(1).f_code is not kreisslab.cesaro._mean_cells.__code__:
            chains.append(n_max)
        return stream(step, start, n_max)

    monkeypatch.setattr(kreisslab.cesaro, "_power_sums", counting)
    for op, n_max, angles, constants in (
            (kl.build_ergces(12), 300, 8, (11.310509511102786, 8.985419312145597, 4.507635601774036)),
            (kl.build_tz_block(64), 128, 64,
             (38.43896565153635, 30.762946725459532, 15.592178477287709))):
        chains.clear()
        report = kl.kb2_constant(op, n_max, angles)
        assert chains == [n_max] * len(kl.blocks(op))
        assert (report.ukb_C, report.kb2_C, report.kb2_sum_C) == constants


def recorded_products(monkeypatch):
    """The (M, N, K) of each np.matmul product formed from now on in this test."""
    products = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        products.append((a.shape[0], b.shape[1], a.shape[1]))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return products


def test_the_seed_strip_of_small_powers_stays_below_the_pooled_size(monkeypatch):
    # At the kreiss defaults the seed of ergces 20 (d = 21, never settling)
    # forms its 129 x 129 x 441 Gram strip in blocks that OpenBLAS keeps on
    # the calling thread, covering every row of the strip.
    op = kl.build_ergces(20)
    _, lams = _angle_grid(op, 64)
    assert len(lams) == 33
    products = recorded_products(monkeypatch)
    _seed_bounds(kl.materialize(op), 128, lams)
    assert all(m * n * k < _POOLED_PRODUCT and (n, k) == (129, 441) for m, n, k in products)
    assert sum(m for m, _, _ in products) == 129


def test_a_seed_strip_past_the_pooled_size_per_row_is_one_product(monkeypatch):
    # d = 64 at n_max 128: one row of the strip is 129 x 4096 multiply-adds,
    # past _POOLED_PRODUCT, so the window's strip stays one product.
    rng = np.random.default_rng(21)
    mat = rng.standard_normal((64, 64))
    mat *= 0.95 / np.max(np.abs(np.linalg.eigvals(mat)))
    assert 129 * mat.size >= _POOLED_PRODUCT
    products = recorded_products(monkeypatch)
    _seed_bounds(mat, 128, np.array([1.0, -1.0], dtype=complex))
    assert products == [(129, 129, 4096)]


@pytest.mark.parametrize("dtype, size", [(float, 441), (complex, 100)])
def test_a_blocked_gram_strip_equals_the_whole_product(dtype, size):
    # Blocking changes at most the summation order of each inner product,
    # which the seed's allowance of (L + 2) eps ||P_j||_F ||P_k||_F covers.
    rng = np.random.default_rng(8)
    powers = rng.standard_normal((129, size)).astype(dtype)
    if dtype is complex:
        powers += 1j * rng.standard_normal((129, size))
    held = powers[40:]
    strip = _gram_strip(held, powers)
    inner = size * (2 if dtype is complex else 1)
    row_norms = np.linalg.norm(powers, axis=1)
    allowance = (inner + 2) * _EPS * np.outer(row_norms[40:], row_norms)
    assert np.all(np.abs(strip - held.conj() @ powers.T) <= allowance)


@pytest.mark.parametrize("op", [kl.build_ergces(20), kl.build_tz_block(16)],
                         ids=["ergces-20", "tzblock-16"])
def test_kreiss_default_mean_sups_equal_the_exhaustive_maxima(op):
    report = kl.kb2_constant(op, 128, 64)
    assert (report.ukb_C, report.kb2_C, report.kb2_sum_C) == exhaustive_mean_sups(op, 128, 64)


def test_the_seed_steps_no_stack(monkeypatch):
    # The first pass bounds every cell from the powers alone; it steps
    # only the points of its seeds, at most one point per seed.
    points = {"seed": set(), "prune": set()}
    phase = ["prune"]
    cells, seed = kreisslab.cesaro._mean_cells, kreisslab.cesaro._MeanSups.seed

    def counting_cells(*args):
        for cell in cells(*args):
            points[phase[0]].add(cell[:2])  # (leaf, point)
            yield cell

    def counting_seed(self, *args):
        phase[0] = "seed"
        try:
            return seed(self, *args)
        finally:
            phase[0] = "prune"

    monkeypatch.setattr(kreisslab.cesaro, "_mean_cells", counting_cells)
    monkeypatch.setattr(kreisslab.cesaro._MeanSups, "seed", counting_seed)
    report = kl.kb2_constant(kl.build_tz_block(16), 128, 64)
    assert 1 <= len(points["seed"]) <= 3 and points["prune"]
    assert (report.ukb_C, report.kb2_C, report.kb2_sum_C) == (
        9.612697312887624, 7.618976457286323, 4.009987609098064)


def test_the_prune_pass_steps_the_plan_and_no_more(monkeypatch):
    # Each planned point is stepped up to its own stop, not on to the
    # stop of a later point.
    plans, stepped = [], []
    cells, seed = kreisslab.cesaro._mean_cells, kreisslab.cesaro._MeanSups.seed

    def recording_seed(self, *args):
        plan = seed(self, *args)
        plans.append(plan)
        return plan

    def recording_cells(*args):
        for cell in cells(*args):
            if plans:  # past the seed
                stepped.append(cell[:3])  # (leaf, point, n)
            yield cell

    monkeypatch.setattr(kreisslab.cesaro, "_mean_cells", recording_cells)
    monkeypatch.setattr(kreisslab.cesaro._MeanSups, "seed", recording_seed)
    kl.kb2_constant(kl.build_ergces(20), 128, 64)
    [plan] = plans
    want = [(leaf, point, n) for leaf, entry in enumerate(plan) if entry is not None
            for point, stop in zip(*entry) for n in range(stop + 1)]
    assert want and sorted(stepped) == sorted(want)


def test_mean_sweeps_reject_a_negative_n_max():
    with pytest.raises(kl.ValidationError, match="n_max"):
        kl.kb2_constant(kl.build_tz_block(4), -5, 8)
    with pytest.raises(kl.ValidationError, match="n_max"):
        kl.uniform_kreiss_constant(kl.build_TN(4, 0.3), -1, 1)


def test_angle_grid_rejects_no_angles():
    for op in (NONNORMAL, kl.build_TN(4, 0.3)):
        with pytest.raises(kl.ValidationError, match="angle"):
            _angle_grid(op, 0)


def test_angle_counts_must_be_integers():
    op = kl.build_tz_block(4)
    for count in (2.5, 8.0, "8"):
        with pytest.raises(kl.ValidationError, match="angle count must be an integer"):
            kl.kb2_constant(op, 8, count)
        with pytest.raises(kl.ValidationError, match="angle count must be an integer"):
            kl.rotated_mean_norm_profile(op, 4, angle_count=count)
        with pytest.raises(kl.ValidationError, match="angle count must be an integer"):
            kl.AnnulusGrid((1.5,), count)
    # Any integral type passes, numpy's included, and gives the same grid as an int.
    grid = kl.AnnulusGrid((1.5,), np.int64(8))
    assert grid.angle_count == 8 and type(grid.angle_count) is int
    np.testing.assert_array_equal(_angle_grid(op, np.int32(8))[1], _angle_grid(op, 8)[1])
    assert kl.kb2_constant(op, 8, np.int64(8)).kb2_C == kl.kb2_constant(op, 8, 8).kb2_C


COUNTED_CALLS = {
    "power_norms": ("kmax", lambda k: kl.power_norms(kl.build_tz_block(4), k)),
    "kb2_constant": ("n_max", lambda n: kl.kb2_constant(kl.build_tz_block(4), n, 8)),
    "kb2_constant-shift": ("n_max", lambda n: kl.kb2_constant(kl.build_TN(4, 0.3), n, 1)),
    "uniform_kreiss_constant": ("n_max", lambda n: kl.uniform_kreiss_constant(
        kl.build_tz_block(4), n, 8)),
    "kreiss_constant": ("k_max", lambda k: kl.kreiss_constant(
        kl.build_tz_block(4), kl.AnnulusGrid.default(8), k)),
    "strong_kreiss_constant": ("k_max", lambda k: kl.strong_kreiss_constant(
        kl.build_tz_block(4), kl.AnnulusGrid.default(8), k)),
    "rotated_mean_norm_profile": ("n_max", lambda n: kl.rotated_mean_norm_profile(
        kl.build_tz_block(4), n, 4)),
    "cesaro_identity_check": ("n_max", lambda n: kl.cesaro_identity_check(
        kl.build_tz_block(4), n)),
    "mean_difference_decay": ("ladder rung", lambda n: kl.mean_difference_decay(
        kl.build_tz_block(4), (1, n))),
    "ergodic_probe": ("ladder rung", lambda n: kl.ergodic_probe(
        kl.build_tz_block(4), 2, (1, n))),
    "orbit_norms": ("kmax", lambda k: kl.orbit_norms(kl.build_tz_block(4), unit(8), k)),
    "tn_claim1_bound": ("window length n", lambda n: kl.tn_claim1_bound(
        0.3, n, np.ones(4) / 2.0, np.ones(4) / 2.0, 1.0)),
    "tn_claim2_bound": ("M", lambda m: kl.tn_claim2_bound(0.3, m)),
    "dyadic_ladder": ("ladder top", lambda top: kl.dyadic_ladder(top)),
    "run_hilbert_claims": ("n_probes", lambda n: kl.run_hilbert_claims(
        kl.build_tz_block(4), 1.0, n, 4)),
}


@pytest.mark.parametrize("count, call", COUNTED_CALLS.values(), ids=COUNTED_CALLS.keys())
def test_counts_must_be_integers(count, call):
    # A float count once ended in a raw TypeError, or was truncated: tn_claim2_bound(0.3, 2.5)
    # summed j = 1..3 under a record that said M = 2.
    for value in (2.5, 8.0, 4.5):
        with pytest.raises(kl.ValidationError, match=f"{count}.* must be an integer"):
            call(value)
    # Any integral type passes, numpy's included, as the int it stands for.
    assert repr(call(np.int64(2))) == repr(call(2))


def test_dyadic_ladder_needs_a_power_of_two_top():
    assert kl.dyadic_ladder(1) == (1,)
    assert kl.dyadic_ladder(64) == (1, 2, 4, 8, 16, 32, 64)
    for top in (0, 3, 6, -4):
        with pytest.raises(kl.ValidationError, match="power of two"):
            kl.dyadic_ladder(top)


# --- orbit claims ---


def unit(d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


def claim(check_id, norms, C, **index):
    """The record of one claim instance on a one-row orbit table."""
    record, _ = kl.kreiss._claim_group(check_id, norms[None], C, index, {})
    return record


def test_claim1_zero_operator():
    res = claim("H1", kl.orbit_norms(zero_op(), unit(4), 3), 1.0, N=4)
    assert res.passed and res.value == 1.0 and res.bound == 256.0


def test_claims_identity_operator():
    x = unit(4, 1)
    norms = kl.orbit_norms(identity_op(), x, 12)
    assert claim("H1", norms, 1.0, N=10).value == pytest.approx(10.0)
    res2 = claim("H2", norms, 1.0, N=10, M=4)
    assert res2.passed and res2.value == pytest.approx(4.0)
    res3 = claim("H3", norms, 1.0, N=9)
    assert res3.passed and res3.value == pytest.approx(9.0)
    res4 = claim("H4", norms, 1.0, N=12, M1=2, M2=6)
    assert res4.passed and res4.value == pytest.approx(4.0)


def test_claim2_shift_basis_vector():
    op = kl.build_TN(8, 0.3)
    C = kl.kb2_constant(op, 64).kb2_sum_C
    x = np.zeros(16, dtype=complex)
    x[0] = 1.0
    res = claim("H2", kl.orbit_norms(op, x, 15), C, N=15, M=8)
    assert res.status == "pass"


def test_claims_vacuous_on_annihilated_orbit():
    op = kl.build_TN(4, 0.3)  # dimension 8, nilpotent at 8
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    # With no live probe an instance checks nothing: no record, no cells.
    assert kl.kreiss._claim_group("H3", kl.orbit_norms(op, x, 8)[None], 1.0, {"N": 8}, {}) is None


@pytest.mark.parametrize("op, first", [(zero_op(), 1), (kl.build_TN(8, 0.3), 16)],
                         ids=["zero", "tn-8"])
def test_claims_at_a_vanished_power_are_left_out_and_counted(op, first):
    # T^N x = 0 on every probe from N = first on: there H2-H4 have no
    # live probe, while H1, which assumes nothing of T^N x, is kept.
    C = kl.kb2_constant(op, 32).kb2_sum_C
    results = kl.run_hilbert_claims(op, C, n_probes=3, n_top=32, params={"tag": "t"})
    ladder = kl.dyadic_ladder(32)
    vanished = [N for N in ladder if N >= first]
    instances = [(check_id, index) for check_id, index in kl.kreiss._claim_instances(ladder)
                 if check_id == "H1" or index["N"] not in vanished]
    *gated, vacuous = results
    assert [instance_key(r.check_id, r.params) for r in gated] == [
        instance_key(*instance) for instance in instances]
    assert all(r.status == "pass" and r.params["probes"] == 3 for r in gated)
    assert {r.params["N"] for r in gated if r.check_id == "H1"} == set(ladder)
    assert vacuous.check_id == "claims-vacuous" and vacuous.status == "info"
    assert vacuous.value == sum(1 for _ in kl.kreiss._claim_instances(ladder)) - len(instances)
    assert vacuous.params == {"N": vanished, "tag": "t"}
    assert len(results.rows) == 3 * len(gated)


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


def test_orbit_norms_reject_a_negative_kmax():
    # It raised IndexError from its empty table.
    with pytest.raises(kl.ValidationError, match="kmax must be non-negative, got -1"):
        kl.orbit_norms(kl.build_TN(8, 0.45), unit(8), -1)
    assert kl.orbit_norms(kl.build_TN(8, 0.45), unit(8), 0).tolist() == [1.0]


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


def instance_key(check_id, params):
    """(claim, N, M, M1, M2) of a claim instance, from its index or its record's params."""
    return (check_id, params["N"], params.get("M"), params.get("M1"), params.get("M2"))


def one_probe_claims(orbit, C, ladder, params):
    """{instance key: record} of the claim instances live on one probe's orbit alone.

    They are the one-row _claim_table of the orbit, whose claims-vacuous
    record counts the ladder's other instances; params carry the probe's
    x_seed into every record.
    """
    records = kl.kreiss._claim_table(np.asarray(orbit)[None], C, ladder, params)
    live = {instance_key(r.check_id, r.params): r for r in records
            if r.check_id != "claims-vacuous"}
    left_out = sum(r.value for r in records if r.check_id == "claims-vacuous")
    assert len(live) + left_out == sum(1 for _ in kl.kreiss._claim_instances(ladder))
    return live


def claim_row(record):
    """The claims.csv row of one probe's claim record."""
    check_id, *index = instance_key(record.check_id, record.params)
    return (check_id, record.params["x_seed"], *index,
            record.value, record.bound, record.margin, record.status)


def probe_rows(per_probe, keys):
    """The claims.csv rows of the instances keys: each probe's own row, or its vacuous cells."""
    return [claim_row(alone[key]) if key in alone else
            (key[0], i, *key[1:], None, None, None, "vacuous-pass")
            for i, alone in enumerate(per_probe) for key in keys]


def assert_claim_groups(results, per_probe, ladder, params=None):
    """results are the group records and rows of the per-probe records per_probe[probe][instance].

    An instance live on some probe has one group record, in claims.csv
    order, that gates the live probe of smallest margin (the first on
    ties) with that probe's value, bound and margin, and counts the live
    probes.  The instances live on no probe are left out and counted by
    one closing claims-vacuous record.
    """
    params = params or {}
    keys = [instance_key(*instance) for instance in kl.kreiss._claim_instances(ladder)]
    live = [key for key in keys if any(key in alone for alone in per_probe)]
    vacuous = [key for key in keys if key not in live]
    gated = results[:len(live)]
    assert [instance_key(group.check_id, group.params) for group in gated] == live
    assert results.rows == probe_rows(per_probe, live)
    closing = [kl.CheckRecord("claims-vacuous", "info", len(vacuous),
                              params={"N": sorted({key[1] for key in vacuous}), **params},
                              detail=results[-1].detail)] if vacuous else []
    assert results[len(live):] == closing
    for group, key in zip(gated, live):
        instance = [alone[key] for alone in per_probe if key in alone]
        worst = min(instance, key=lambda record: record.margin)
        index = dict(zip(("N", "M", "M1", "M2"), key[1:]))
        index = {name: value for name, value in index.items() if value is not None}
        assert group.to_dict() == kl.gate(
            worst.check_id, worst.value, worst.op, worst.bound, worst.slack,
            {**index, "x_seed": worst.params["x_seed"], "probes": len(instance),
             **params}).to_dict()


def test_run_hilbert_claims_steps_all_probes_as_one_block(monkeypatch):
    op = kl.build_bermbmp_shift(0.45, "forward", 16)
    C = kl.kb2_constant(op, 32).kb2_sum_C
    calls = []
    original = kl.kreiss.orbit_norms

    def counting(*args):
        calls.append((np.shape(args[1]), args[2]))
        return original(*args)

    monkeypatch.setattr(kl.kreiss, "orbit_norms", counting)
    results = kl.run_hilbert_claims(op, C, n_probes=3, n_top=32, seed=5, params={"tag": "t"})
    assert calls == [((kl.dimension(op), 3), 32)]
    # The ladder 1..32 has 6 H1, 6 H3, 15 pairs M < N for H2 and 20
    # triples M1 < M2 < N for H4.  The nilpotent shift of dimension 16
    # annihilates every probe from N = 16 on, so the 27 H2-H4 instances
    # there are left out and counted by one record, while H1's never are.
    # The rows are the records of each probe's own orbit, stepped alone,
    # as a one-row table.
    assert len(results) == 6 + 6 + 15 + 20 - 27 + 1 and len(results.rows) == 3 * 20
    per_probe = []
    for i in range(3):
        rng = np.random.default_rng([5, i])
        x = rng.standard_normal(kl.dimension(op)) + 1j * rng.standard_normal(kl.dimension(op))
        x /= np.linalg.norm(x)
        per_probe.append(one_probe_claims(kl.orbit_norms(op, x, 32), C, kl.dyadic_ladder(32),
                                          {"x_seed": i, "tag": "t"}))
    assert_claim_groups(results, per_probe, kl.dyadic_ladder(32), {"tag": "t"})
    *gated, vacuous = results
    assert all(record.status == "pass" for record in gated)
    assert {r.params["N"] for r in gated if r.check_id == "H1"} == {1, 2, 4, 8, 16, 32}
    assert vacuous.value == 27 and vacuous.params == {"N": [16, 32], "tag": "t"}


def doctored_claims(monkeypatch, doctor, n_probes=4, finite=True):
    """run_hilbert_claims of tn 8 with doctor(orbits) applied to its orbit table.

    Returns (results, the records of each doctored orbit alone, C).
    A table that is not finite (finite=False) must raise ConvergenceError
    in run_hilbert_claims; its results are then those of the table
    evaluator that run_hilbert_claims hands a finite table.
    """
    op = kl.build_TN(8, 0.3)
    C = kl.kb2_constant(op, 32).kb2_sum_C
    tables = []

    def doctored(*args):
        orbits = doctor(kl.orbit_norms(*args))
        tables.append(orbits)
        return orbits

    monkeypatch.setattr(kl.kreiss, "orbit_norms", doctored)
    if finite:
        results = kl.run_hilbert_claims(op, C, n_probes=n_probes, n_top=16)
    else:
        with pytest.raises(kl.ConvergenceError, match="not finite"):
            kl.run_hilbert_claims(op, C, n_probes=n_probes, n_top=16)
        results = kl.kreiss._claim_table(tables[0], C, kl.dyadic_ladder(16), {})
    per_probe = [one_probe_claims(orbit, C, kl.dyadic_ladder(16), {"x_seed": i})
                 for i, orbit in enumerate(tables[0])]
    return results, per_probe, C


def test_claim_group_gates_its_live_probes_only(monkeypatch):
    # Probe 1 vanishes from j = 5 on, the other probes stay live up to 16.
    def cut(orbits):
        orbits[1, 5:] = 0.0
        return orbits

    results, per_probe, _ = doctored_claims(monkeypatch, cut)
    assert_claim_groups(results, per_probe, kl.dyadic_ladder(16))
    by_instance = {instance_key(r.check_id, r.params): r for r in results
                   if r.check_id != "claims-vacuous"}
    mixed = by_instance[("H3", 8, None, None, None)]
    assert mixed.status == "pass" and mixed.params["probes"] == 3 and mixed.params["x_seed"] != 1
    # A probe that is not live in a partly live instance keeps its vacuous cells.
    assert [row[-1] for row in results.rows if row[:3] == ("H3", 1, 8)] == ["vacuous-pass"]
    assert by_instance[("H3", 4, None, None, None)].params["probes"] == 4
    # H1 has no vacuous case: it gates every probe at every N.
    assert {r.params["probes"] for r in results if r.check_id == "H1"} == {4}


def test_one_failing_probe_fails_its_group_and_the_exit_status(monkeypatch, tmp_path):
    # Probe 2's orbit grows 1000-fold after j = 0: H1 fails on it alone.
    def grow(orbits):
        orbits[2, 1:] *= 1e3
        return orbits

    results, per_probe, _ = doctored_claims(monkeypatch, grow)
    assert_claim_groups(results, per_probe, kl.dyadic_ladder(16))
    failing = [r for r in results if r.status == "fail"]
    assert failing and all(r.params["x_seed"] == 2 for r in failing)
    assert {row[1] for row in results.rows if row[-1] == "fail"} == {2}
    code = kl.cli.main(["claims", "--operator", "tn", "--trunc", "8", "--eta", "0.3",
                        "--n-max", "32", "--k-max", "16", "--probes", "4",
                        "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_bytes())
    assert report["summary"]["failed"] == len([r for r in report["results"]
                                               if r["status"] == "fail"]) > 0


def test_a_nan_lhs_fails_its_group(monkeypatch):
    # ||T^3 x|| of probe 1 is NaN: every instance that sums it fails on
    # that probe alone, and its group gates the NaN before any finite margin.
    def poison(orbits):
        orbits[1, 3] = np.nan
        return orbits

    results, per_probe, _ = doctored_claims(monkeypatch, poison, finite=False)
    assert [r.status for r in results if r.check_id == "H1"] == ["pass"] * 2 + ["fail"] * 3
    *gated, vacuous = results
    assert vacuous.check_id == "claims-vacuous"  # N = 16: TN 8 is nilpotent there
    keys = [instance_key(group.check_id, group.params) for group in gated]
    for group, key in zip(gated, keys):
        alone = per_probe[1][key]
        assert (group.status == "fail") == (alone.status == "fail") == (alone.value != alone.value)
        if group.status == "fail":
            assert math.isnan(group.value) and group.params["x_seed"] == 1
    rows = probe_rows(per_probe, keys)
    assert [row for row in results.rows if row[1] != 1] == [row for row in rows if row[1] != 1]
    assert ([row[-1] for row in results.rows if row[1] == 1]
            == [row[-1] for row in rows if row[1] == 1])


def test_claims_raise_no_warning_from_vacuous_probes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(kl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-W", "error", "-m", "kreisslab", "reproduce",
                          "thm2.7-claims", "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "Warning" not in out.stderr
    report = json.loads((tmp_path / "report.json").read_bytes())
    assert report["summary"]["failed"] == 0 and report["summary"]["no_verdict"] == 4
    assert sum(r["value"] for r in report["results"] if r["check_id"] == "claims-vacuous") == 60


def test_claim_driver_zero_failures():
    for op in (kl.build_TN(16, 0.45), kl.build_bermbmp_shift(0.45, "forward", 64)):
        C = kl.kb2_constant(op, 256).kb2_sum_C
        results = kl.run_hilbert_claims(op, C, n_probes=8, n_top=64)
        assert not any(r.passed is False for r in results)
        # nilpotent truncations leave out the instances past their vanishing power
        assert results[-1].check_id == "claims-vacuous" and results[-1].value > 0
        assert "vacuous-pass" not in {r.status for r in results}


def test_thm27_gates_every_live_instance():
    # tn-16 (dimension 32) and bermbmp-64 vanish exactly from N = 32 and N = 64
    # on: every instance below is live, and only the H2-H4 ones above are left out.
    records, tables = reproduce._thm27(kl.SEED)
    gated = [r for r in records if r.status in ("pass", "fail")]
    assert len(gated) == 80 and all(r.status == "pass" for r in gated)
    assert Counter(r.check_id for r in gated) == {"H1": 14, "H2": 25, "H3": 11, "H4": 30}
    vacuous = {r.params["operator"]: r for r in records if r.check_id == "claims-vacuous"}
    ladder = kl.dyadic_ladder(64)
    for label, first in (("tn-16-0.45", 32), ("bermbmp-0.45-64", 64)):
        left_out = [(check_id, index) for check_id, index in kl.kreiss._claim_instances(ladder)
                    if check_id != "H1" and index["N"] >= first]
        assert vacuous[label].value == len(left_out)
        assert vacuous[label].params == {"N": [N for N in ladder if N >= first],
                                         "operator": label}
        ours = [instance_key(r.check_id, r.params) for r in gated
                if r.params["operator"] == label]
        assert ours == [instance_key(*instance)
                        for instance in kl.kreiss._claim_instances(ladder)
                        if instance not in left_out]
    assert [r.value for r in vacuous.values()] == [38, 22]
    assert len(tables["claims.csv"][1]) == 64 * 80


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


def test_tn_claim1_bound_equals_the_direct_double_sum():
    d, eta = 64, 0.45
    rng = np.random.default_rng(11)
    gamma = np.abs(rng.standard_normal(d))
    gamma /= np.linalg.norm(gamma)
    delta = np.abs(rng.standard_normal(d))
    delta /= np.linalg.norm(delta)
    powers = np.arange(1, d + 1, dtype=float) ** eta
    for n in (1, 8, 64, 100):
        total = 0.0
        for j in range(1, d + 1):
            window = np.arange(j, min(j + n, d) + 1)
            total += gamma[j - 1] * float(
                np.sum(delta[window - 1] * powers[window - 1] / powers[j - 1]))
        res = kl.tn_claim1_bound(eta, n, gamma, delta, 1.0)
        assert res.value == pytest.approx(total / (n + 1), rel=1e-13), n


def test_tn_claim1_validation():
    bad = np.ones(4)
    bad[0] = -1.0
    with pytest.raises(kl.ValidationError):
        kl.tn_claim1_bound(0.3, 2, bad / np.linalg.norm(bad), np.ones(4) / 2.0, 1.0)
    with pytest.raises(kl.ValidationError):
        kl.tn_claim1_bound(0.3, -1, np.ones(4) / 2.0, np.ones(4) / 2.0, 1.0)


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
    import mpmath

    m = 10**6
    res = kl.tn_claim2_bound(eta, m)
    assert res.passed
    # zeta(s) - zeta(s, M + 1) is the partial sum sum_{j<=M} j^(-s), for s < 1 too.
    with mpmath.workdps(40):
        exact = mpmath.zeta(2 * eta) - mpmath.zeta(2 * eta, m + 1)
        assert abs(mpmath.mpf(res.value) - exact) <= 1e-13 * exact


def test_tn_claim2_streams_its_sum():
    # Holding all 10^6 terms at once takes 16 MiB.
    assert traced_peak(lambda: kl.tn_claim2_bound(0.45, 10**6)) < 2 * 2**20


# --- square-root growth bound ---


def test_lemma_constant_sequence():
    res = kl.lemma21_bound(np.ones(2001))
    assert res.status == "pass"
    assert res.params["B"] <= 1.0
    assert res.params["r_grid"] == [1.0 - 2.0**-m for m in range(1, 13)]


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


def test_lemma_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(kl.ValidationError, match="finite"):
            kl.lemma21_bound([1.0, 2.0, bad])


# --- spectral radius certification ---


def test_certify_spectral_radius_structures():
    assert certify_spectral_radius(kl.build_TN(4, 0.3)) == 0.0
    assert certify_spectral_radius(kl.build_shields_counterexample(0.15, 0.45, 3)) == 0.0
    assert certify_spectral_radius(kl.build_tz_block(4)) == 0.0
    assert certify_spectral_radius(kl.build_ergces(6)) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    big = kl.Dense(rng.standard_normal((300, 300)))  # beyond the eigenvalue cap
    assert certify_spectral_radius(big) is None
