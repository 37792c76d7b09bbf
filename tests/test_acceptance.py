"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL
line (run pytest with -s to see them inline).  Expected values come
from closed forms or independent dense computations; tolerances are
fixed here and nowhere else.
"""

import numpy as np

import kreisslab as kl
from kreisslab.cesaro import _rotated_mean_norms
from kreisslab.kreiss import default_radii
from kreisslab.reports import to_json_bytes
from kreisslab.reproduce import CANONICAL_CATALOG


def _report(number, label, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {label} {detail}".rstrip())
    assert passed, f"criterion {number}: {label} {detail}"


def test_criterion_01_exact_shift_norms():
    worst_norm = 0.0
    worst_power = 0.0
    for eta in (0.25, 0.45):
        for n in (8, 16, 32, 64):
            op = kl.build_TN(n, eta)
            est = kl.spectral_norm(op, tol=1e-12)
            assert est.method == "power-iteration"
            worst_norm = max(worst_norm, abs(est.value - 2**eta) / 2**eta)
            power = np.linalg.matrix_power(kl.materialize(op), 2 * n - 1)
            top = kl.spectral_norm(kl.Dense(power), tol=1e-10)
            expected = float(n) ** (2 * eta)
            worst_power = max(worst_power, abs(top.value - expected) / expected)
    _report(1, "transient shift norms", worst_norm <= 1e-9 and worst_power <= 1e-6,
            f"(norm rel err {worst_norm:.2e}, power rel err {worst_power:.2e})")


def test_criterion_02_uniform_mean_bound():
    # Certified sides of each sup: the upper side at N = 64 against the
    # lower sides at N = 32 and 8.
    eta = 0.25
    lower, upper = {}, {}
    for n in (8, 32, 64):
        means = kl.shift_mean_norm_bracket(kl.build_TN(n, eta), range(8 * n + 1))
        lower[n], upper[n] = float(means.lower.max()), float(means.upper.max())
    ok = upper[64] <= 1.05 * lower[32] and upper[64] <= 1.10 * lower[8]
    _report(2, "size-independent mean bound", ok,
            f"(c* in [{lower[8]:.4f}, {upper[8]:.4f}], [{lower[32]:.4f}, {upper[32]:.4f}], "
            f"[{lower[64]:.4f}, {upper[64]:.4f}] at eta={eta})")


def test_criterion_03_direct_sum_growth():
    epsilon, eta, n_max = 0.15, 0.45, 64
    op = kl.build_shields_counterexample(epsilon, eta, n_max)
    k_top = kl.shields_certified_kmax(n_max)
    series = kl.power_norms(op, k_top)
    lower = (1.0 / 3.0) * (series.k + 1.0) ** (1.0 - epsilon)
    bound_ok = bool(np.all(series.values >= lower))
    fit = kl.growth_fit(series, (16, k_top))
    fit_ok = 0.85 <= fit.exponent <= 0.95
    _report(3, "direct-sum power growth", bound_ok and fit_ok,
            f"(min margin {np.min(series.values - lower):.3f}, "
            f"exponent {fit.exponent:.4f})")


def test_criterion_04_orbit_claims():
    # Both truncations are nilpotent within the ladder: the H2-H4 instances at a
    # vanished orbit power are left out and counted, never passed.
    total = {"fail": 0, "vacuous": 0, "checked": 0, "vacuous-pass": 0}
    for op in (kl.build_TN(16, 0.45), kl.build_bermbmp_shift(0.45, "forward", 64)):
        constant = kl.kb2_constant(op, 256).kb2_sum_C
        for res in kl.run_hilbert_claims(op, constant, n_probes=64, n_top=64):
            if res.check_id == "claims-vacuous":
                total["vacuous"] += res.value
                continue
            total["checked"] += 1
            if res.passed is False:
                total["fail"] += 1
            if res.status == "vacuous-pass":
                total["vacuous-pass"] += 1
    ok = total["fail"] == 0 and total["vacuous-pass"] == 0 and total["vacuous"] == 60
    _report(4, "orbit inequality claims", ok,
            f"({total['checked']} instances, {total['vacuous']} vacuous left out, "
            f"{total['fail']} failures)")


def test_criterion_05_mean_identities_and_decay():
    worst = 0.0
    for name, params in CANONICAL_CATALOG:
        op = kl.make_operator(name, **params).spec
        worst = max(worst, kl.cesaro_identity_check(op, 64).max())
    decay_ok = True
    for op in (kl.build_TN(32, 0.45), kl.build_ergces(20)):
        diffs = kl.mean_difference_decay(op, (64, 512))
        decay_ok = decay_ok and diffs[1] < diffs[0]
    _report(5, "mean identities and difference decay", worst <= 1e-10 and decay_ok,
            f"(max identity residual {worst:.2e})")


def test_criterion_06_triangular_model():
    j_max = 20
    op = kl.build_ergces(j_max)
    mat = kl.materialize(op)
    size = j_max + 1

    power = np.eye(size, dtype=complex)
    worst_gap = 0.0
    for n in range(1, 201):
        power = power @ mat
        gap = float(np.max(np.abs(power - kl.ergces_power_closed_form(j_max, n))))
        worst_gap = max(worst_gap, gap)

    eps = 2.0 ** (-np.arange(1, j_max + 1, dtype=float))
    power = np.eye(size, dtype=complex)
    total = np.eye(size, dtype=complex)
    worst_norm = 0.0
    worst_entry = -np.inf
    for n in range(1, 257):
        power = power @ mat
        total = total + power
        if n % 2 == 0:
            mean = total / (n + 1)
            worst_norm = max(worst_norm, float(np.linalg.norm(mean, 2)))
            worst_entry = max(worst_entry, float(np.max(np.abs(mean[0, 1:]) - eps / 2.0)))

    series = kl.power_norms(op, 256)
    ratio32 = float(series.values[31]) / 32.0
    ratio256 = float(series.values[255]) / 256.0

    ok = (worst_gap <= 1e-13 and worst_norm <= 1.5 + 1e-6 and worst_entry <= 1e-9
          and ratio256 < ratio32 / 2.0)
    _report(6, "triangular model closed forms and means", ok,
            f"(gap {worst_gap:.2e}, mean sup {worst_norm:.4f}, "
            f"decay {ratio256 / ratio32:.3f})")


def test_criterion_07_block_transient_growth():
    d = 512
    series = kl.power_norms(kl.build_tz_block(d), 32)
    ratios = series.values / series.k
    # Independent oracle: a truncation never exceeds the symbol bound n + sqrt(n^2 + 1).
    n = series.k.astype(float)
    symbol = float(np.max(series.values / (n + np.sqrt(n * n + 1.0))))
    _report(7, "block operator transient growth",
            bool(np.all(ratios >= 1.9)) and symbol <= 1.0 + 1e-12,
            f"(min ratio {ratios.min():.4f}, max symbol ratio {symbol:.7f} at d={d})")


def test_criterion_08_sqrt_growth_oracle():
    n = np.arange(0, 10001, dtype=float)
    good = kl.lemma21_bound(np.sqrt(n + 1.0))
    bad = kl.lemma21_bound(n)
    ok = good.status == "pass" and bad.status == "hypothesis-diverged"
    _report(8, "square-root growth oracle", ok,
            f"(B {good.params['B']:.4f}, max ratio {good.value:.4f}; "
            f"linear sequence diverged: {bad.params['diverged']})")


def test_criterion_09_power_sum_bound():
    worst = -np.inf
    for eta in (0.05, 0.15, 0.25, 0.35, 0.45):
        # cumulative comparison covers every M up to 10**6 in one sweep
        j = np.arange(1, 10**6 + 1, dtype=float)
        sums = np.cumsum(j ** (-2 * eta))
        bounds = j ** (1 - 2 * eta) / (1 - 2 * eta)
        assert np.all(sums <= bounds * (1 + 1e-12)), eta
        worst = max(worst, float(np.max(sums / bounds)))
        for m in (1, 10, 1000, 10**6):
            res = kl.tn_claim2_bound(eta, m)
            assert res.passed, (eta, m)
    _report(9, "power-sum comparison bound", worst <= 1.0 + 1e-12,
            f"(max lhs/bound {worst:.6f} over every M <= 1e6)")


def test_criterion_10_structural_properties():
    rng = np.random.default_rng(0x5EED)
    notes = []

    # adjoint consistency across every variant
    zoo = (
        kl.build_TN(4, 0.25),
        kl.build_bermbmp_shift(0.3, "backward", 6),
        kl.build_ergces(5),
        kl.build_tz_block(4),
        kl.build_shields_counterexample(0.15, 0.45, 3),
        kl.RotatedScale(np.exp(0.7j), kl.build_TN(3, 0.3)),
        kl.Dense(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))),
    )
    adjoint_ok = True
    for op in zoo:
        d = kl.dimension(op)
        for _ in range(8):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            gap = abs(np.vdot(y, kl.apply(op, x)) - np.vdot(kl.apply_adjoint(op, y), x))
            adjoint_ok = adjoint_ok and gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
    notes.append(f"adjoint={adjoint_ok}")

    # closed-form shift powers against the dense SVD oracle
    closed_ok = True
    for op in (kl.build_TN(6, 0.45), kl.build_bermbmp_shift(0.3, "forward", 10)):
        series = kl.power_norms(op, kl.dimension(op))
        mat = kl.materialize(op)
        power = np.eye(kl.dimension(op), dtype=complex)
        for k in range(1, kl.dimension(op) + 1):
            power = power @ mat
            sigma = np.linalg.svd(power, compute_uv=False)[0]
            closed_ok = closed_ok and abs(series.values[k - 1] - sigma) <= 1e-8 * max(
                sigma, 1e-300
            )
    notes.append(f"closed-form={closed_ok}")

    # submultiplicativity on sampled exponent pairs
    sub_ok = True
    for op in (kl.build_TN(6, 0.4), kl.build_ergces(6)):
        series = kl.power_norms(op, 12)
        for k in (1, 2, 5):
            for m in (1, 3, 7):
                sub_ok = sub_ok and series.values[k + m - 1] <= series.values[
                    k - 1
                ] * series.values[m - 1] * (1 + 1e-8)
    notes.append(f"submultiplicative={sub_ok}")

    # rotation invariance: means on a 64-angle grid and matched constants
    rot_ok = True
    for op in (kl.build_TN(4, 0.3), kl.build_bermbmp_shift(0.3, "forward", 8)):
        lams = np.exp(2j * np.pi * np.arange(64) / 64)
        table, _ = _rotated_mean_norms(kl.Dense(kl.materialize(op)), 12, lams)
        rot_ok = rot_ok and float((table.max(axis=0) - table.min(axis=0)).max()) <= 1e-9
    grid = kl.AnnulusGrid(default_radii(6), 8)
    plain = kl.kreiss_constant(kl.Dense(kl.materialize(kl.build_TN(6, 0.3))), grid).kreiss_C
    spun = kl.kreiss_constant(
        kl.Dense(1j * kl.materialize(kl.build_TN(6, 0.3))), grid
    ).kreiss_C
    rot_ok = rot_ok and abs(plain - spun) <= 1e-9 * plain
    notes.append(f"rotation={rot_ok}")

    # grid refinement never lowers a reported sup
    mono_ok = True
    op = kl.build_ergces(8)
    small = kl.AnnulusGrid(default_radii(6), 8)
    fine = kl.AnnulusGrid(default_radii(12), 16)  # a superset of small's points
    mono_ok = mono_ok and kl.kreiss_constant(op, fine).kreiss_C >= (
        kl.kreiss_constant(op, small).kreiss_C
    )
    mono_ok = mono_ok and kl.uniform_kreiss_constant(op, 32, 16).ukb_C >= (
        kl.uniform_kreiss_constant(op, 32, 8).ukb_C
    )
    mono_ok = mono_ok and kl.strong_kreiss_constant(op, small, 4).strong_C <= (
        kl.strong_kreiss_constant(op, small, 8).strong_C
    )
    notes.append(f"monotone={mono_ok}")

    # direct-sum norms are summand maxima, exactly
    a, b = kl.build_TN(3, 0.3), kl.build_TN(5, 0.3)
    both = kl.power_norms(kl.DirectSum((a, b)), 9).values
    parts = np.maximum(kl.power_norms(a, 9).values, kl.power_norms(b, 9).values)
    sum_ok = bool(np.array_equal(both, parts))
    notes.append(f"direct-sum={sum_ok}")

    # deterministic serialization
    doc = {"values": [0.1, 2.0, 3.5e-17], "tag": "x"}
    det_ok = to_json_bytes(doc) == to_json_bytes(doc)
    notes.append(f"deterministic={det_ok}")

    ok = all((adjoint_ok, closed_ok, sub_ok, rot_ok, mono_ok, sum_ok, det_ok))
    _report(10, "structural property suites", ok, "(" + ", ".join(notes) + ")")
