"""Canonical end-to-end runs, one per supported experiment id.

Each runner re-derives its expected values from closed forms or
independent dense computations, produces result records plus CSV data
tables, and is wired to the `reproduce` CLI subcommand.  Exit status is
zero exactly when no definite check failed; vacuous passes and purely
informational records are listed separately in the report summary.
"""

from __future__ import annotations

import math

import numpy as np

from .cesaro import (
    _power_sums,
    cesaro_identity_check,
    ergodic_probe,
    mean_difference_decay,
    rotated_mean_norm_profile,
)
from .constructions import (
    build_TN,
    build_bermbmp_shift,
    build_ergces,
    build_shields_counterexample,
    build_tz_block,
    ergces_power_closed_form,
    make_operator,
    shields_certified_kmax,
    tz_block_power,
)
from .errors import ValidationError
from .growth import growth_fit
from .kreiss import (
    dyadic_ladder,
    kb2_constant,
    lemma21_bound,
    orbit_norms,
    run_hilbert_claims,
    tn_claim1_bound,
    tn_claim2_bound,
    uniform_kreiss_constant,
)
from .operators import (
    SEED,
    Dense,
    NormSeries,
    _matrix_norm,
    apply,
    materialize,
    power_norms,
    spectral_norm,
)
from .reports import CheckRecord, RunConfig, emit_report, summarize

#: Catalog instances small enough to sweep identities across in bulk.
CANONICAL_CATALOG = (
    ("tn", {"n": 8, "eta": 0.3}),
    ("shields", {"epsilon": 0.15, "eta": 0.45, "n_max": 4}),
    ("bermbmp", {"alpha": 0.45, "direction": "forward", "d": 16}),
    ("ergces", {"j_max": 12}),
    ("tzblock", {"d": 16}),
)


def _rel_err(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


def _check(check_id, value, bound, passed, detail="") -> dict:
    return CheckRecord(check_id, passed, value, bound, detail=detail).to_dict()


def _info(check_id, value, detail="") -> dict:
    return CheckRecord(check_id, None, value, None, status="info", detail=detail).to_dict()


def _thm24(seed: int):
    results = []
    norm_rows = []
    mean_rows = []
    cstar = {}
    for eta in (0.25, 0.45):
        for n in (8, 16, 32, 64):
            op = build_TN(n, eta)
            est = spectral_norm(op, tol=1e-12)
            expected = 2.0**eta
            rel = _rel_err(est.value, expected)
            results.append(_check(f"tn-norm-n{n}-eta{eta}", est.value, expected, rel <= 1e-9,
                                  f"method={est.method} rel_err={rel:.3e}"))
            norm_rows.append((eta, n, "norm", est.value, expected, rel))

            k_top = 2 * n - 1
            closed = float(power_norms(op, k_top).values[-1])
            top_expected = float(n) ** (2.0 * eta)
            rel_closed = _rel_err(closed, top_expected)
            power = np.linalg.matrix_power(materialize(op), k_top)
            est_top = spectral_norm(Dense(power))
            rel_top = _rel_err(est_top.value, top_expected)
            results.append(_check(f"tn-power-n{n}-eta{eta}", est_top.value, top_expected,
                                  rel_top <= 1e-6 and rel_closed <= 1e-12,
                                  f"closed_form_rel_err={rel_closed:.3e}"))
            norm_rows.append((eta, n, f"power-{k_top}", est_top.value, top_expected, rel_top))

            profile = rotated_mean_norm_profile(op, 8 * n, angle_count=1)
            cstar[(eta, n)] = float(profile.sup_lambda.max())
            for m, v in zip(profile.n, profile.norm_m1):
                mean_rows.append((eta, n, int(m), float(v)))

    # The uniform mean bound degrades as eta approaches 1/2, so the
    # N-independence ratios are gated at eta = 0.25 and reported
    # informationally at eta = 0.45.
    results.append(_check("tn-mean-ratio-64-32", cstar[(0.25, 64)] / cstar[(0.25, 32)], 1.05,
                          cstar[(0.25, 64)] <= 1.05 * cstar[(0.25, 32)], "eta=0.25"))
    results.append(_check("tn-mean-ratio-64-8", cstar[(0.25, 64)] / cstar[(0.25, 8)], 1.10,
                          cstar[(0.25, 64)] <= 1.10 * cstar[(0.25, 8)], "eta=0.25"))
    for n in (8, 16, 32, 64):
        results.append(_info(f"tn-mean-sup-n{n}-eta0.45", cstar[(0.45, n)]))

    for eta in (0.25, 0.45):
        guide = build_bermbmp_shift(eta, "forward", 64)
        c1 = float(uniform_kreiss_constant(guide, 256).ukb_C)
        rng = np.random.default_rng([seed, 24])
        for pair in range(8):
            gamma = np.abs(rng.standard_normal(64))
            gamma /= np.linalg.norm(gamma)
            delta = np.abs(rng.standard_normal(64))
            delta /= np.linalg.norm(delta)
            for n in dyadic_ladder(64):
                results.append(
                    tn_claim1_bound(eta, n, gamma, delta, c1, {"pair": pair}).to_dict()
                )
    for eta in (0.05, 0.15, 0.25, 0.35, 0.45):
        for m in (1, 10, 1000, 10**6):
            results.append(tn_claim2_bound(eta, m).to_dict())

    tables = {
        "tn_norms.csv": (("eta", "n", "check", "estimate", "expected", "rel_err"), norm_rows),
        "tn_means.csv": (("eta", "n", "m", "mean_norm"), mean_rows),
    }
    return results, tables


def _thm25(seed: int):
    epsilon, eta, n_max = 0.15, 0.45, 64
    op = build_shields_counterexample(epsilon, eta, n_max)
    k_top = shields_certified_kmax(n_max)
    full = power_norms(op, 2 * n_max - 1)  # odd-power identities reach k = 2 n_max - 1
    series = NormSeries(full.k[:k_top], full.values[:k_top], full.methods[:k_top])
    results = []

    norm = float(power_norms(op, 1).values[0])
    results.append(_check("shields-norm", norm, math.sqrt(2.0),
                          abs(norm - 2.0**eta) <= 1e-12 and norm < math.sqrt(2.0),
                          "norm equals 2**eta and stays below sqrt(2)"))

    lower = (1.0 / 3.0) * (series.k + 1.0) ** (1.0 - epsilon)
    holds = bool(np.all(series.values >= lower))
    results.append(_check("shields-lower-bound", float(np.min(series.values - lower)), 0.0,
                          holds, f"all k <= {k_top}"))

    # At n = 1 the larger summands dominate: ||T|| = 2**eta > 1, so the
    # closed-form identity starts at n = 2 and only ">=" holds before.
    worst_odd = max(
        _rel_err(float(full.values[2 * n - 2]), float(n) ** (2.0 * eta))
        for n in range(2, n_max + 1)
    )
    results.append(_check("shields-odd-powers", worst_odd, 1e-12, worst_odd <= 1e-12,
                          "||T^(2n-1)|| = n^(2 eta), worst relative error over 2 <= n <= n_max"))
    results.append(_check("shields-odd-power-floor", float(full.values[0]), 1.0,
                          float(full.values[0]) >= 1.0, "||T^1|| >= 1^(2 eta)"))
    worst_even = max(
        (float(n + 1) ** (2.0 * eta) / 2.0**eta - float(full.values[2 * n - 1]))
        / (float(n + 1) ** (2.0 * eta) / 2.0**eta)
        for n in range(1, n_max)
    )
    results.append(_check("shields-even-powers", worst_even, 1e-12, worst_even <= 1e-12,
                          "||T^(2n)|| >= (n+1)^(2 eta) / 2^eta, worst relative deficit"))

    fit = growth_fit(series, (16, k_top), epsilon=epsilon)
    results.append(_check("shields-growth-exponent", fit.exponent, 0.95,
                          0.85 <= fit.exponent <= 0.95,
                          f"window=[16,{k_top}] rms={fit.residual_rms:.3e}"))

    rows = [
        (int(k), float(v), float(lb), bool(v >= lb))
        for k, v, lb in zip(series.k, series.values, lower)
    ]
    return results, {"growth.csv": (("k", "norm", "lower_bound", "pass"), rows)}


def _thm27(seed: int):
    results = []
    rows = []
    for label, op in (
        ("tn-16-0.45", build_TN(16, 0.45)),
        ("bermbmp-0.45-64", build_bermbmp_shift(0.45, "forward", 64)),
    ):
        report = kb2_constant(op, 256)
        c_quad = float(report.kb2_sum_C)
        results.append(_info(f"kb2-sum-constant-{label}", c_quad,
                             f"kb2_C={report.kb2_C:.6g}"))
        claims = run_hilbert_claims(op, c_quad, n_probes=64, n_top=64, seed=seed)
        for claim in claims:
            record = claim.to_dict()
            record["operator"] = label
            results.append(record)
            rows.append(
                (label, claim.claim_id, claim.params.get("x_seed"), claim.params.get("N"),
                 claim.params.get("M"), claim.params.get("M1"), claim.params.get("M2"),
                 claim.lhs, claim.bound, claim.margin, claim.status)
            )
    header = ("operator", "claim", "x_seed", "N", "M", "M1", "M2", "lhs", "bound", "margin",
              "status")
    return results, {"claims.csv": (header, rows)}


def _thm28(seed: int):
    results = []
    identity_rows = []
    decay_rows = []
    for name, params in CANONICAL_CATALOG:
        entry = make_operator(name, **params)
        worst = 0.0
        for n in range(1, 65):
            res = cesaro_identity_check(entry.spec, n)
            worst = max(worst, res)
            identity_rows.append((name, n, res))
        results.append(_check(f"mean-identities-{name}", worst, 1e-10, worst <= 1e-10,
                              "max residual over n <= 64"))
    decay = {
        label: dict(zip(ladder, map(float, mean_difference_decay(op, ladder))))
        for label, op, ladder in (("tn-32-0.45", build_TN(32, 0.45), (64, 512)),
                                  ("ergces-20", build_ergces(20), (64, 256, 512)))
    }
    for label, diffs in decay.items():
        decay_rows.extend((label, n, diffs[n]) for n in (64, 512))
        results.append(_check(f"mean-difference-decay-{label}", diffs[512], diffs[64],
                              diffs[512] < diffs[64], "strictly smaller at n=512 than n=64"))
    ergces_256 = decay["ergces-20"][256]
    results.append(_check("mean-difference-ergces-256", ergces_256, 0.07, ergces_256 <= 0.07))
    tables = {
        "identity.csv": (("operator", "n", "residual"), identity_rows),
        "decay.csv": (("operator", "n", "difference_norm"), decay_rows),
    }
    return results, tables


def _prop35(seed: int):
    j_max = 20
    op = build_ergces(j_max)
    mat = materialize(op)
    size = j_max + 1
    results = []

    eps = 2.0 ** (-np.arange(1, j_max + 1, dtype=float))
    gap_rows = []
    worst_gap = 0.0
    mean_rows = []
    worst_norm = 0.0
    worst_entry_excess = -np.inf
    for n, power, total in _power_sums(lambda p: p @ mat, np.eye(size, dtype=complex), 256):
        if n <= 200:
            gap = float(np.max(np.abs(power - ergces_power_closed_form(j_max, n))))
            worst_gap = max(worst_gap, gap)
            gap_rows.append((n, gap))
        if n % 2 == 0:
            mean = total / (n + 1)
            norm = float(np.linalg.norm(mean, 2))
            worst_norm = max(worst_norm, norm)
            excess = float(np.max(np.abs(mean[0, 1:]) - eps / 2.0))
            worst_entry_excess = max(worst_entry_excess, excess)
            mean_rows.append((n // 2, norm))
    results.append(_check("ergces-closed-form-powers", worst_gap, 1e-10, worst_gap <= 1e-10,
                          "entrywise gap over n <= 200"))
    results.append(_check("ergces-even-mean-bound", worst_norm, 1.5 + 1e-6,
                          worst_norm <= 1.5 + 1e-6, "max over k <= 128"))
    results.append(_check("ergces-even-mean-entries", worst_entry_excess, 1e-9,
                          worst_entry_excess <= 1e-9,
                          "max of |(M_2k)_{0,j}| - eps_j/2"))

    series = power_norms(op, 256)
    r32 = float(series.values[31]) / 32.0
    r256 = float(series.values[255]) / 256.0
    results.append(_check("ergces-power-decay", r256, r32 / 2.0, r256 < r32 / 2.0,
                          "n^-1 ||T^n|| halves between n=32 and n=256"))

    e0 = np.zeros(size)
    e0[0] = 1.0
    got = apply(op, e0)
    results.append(_check("ergces-fixed-direction", float(np.max(np.abs(got + e0))), 0.0,
                          bool(np.max(np.abs(got + e0)) == 0.0), "column 0 is -e_0"))
    worst_witness = 0.0
    witness_rows = []
    for j in range(1, j_max + 1):
        ej = np.zeros(size)
        ej[j] = 1.0
        image = apply(op, -ej / eps[j - 1]) + (-ej / eps[j - 1])
        expected = e0.copy()
        expected[j] = -eps[j - 1]
        worst_witness = max(worst_witness, float(np.max(np.abs(image - expected))))
        witness_rows.append((j, float(np.linalg.norm(image - e0))))
    results.append(_check("ergces-range-witness", worst_witness, 1e-12, worst_witness <= 1e-12,
                          "(T+I)(-e_j/eps_j) = e_0 - eps_j e_j, residual norm eps_j"))

    probe = ergodic_probe(
        op, probes=8, ladder=(16, 64, 256, 1024, 4096, 8192, 16384)
    )
    results.append(_check("ergces-ergodic-probe", float(probe.gaps[:, -1].max()), probe.tolerance,
                          probe.consistent, "Cauchy gaps at the ladder top"))

    tables = {
        "power_gap.csv": (("n", "max_abs_gap"), gap_rows),
        "even_means.csv": (("k", "mean_norm"), mean_rows),
        "range_witness.csv": (("j", "distance_to_e0"), witness_rows),
    }
    return results, tables


def _ex29(seed: int):
    results = []
    d_small = 8
    mat = materialize(build_tz_block(d_small))
    powers = _power_sums(lambda p: p @ mat, np.eye(2 * d_small), 2 * d_small)
    gap = max(float(np.max(np.abs(power - tz_block_power(d_small, n)))) for n, power, _ in powers)
    results.append(_check("tz-block-power-formula", gap, 1e-12, gap <= 1e-12,
                          f"d={d_small}, n <= {2 * d_small}"))

    # The closed form builds each power directly; its integer entries make
    # it equal to the dense power bit for bit.
    d = 512
    k = np.arange(1, 33)
    values = np.array([_matrix_norm(tz_block_power(d, n)).value for n in k])
    ratios = values / k
    rows = [(int(n), float(v), float(r)) for n, v, r in zip(k, values, ratios)]
    results.append(_check("tz-transient-growth", float(ratios.min()), 1.9,
                          bool(np.all(ratios >= 1.9)),
                          f"min over n <= 32 of n^-1 ||T^n|| at d={d}"))
    # The first d coordinates of each half span an invariant subspace of
    # the infinite block-Toeplitz operator, so every truncation stays
    # below the sup of its symbol: ||T^n|| <= n + sqrt(n^2 + 1).
    symbol_ratio = float(np.max(values / (k + np.sqrt(k**2 + 1.0))))
    results.append(_check("tz-symbol-bound", symbol_ratio, 1.0, symbol_ratio <= 1.0 + 1e-12,
                          f"max over n <= 32 of ||T^n|| / (n + sqrt(n^2 + 1)) at d={d}"))

    probe_vectors = []
    for j in (0, 3, 17, 256, 261):
        e = np.zeros(2 * 256)
        e[j] = 1.0
        probe_vectors.append(e)
    probe = ergodic_probe(build_tz_block(256), probes=probe_vectors)
    results.append(_check("tz-ergodic-probe", float(probe.gaps[:, -1].max()), probe.tolerance,
                          probe.consistent, "coordinate probes at d=256"))
    return results, {"tz_growth.csv": (("n", "norm", "ratio"), rows)}


def _lemma21(seed: int):
    n = np.arange(0, 10001, dtype=float)
    results = []
    rows = []

    sqrt_seq = np.sqrt(n + 1.0)
    outcome = lemma21_bound(sqrt_seq)
    results.append(outcome.to_dict())
    rows.extend(("sqrt(k+1)", r, b) for r, b in zip(outcome.params["r_grid"],
                                                    outcome.params["B_profile"]))

    flat = np.ones_like(n)
    outcome = lemma21_bound(flat)
    results.append(outcome.to_dict())
    rows.extend(("constant", r, b) for r, b in zip(outcome.params["r_grid"],
                                                   outcome.params["B_profile"]))

    linear = lemma21_bound(n)
    record = linear.to_dict()
    results.append(record)
    rows.extend(("k", r, b) for r, b in zip(linear.params["r_grid"],
                                            linear.params["B_profile"]))
    results.append(_check("lemma-linear-divergence-detected", None, None,
                          linear.status == "hypothesis-diverged",
                          "B profile grows under grid refinement"))
    return results, {"lemma.csv": (("sequence", "r", "B"), rows)}


def _thm15(seed: int):
    alpha, d = 0.3, 64
    results = []
    backward = build_bermbmp_shift(alpha, "backward", d)

    e1 = np.zeros(d)
    e1[0] = 1.0
    image = apply(backward, e1)
    results.append(_check("bermbmp-annihilates-first", float(np.max(np.abs(image))), 0.0,
                          bool(np.max(np.abs(image)) == 0.0), "backward shift maps e_1 to 0"))

    expected_ratios = ((np.arange(1, d, dtype=float) + 1) / np.arange(1, d, dtype=float)) ** alpha
    ratio_gap = float(np.max(np.abs(backward.ratios - expected_ratios)))
    results.append(_check("bermbmp-ratios", ratio_gap, 1e-12, ratio_gap <= 1e-12))

    norm = spectral_norm(backward, tol=1e-12)
    results.append(_check("bermbmp-norm", norm.value, 2.0**alpha,
                          _rel_err(norm.value, 2.0**alpha) <= 1e-9))

    series = power_norms(backward, d - 1)
    expected = (np.arange(1, d, dtype=float) + 1.0) ** alpha
    growth_gap = float(np.max(np.abs(series.values - expected) / expected))
    results.append(_check("bermbmp-power-growth", growth_gap, 1e-12, growth_gap <= 1e-12,
                          "||T^n|| = (n+1)^alpha for n < d: unbounded powers"))

    # Averaged orbit norms stay uniformly bounded; threshold frozen from
    # a dense sweep over basis and seeded probes (observed max 1.70 at
    # alpha = 0.45, d = 64, horizon 256).
    bound = 2.0 / (1.0 - alpha)
    rows = []
    worst = 0.0
    rng = np.random.default_rng([seed, 15])
    probes = [np.eye(d)[j] for j in range(d)]
    probes += [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(8)]
    for idx, x in enumerate(probes):
        x = np.asarray(x, dtype=complex)
        x /= np.linalg.norm(x)
        best = float(np.max(np.cumsum(orbit_norms(backward, x, 256)) / np.arange(1, 258)))
        worst = max(worst, best)
        rows.append((idx, best))
    results.append(_check("bermbmp-absolute-cesaro", worst, bound, worst <= bound,
                          f"max averaged orbit norm over {len(probes)} probes"))
    return results, {"bermbmp.csv": (("probe", "max_average_orbit_norm"), rows)}


RUNNERS = {
    "thm2.4": _thm24,
    "thm2.5": _thm25,
    "thm2.7-claims": _thm27,
    "thm2.8": _thm28,
    "prop3.5": _prop35,
    "ex2.9": _ex29,
    "lemma2.1": _lemma21,
    "thm1.5": _thm15,
}

REPRODUCIBLE_IDS = tuple(RUNNERS)


def reproduce(theorem_id: str, out_dir=".", seed: int = SEED) -> int:
    """Run one canonical experiment; returns the process exit status.

    Writes report.json plus the experiment's CSV tables into out_dir.
    The status is 0 exactly when every definite check passed; reports
    are written either way.
    """
    if theorem_id not in RUNNERS:
        raise ValidationError(
            f"unknown experiment id {theorem_id!r}; choose from {sorted(RUNNERS)}"
        )
    results, tables = RUNNERS[theorem_id](seed)
    config = RunConfig(command="reproduce", operator=theorem_id, seed=seed, out=str(out_dir))
    emit_report(config, results, tables, out_dir)
    return 0 if summarize(results)["all_passed"] else 1
