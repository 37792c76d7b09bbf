"""Canonical end-to-end runs, one per supported experiment id.

Each runner re-derives its expected values from closed forms or
independent dense computations, produces reports.CheckRecord records
plus CSV data tables, and is wired to the `reproduce` CLI subcommand.
Every verdict is a reports.gate record of the quantity actually
compared: a relative error against its tolerance (estimate and expected
value in the record's params), a worst case against its bound, one
record per side of a two-sided window.  Exit status is zero exactly
when no definite check failed; records without a verdict are counted
separately in the report summary.
"""

from __future__ import annotations

import math

import numpy as np

from .cesaro import (
    _dense_norm,
    cesaro_identity_check,
    mean_difference_decay,
    shift_mean_norm_bracket,
)
from .constructions import (
    ErgcesParams,
    build_TN,
    build_bermbmp_shift,
    build_ergces,
    build_shields_counterexample,
    build_tz_block,
    ergces_power_closed_form,
    ergces_power_sums,
    make_operator,
    shields_certified_kmax,
    tz_block_power,
    tz_block_power_norms,
)
from .errors import ValidationError
from .growth import growth_fit
from .kreiss import (
    CLAIM_COLUMNS,
    dyadic_ladder,
    kb2_constant,
    lemma21_bound,
    orbit_norms,
    resolvent_norm,
    run_hilbert_claims,
    tn_claim1_bound,
    tn_claim2_bound,
)
from .operators import (
    SEED,
    NormSeries,
    _count,
    _matrix_norm,
    _power_sums,
    apply,
    dimension,
    materialize,
    power_norms,
    spectral_norm,
)
from .reports import CheckRecord, RunConfig, emit_report, gate, summarize

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


def _rel_gate(check_id, estimate, expected, tolerance, detail="") -> CheckRecord:
    """Gate the relative error of estimate against expected at tolerance."""
    return gate(check_id, _rel_err(estimate, expected), "<=", tolerance,
                params={"estimate": float(estimate), "expected": float(expected)},
                detail=detail)


#: Columns of a growth.csv table.
GROWTH_COLUMNS = ("k", "norm", "lower_bound", "pass")


def shields_envelope(series: NormSeries, epsilon: float, k_top: int):
    """(record, rows): the shields lower envelope ||T^k|| >= (k+1)^(1-eps)/3.

    The record gates the smallest margin over k <= k_top, the range the
    truncation certifies.  The growth.csv rows cover the whole series;
    each row's pass column applies the same rule to its own k up to
    k_top and is left empty past it, where the truncation decides nothing.
    """
    lower = (1.0 / 3.0) * (series.k + 1.0) ** (1.0 - epsilon)
    margins = series.values[:k_top] - lower[:k_top]
    record = gate("shields-lower-bound", float(np.min(margins)), ">=", 0.0,
                  detail=f"min of ||T^k|| - (k+1)^(1-eps)/3 over k <= {k_top}")
    rows = [(int(k), float(v), float(lb), bool(v >= lb) if k <= k_top else None)
            for k, v, lb in zip(series.k, series.values, lower)]
    return record, rows


def _stepped_power(op, k: int) -> np.ndarray:
    """op^k as an explicit matrix: the identity stepped through apply k times."""
    power = np.eye(dimension(op))
    for _ in range(k):
        power = apply(op, power)
    return power


def _guide_constant(eta: float) -> float:
    """c1 of TN-C1: the lower side of the guide shift's sup_(n <= 256) ||M_n||.

    The guide is the forward bermbmp shift at d = 64.  A lower side of
    the sup makes every TN-C1 pass hold for the exact sup, which
    shift_mean_norm_bracket pins to a relative width of 1e-9.
    """
    guide = build_bermbmp_shift(eta, "forward", 64)
    return float(shift_mean_norm_bracket(guide, range(257)).lower.max())


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
            results.append(_rel_gate(f"tn-norm-n{n}-eta{eta}", est.value, expected, 1e-9,
                                     f"method={est.method}"))
            norm_rows.append((eta, n, "norm", est.value, expected, _rel_err(est.value, expected)))

            k_top = 2 * n - 1
            closed = float(power_norms(op, k_top).values[-1])
            top_expected = float(n) ** (2.0 * eta)
            # The dense oracle, independent of the closed form: T^k stepped from
            # the identity, normed on its nonzero columns (T_N^(2N-1) has one),
            # since a zero column adds only a zero singular value.
            power = _stepped_power(op, k_top)
            top = _matrix_norm(power.compress(power.any(axis=0), axis=1)).value
            results.append(_rel_gate(f"tn-power-n{n}-eta{eta}", top, top_expected, 1e-12,
                                     f"dense power {k_top}, stepped by apply"))
            results.append(_rel_gate(f"tn-power-closed-form-n{n}-eta{eta}", closed,
                                     top_expected, 1e-12, f"closed-form power {k_top}"))
            norm_rows.append((eta, n, f"power-{k_top}", top, top_expected,
                              _rel_err(top, top_expected)))

            means = shift_mean_norm_bracket(op, range(8 * n + 1))
            cstar[(eta, n)] = (float(means.lower.max()), float(means.upper.max()), means.steps)
            for m, low, high in zip(means.n, means.lower, means.upper):
                mean_rows.append((eta, n, int(m), float(low), float(high)))

    # The uniform mean bound degrades as eta approaches 1/2, so the
    # N-independence ratios are gated at eta = 0.25 and reported
    # informationally at eta = 0.45.  Each ratio is the upper side of the
    # sup at N = 64 over the lower side at the smaller N, so a pass holds
    # for the exact sups.
    for small, bound in ((32, 1.05), (8, 1.10)):
        (low64, high64, _), (low, high, _) = cstar[(0.25, 64)], cstar[(0.25, small)]
        results.append(gate(f"tn-mean-ratio-64-{small}", high64 / low, "<=", bound,
                            params={"sup_64_lower": low64, "sup_64_upper": high64,
                                    f"sup_{small}_lower": low, f"sup_{small}_upper": high},
                            detail="eta=0.25; upper side at N = 64 over lower side"))
    for n in (8, 16, 32, 64):
        low, high, steps = cstar[(0.45, n)]
        results.append(CheckRecord(f"tn-mean-sup-n{n}-eta0.45", "info", low,
                                   params={"lower": low, "upper": high, "steps": steps},
                                   detail="value is the lower side of the sup's bracket"))

    for eta in (0.25, 0.45):
        c1 = _guide_constant(eta)
        rng = np.random.default_rng([seed, 24])
        for pair in range(8):
            gamma = np.abs(rng.standard_normal(64))
            gamma /= np.linalg.norm(gamma)
            delta = np.abs(rng.standard_normal(64))
            delta /= np.linalg.norm(delta)
            for n in dyadic_ladder(64):
                results.append(tn_claim1_bound(eta, n, gamma, delta, c1, {"pair": pair}))
    for eta in (0.05, 0.15, 0.25, 0.35, 0.45):
        for m in (1, 10, 1000, 10**6):
            results.append(tn_claim2_bound(eta, m))

    tables = {
        "tn_norms.csv": (("eta", "n", "check", "estimate", "expected", "rel_err"), norm_rows),
        "tn_means.csv": (("eta", "n", "m", "mean_norm_lower", "mean_norm_upper"), mean_rows),
    }
    return results, tables


def _thm25(seed: int):
    epsilon, eta, n_max = 0.15, 0.45, 64
    op = build_shields_counterexample(epsilon, eta, n_max)
    k_top = shields_certified_kmax(n_max)
    full = power_norms(op, 2 * n_max - 1)  # odd-power identities reach k = 2 n_max - 1
    series = NormSeries(full.k[:k_top], full.values[:k_top], full.methods[:k_top])
    fit = growth_fit(series, (16, k_top))
    results = []

    norm = float(full.values[0])
    results.append(gate("shields-norm-closed-form", abs(norm - 2.0**eta), "<=", 1e-12,
                        params={"norm": norm}, detail="|norm - 2**eta|"))
    results.append(gate("shields-norm", norm, "<", math.sqrt(2.0),
                        detail="norm stays below sqrt(2)"))

    envelope, rows = shields_envelope(series, epsilon, k_top)
    results.append(envelope)

    # At n = 1 the larger summands dominate: ||T|| = 2**eta > 1, so the
    # closed-form identity starts at n = 2 and only ">=" holds before.
    worst_odd = max(
        _rel_err(float(full.values[2 * n - 2]), float(n) ** (2.0 * eta))
        for n in range(2, n_max + 1)
    )
    results.append(gate("shields-odd-powers", worst_odd, "<=", 1e-12,
                        detail="||T^(2n-1)|| = n^(2 eta), worst relative error over "
                               "2 <= n <= n_max"))
    results.append(gate("shields-odd-power-floor", float(full.values[0]), ">=", 1.0,
                        detail="||T^1|| >= 1^(2 eta)"))
    worst_even = max(
        (float(n + 1) ** (2.0 * eta) / 2.0**eta - float(full.values[2 * n - 1]))
        / (float(n + 1) ** (2.0 * eta) / 2.0**eta)
        for n in range(1, n_max)
    )
    results.append(gate("shields-even-powers", worst_even, "<=", 1e-12,
                        detail="||T^(2n)|| >= (n+1)^(2 eta) / 2^eta, worst relative deficit"))

    window = f"window=[16,{k_top}] rms={fit.residual_rms:.3e}"
    results.append(gate("shields-growth-exponent-floor", fit.exponent, ">=", 0.85,
                        detail=window))
    results.append(gate("shields-growth-exponent", fit.exponent, "<=", 0.95, detail=window))

    return results, {"growth.csv": (GROWTH_COLUMNS, rows)}


def _thm27(seed: int):
    results = []
    rows = []
    for label, op in (
        ("tn-16-0.45", build_TN(16, 0.45)),
        ("bermbmp-0.45-64", build_bermbmp_shift(0.45, "forward", 64)),
    ):
        report = kb2_constant(op, 256)
        c_quad = float(report.kb2_sum_C)
        results.append(CheckRecord(f"kb2-sum-constant-{label}", "info", c_quad,
                                   detail=f"kb2_C={report.kb2_C:.6g}"))
        claims = run_hilbert_claims(op, c_quad, n_probes=64, n_top=64, seed=seed,
                                    params={"operator": label})
        results.extend(claims)
        rows.extend((label, *row) for row in claims.rows)
    return results, {"claims.csv": (("operator", *CLAIM_COLUMNS), rows)}


def _thm28(seed: int):
    results = []
    identity_rows = []
    decay_rows = []
    for name, params in CANONICAL_CATALOG:
        entry = make_operator(name, **params)
        residuals = cesaro_identity_check(entry.spec, 64)
        identity_rows.extend((name, n, res) for n, res in enumerate(residuals.tolist(), 1))
        results.append(gate(f"mean-identities-{name}", residuals.max(), "<=", 1e-10,
                            detail="max residual over n <= 64"))
    decay = {
        label: dict(zip(ladder, map(float, mean_difference_decay(op, ladder))))
        for label, op, ladder in (("tn-32-0.45", build_TN(32, 0.45), (64, 512)),
                                  ("ergces-20", build_ergces(20), (64, 256, 512)))
    }
    for label, diffs in decay.items():
        decay_rows.extend((label, n, diffs[n]) for n in (64, 512))
        results.append(gate(f"mean-difference-decay-{label}", diffs[512], "<", diffs[64],
                            detail="strictly smaller at n=512 than n=64"))
    results.append(gate("mean-difference-ergces-256", decay["ergces-20"][256], "<=", 0.07))
    tables = {
        "identity.csv": (("operator", "n", "residual"), identity_rows),
        "decay.csv": (("operator", "n", "difference_norm"), decay_rows),
    }
    return results, tables


def _prop35(seed: int):
    """ergces: closed-form powers and means; mean ergodic, and not Kreiss bounded.

    (n+1) M_n has diagonal s_n(-1), s_n(-c_j) and first row
    (s_n(-1) - s_n(-c_j))/eps_j, s_n(a) = sum_{k<=n} a^k
    (ergces_power_sums), checked against the stepped sums.  Write c, eps
    for c_j, eps_j, so 1 - c = eps^2.  At odd n, m = n + 1 >= 2 and
    |(M_n)_0j| = (1 - c^m)/((1 + c) eps m); (1 - c^m)/m is eps^2 times
    the average of 1, c, .., c^(m-1), nonincreasing in m, so it is at
    most (1 - c^2)/2 and the entry at most eps/2, attained at n = 1.  At
    even n the entry is c (1 - c^n)/((1 + c) eps (n + 1)), and
    1 - c^n <= n eps^2 makes it at most c eps n/((1 + c)(n + 1)) < eps/2.
    So |(M_n)_0j| <= eps_j/2 for every n and j_max.  For n >= 1,
    |s_n(-1)| <= 1 and |s_n(-c_j)| <= 2/(1 + c_j) <= 8/7, so the diagonal
    of M_n is at most 4/7 and its row norm at most
    sqrt(sum_j 4^-j)/2 < 1/sqrt(12): ||M_n|| < 4/7 + 1/sqrt(12) < 0.87
    for every n >= 1 and j_max.  The column (n+1) M_n e_j, j >= 1, has
    entries at most 8/7 and 2^j 4/7, so ||M_n e_j|| <= (sqrt(32)/7)
    2^j/(n+1), and M_n e_0 = s_n(-1) e_0/(n+1): M_n -> 0 strongly, and T
    is mean ergodic.

    T^n = D_n + e_0 r_n^T with D_n = diag((-1)^n, (-c_j)^n) and r_n,j =
    (-1)^n (1 - c_j^n)/eps_j.  As 1 - c^n <= min(1, n eps^2), |r_n,j| <=
    min(2^j, n 2^-j); splitting the sum at 4^k <= n < 4^(k+1) gives
    ||r_n||^2 <= (4/3) 4^k + n^2/(3 4^k) <= 5n/3, so ||T^n|| <= 1 + sqrt(5n/3)
    for every n >= 1 and j_max.

    Not Kreiss bounded: y_j = 2^j satisfies y^T T_J = -y^T, exactly in
    double for j <= 26, as every entry is a power of two.  -1 is a simple
    eigenvalue of T_J with right vector e_0 and y^T e_0 = 1, so its
    spectral projection e_0 y^T has norm ||y_J|| = sqrt((4^(J+1) - 1)/3),
    and (r - 1)||R(-r)|| tends to that norm as r -> 1+: the Kreiss
    constant K(T_J) >= ||y_J||.  Each T_J is T restricted to the
    invariant span of e_0, .., e_J, so T's constant is at least every
    ||y_J||, which has no bound in J.  Above, T^n = D_n + e_0 r_n^T with
    ||D_n|| <= 1 and |r_n,j| <= 1/eps_j = 2^j, so ||T^n|| <= 1 + ||y_J||,
    and the Neumann series R(lam) = sum_n T^n lam^(-n-1) gives
    (r - 1)||R(lam)|| <= sup_n ||T^n|| at |lam| = r: K(T_J) <= 1 + ||y_J||.
    R(lam) = (lam I - T_J)^-1 is upper triangular with diagonal 1/(lam + 1),
    1/(lam + c_j) and first row -eps_j/((lam + 1)(lam + c_j)).  The ratio
    (r - 1)||R(-r)||/||y_J|| is nearly a function of (r - 1) 4^J, so the
    bracket is read at r_J = 1 + 2^-(2J+8), where it is about 0.997.
    The kreiss command reports the same bracket for ergces J, its lower
    side the larger of ||y_J|| and its grid sup.
    """
    j_max = 20
    op = build_ergces(j_max)
    mat = materialize(op)
    size = j_max + 1
    results = []

    params = ErgcesParams(j_max)
    eps = params.eps
    ns = np.array([*range(1, 257), *(2**k + i for k in range(9, 45) for i in (0, 1))])
    sums = ergces_power_sums(j_max, ns)
    gap_rows, totals = [], []
    worst_gap = 0.0
    for n, power, total, _ in _power_sums(lambda p: p @ mat, np.eye(size, dtype=mat.dtype), 256):
        if n <= 200:
            gap = float(np.max(np.abs(power - ergces_power_closed_form(j_max, n))))
            worst_gap = max(worst_gap, gap)
            gap_rows.append((n, gap))
        totals.append(total)
    results.append(gate("ergces-closed-form-powers", worst_gap, "<=", 1e-13,
                        detail="entrywise gap over n <= 200"))
    results.append(gate("ergces-closed-form-means", np.max(np.abs(sums[:256] - totals)), "<=",
                        1e-10, detail="entrywise gap of sum_{k<=n} T^k over n <= 256"))
    ladder = "over n <= 256 and n = 2^k, 2^k + 1 for 9 <= k <= 44"
    sum_diag, sum_row = sums.diagonal(axis1=1, axis2=2), sums[:, 0, 1:]
    n1 = ns[:, None] + 1.0
    first_row = np.abs(sum_row) * 2.0 / (eps * n1)
    results.append(gate("ergces-mean-first-row", first_row.max(), "<=", 1.0, 1e-12,
                        detail=f"max of |(M_n)_0j| 2/eps_j {ladder}"))
    bound = (np.abs(sum_diag).max(axis=1) + np.linalg.norm(sum_row, axis=1)) / n1[:, 0]
    results.append(gate("ergces-mean-bound", bound.max(), "<=", 0.91,
                        detail=f"max of max|diag M_n| + ||row_0 M_n|| {ladder}"))
    rate = np.hypot(sum_diag[:, 1:], sum_row) / 2.0 ** np.arange(1, j_max + 1)
    results.append(gate("ergces-mean-rate", rate.max(), "<=", math.sqrt(32.0) / 7.0,
                        detail=f"max of (n+1) ||M_n e_j|| / 2^j, j >= 1, {ladder}"))

    row_sq = np.sum((params.one_minus_c_pow(ns[:, None]) / eps) ** 2, axis=1)
    results.append(gate("ergces-power-bound", (row_sq / ns).max(), "<=", 5.0 / 3.0,
                        detail=f"max of ||r_n||^2/n, r_n,j = (T^n)_0j for j >= 1, {ladder}"))

    e0, *basis = np.eye(size)
    results.append(gate("ergces-fixed-direction", float(np.max(np.abs(apply(op, e0) + e0))), "<=",
                        0.0, detail="column 0 is -e_0"))
    worst_witness, witness_rows = 0.0, []
    for j, ej in enumerate(basis, 1):
        image = apply(op, -ej / eps[j - 1]) + (-ej / eps[j - 1])
        expected = e0.copy()
        expected[j] = -eps[j - 1]
        worst_witness = max(worst_witness, float(np.max(np.abs(image - expected))))
        witness_rows.append((j, float(np.linalg.norm(image - e0))))
    results.append(gate("ergces-range-witness", worst_witness, "<=", 1e-12,
                        detail="(T+I)(-e_j/eps_j) = e_0 - eps_j e_j, residual norm eps_j"))

    tops = [4, 8, 12, 16, 20]
    lefts = [2.0 ** np.arange(top + 1) for top in tops]  # y_j = 2^j
    ops = [build_ergces(top) for top in tops]
    residuals = [float(np.max(np.abs(y @ materialize(op) + y))) for op, y in zip(ops, lefts)]
    results.append(gate("ergces-left-eigenvector", max(residuals), "<=", 0.0,
                        params={"j_max": tops, "residual": residuals},
                        detail="max of |y^T T_J + y^T|, y_j = 2^j"))
    lower = [ErgcesParams(top).left_norm for top in tops]
    results.append(CheckRecord("ergces-kreiss-lower-bound", "info", lower[-1],
                               params={"j_max": tops, "norm_y": lower},
                               detail="K(T_J) >= ||y_J|| = sqrt((4^(J+1) - 1)/3)"))

    closed_gap, svd_gap, scaled = 0.0, 0.0, []  # scaled: (r_J - 1) ||R(-r_J)||
    for top, truncation in zip(tops, ops):
        exact = ErgcesParams(top)
        gap = 2.0 ** -(2 * top + 8)  # r_J - 1
        lam = -1.0 - gap
        inverse = np.linalg.inv(lam * np.eye(top + 1) - materialize(truncation))
        closed = np.diag(1.0 / (lam + np.concatenate(([1.0], exact.c))))
        closed[0, 1:] = -exact.eps / ((lam + 1.0) * (lam + exact.c))
        scale = np.where(closed == 0.0, 1.0, np.abs(closed))
        closed_gap = max(closed_gap, float(np.max(np.abs(inverse - closed) / scale)))
        norm = _matrix_norm(inverse).value
        scaled.append(gap * norm)
        if top <= 8:
            svd_gap = max(svd_gap, _rel_err(norm, resolvent_norm(truncation, lam)))
    at = "at r_J = 1 + 2^-(2J+8), J in (4, 8, 12, 16, 20)"
    results.append(gate("ergces-resolvent-closed-form", closed_gap, "<=", 1e-12,
                        detail=f"max relative entry gap of R(-r_J) to its closed form {at} "
                               "(absolute off its pattern)"))
    bracket = {"j_max": tops, "scaled_resolvent_norm": scaled}
    results.append(gate("ergces-kreiss-bracket-lower",
                        min(v / y for v, y in zip(scaled, lower)), ">=", 0.99, params=bracket,
                        detail=f"min of (r_J - 1)||R(-r_J)|| / ||y_J|| {at}"))
    results.append(gate("ergces-kreiss-bracket-upper",
                        max(v / (1.0 + y) for v, y in zip(scaled, lower)), "<=", 1.0,
                        params=bracket,
                        detail=f"max of (r_J - 1)||R(-r_J)|| / (1 + ||y_J||) {at}"))
    results.append(gate("ergces-resolvent-svd", svd_gap, "<=", 1e-12,
                        detail="relative gap of ||R(-r_J)|| to resolvent_norm's 1/sigma_min, "
                               "J <= 8"))

    tables = {
        "power_gap.csv": (("n", "max_abs_gap"), gap_rows),
        "range_witness.csv": (("j", "distance_to_e0"), witness_rows),
    }
    return results, tables


def _ex29(seed: int):
    """tzblock: closed-form powers, growth below its symbol, certified means.

    T = [[B, B - I], [0, B]] (B the backward shift) has T^n =
    [[B^n, n B^(n-1)(B - I)], [0, B^n]], so M_n = [[m_n(B), q_n(B)], [0, m_n(B)]]
    with m_n(z) = sum_{k<=n} z^k/(n+1), q_n(z) = (n z^n - sum_{k<n} z^k)/(n+1).
    The first d coordinates of each half span an invariant subspace of
    the infinite T, so ||M_n(T_d)|| <= S_n, the sup over |z| = 1 of the
    symbol's norm (|q_n| + sqrt(|q_n|^2 + 4|m_n|^2))/2 <= |m_n| + |q_n| < 3.
    The symbol has degree n in the angle, so by Bernstein its derivative is
    at most n S_n, and N = 4096 angles give S_n <= grid max/(1 - n pi/N).
    As T_d^(d+1) = 0, n <= d + 1 reaches sup_n ||M_n(T_d)||, and
    M_n x = O(1/n) for finitely supported x.

    Not Kreiss bounded: the resolvent at lam = -r has the symbol
    [[p, q], [0, p]] with p = 1/(lam - w), q = (w - 1)/(lam - w)^2 and
    w = conj(z).  Both |p| and |q| peak at w = -1, where the 2 x 2 norm
    (|q| + sqrt(|q|^2 + 4|p|^2))/2 makes (r - 1)||R(-r)|| =
    (1 + sqrt(1 + (r-1)^2))/(r - 1) >= 2/(r - 1): no bound as r -> 1+.
    Each truncation lies below it and rises toward it with d.
    """
    results = []
    sizes = (8, 16, 32)
    # One angle array per n: the allocator would keep a (points, n) table's megabytes.
    points, ns = 4096, np.arange(1, sizes[-1] + 2)
    z = np.exp(2j * np.pi * np.arange(points) / points)
    zn, below, grid = np.ones(points, complex), np.zeros(points, complex), []
    for n in ns:  # zn = z^n, below = sum_{k<n} z^k
        below, zn = below + zn, zn * z
        m, q = np.abs(below + zn) / (n + 1), np.abs(n * zn - below) / (n + 1)
        grid.append(np.max(q + np.sqrt(q * q + 4.0 * m * m)))
    symbol = np.array(grid) / (2.0 - 2.0 * np.pi * ns / points)
    gap, worst, sups = 0.0, 0.0, []  # sups: sup over n of ||M_n(T_d)||
    for d in sizes:
        mat = materialize(build_tz_block(d))
        norms = []
        for n, power, total, _ in _power_sums(lambda p: p @ mat, np.eye(len(mat)), d + 1):
            gap = max(gap, float(np.max(np.abs(power - tz_block_power(d, n)))))
            norms.append(_dense_norm(total * (1.0 / (n + 1))))
        sups.append(max(norms))
        worst = max(worst, float(np.max(np.array(norms) / symbol[:d + 1])))
    results.append(gate("tz-block-power-formula", gap, "<=", 1e-12,
                        detail=f"d in {sizes}, n <= d + 1, the first zero power"))
    results.append(gate("tz-mean-symbol-bound", worst, "<=", 1.0,
                        params={"d": list(sizes), "sup_mean_norm": sups},
                        detail=f"max over d in {sizes} and n <= d + 1 of ||M_n(T_d)|| / S_n"))
    results.append(gate("tz-mean-symbol-uniform", float(symbol.max()), "<", 3.0,
                        detail=f"max over n <= {sizes[-1] + 1} of the certified S_n"))

    # The norms come from a Sturm count on the tridiagonal Schur complement
    # of each power's integer Gram matrix, with no power built.  The dense
    # norm of the top power, built in closed form, is their oracle.
    d, k_top = 512, 32
    k = np.arange(1, k_top + 1)
    values = tz_block_power_norms(d, k_top)
    ratios = values / k
    rows = [(int(n), float(v), float(r)) for n, v, r in zip(k, values, ratios)]
    results.append(gate("tz-transient-growth", float(ratios.min()), ">=", 1.9,
                        detail=f"min over n <= {k_top} of n^-1 ||T^n|| at d={d}"))
    # Every truncation stays below the sup of the symbol of T^n, n + sqrt(n^2 + 1).
    symbol_ratio = float(np.max(values / (k + np.sqrt(k**2 + 1.0))))
    results.append(gate("tz-symbol-bound", symbol_ratio, "<=", 1.0, 1e-12,
                        detail=f"max over n <= {k_top} of ||T^n|| / (n + sqrt(n^2 + 1)) at d={d}"))
    results.append(_rel_gate("tz-norm-dense-oracle", values[-1],
                             _matrix_norm(tz_block_power(d, k_top)).value, 1e-13,
                             detail=f"Sturm-count norm against the dense norm of T^{k_top}, d={d}"))
    # A Kreiss bounded operator has ||T^n|| = O(n / sqrt(log n)); tzblock is not one
    # (tz-kreiss-unbounded), so its rising ratio only agrees with the contrapositive.
    ladder = 2 ** np.arange(1, 6)
    rate = np.sqrt(np.log(ladder)) * values[ladder - 1] / ladder
    results.append(CheckRecord("tz-growth-vs-kreiss-rate", "info", float(rate[-1]),
                               params={"n": ladder.tolist(), "rate_ratio": rate.tolist()},
                               detail=f"sqrt(log n) ||T^n|| / n at d={d}; tzblock is not Kreiss "
                                      "bounded, so its rise only agrees with the contrapositive"))

    def resolvent_symbol(gap):  # (r - 1) sup_z ||symbol of R(-r)||, gap = r - 1
        return (1.0 + np.sqrt(1.0 + gap * gap)) / gap

    gap, sizes = 2.0**-4, (4, 8, 16, 32)  # d <= 32: no SVD large enough for the BLAS pool
    scaled = [gap * resolvent_norm(build_tz_block(d), -1.0 - gap) for d in sizes]
    results.append(gate("tz-resolvent-symbol-bound", max(scaled) / resolvent_symbol(gap), "<=",
                        1.0, 1e-12, params={"d": list(sizes), "scaled_resolvent_norm": scaled},
                        detail=f"max over d in {sizes} of (r-1)||R_d(-r)|| over the symbol's "
                               "(1 + sqrt(1 + (r-1)^2))/(r-1), r - 1 = 2^-4"))
    results.append(gate("tz-resolvent-rising", min(b / a for a, b in zip(scaled, scaled[1:])),
                        ">", 1.0, detail=f"min ratio of (r-1)||R_d(-r)|| over consecutive d "
                                         f"in {sizes}, r - 1 = 2^-4"))
    gaps = 2.0 ** -np.arange(2, 13, 2)
    unbounded = resolvent_symbol(gaps)
    results.append(CheckRecord("tz-kreiss-unbounded", "info", float(unbounded[-1]),
                               params={"r_minus_1": gaps.tolist(),
                                       "scaled_resolvent_norm": unbounded.tolist()},
                               detail="(r-1)||R(-r)|| of the infinite tzblock, "
                                      "(1 + sqrt(1 + (r-1)^2))/(r-1): no Kreiss bound"))
    return results, {"tz_growth.csv": (("n", "norm", "ratio"), rows)}


def _lemma21(seed: int):
    n = np.arange(0, 10001, dtype=float)
    results = []
    rows = []
    for label, sequence in (("sqrt(k+1)", np.sqrt(n + 1.0)), ("constant", np.ones_like(n)),
                            ("k", n)):
        outcome = lemma21_bound(sequence)
        results.append(outcome)
        rows.extend((label, r, b) for r, b in zip(outcome.params["r_grid"],
                                                  outcome.params["B_profile"]))
    # outcome is the linear sequence's, whose hypothesis must diverge.
    results.append(gate("lemma-linear-divergence-detected", outcome.params["growth_ratio"], ">",
                        4.0, detail="B profile grows under grid refinement"))
    return results, {"lemma.csv": (("sequence", "r", "B"), rows)}


def _thm15(seed: int):
    alpha, d = 0.3, 64
    results = []
    backward = build_bermbmp_shift(alpha, "backward", d)

    e1 = np.zeros(d)
    e1[0] = 1.0
    image = apply(backward, e1)
    results.append(gate("bermbmp-annihilates-first", float(np.max(np.abs(image))), "<=", 0.0,
                        detail="backward shift maps e_1 to 0"))

    expected_ratios = ((np.arange(1, d, dtype=float) + 1) / np.arange(1, d, dtype=float)) ** alpha
    ratio_gap = float(np.max(np.abs(backward.ratios - expected_ratios)))
    results.append(gate("bermbmp-ratios", ratio_gap, "<=", 1e-12))

    norm = spectral_norm(backward, tol=1e-12)
    results.append(_rel_gate("bermbmp-norm", norm.value, 2.0**alpha, 1e-9))

    series = power_norms(backward, d - 1)
    expected = (np.arange(1, d, dtype=float) + 1.0) ** alpha
    growth_gap = float(np.max(np.abs(series.values - expected) / expected))
    results.append(gate("bermbmp-power-growth", growth_gap, "<=", 1e-12,
                        detail="||T^n|| = (n+1)^alpha for n < d: unbounded powers"))

    # Averaged orbit norms stay uniformly bounded: over the 64 basis and 8
    # seeded probes to horizon 256, the run reads a max of 1.387 at the
    # default seed, against the gate 2/(1 - alpha) = 2.857.
    bound = 2.0 / (1.0 - alpha)
    rng = np.random.default_rng([seed, 15])
    probes = [np.eye(d)[j] for j in range(d)]
    probes += [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(8)]
    # The probes step together as the columns of one block (orbit_norms).
    block = np.array([x / np.linalg.norm(x) for x in probes], dtype=complex).T
    averages = np.cumsum(orbit_norms(backward, block, 256), axis=1) / np.arange(1, 258)
    rows = [(idx, float(best)) for idx, best in enumerate(averages.max(axis=1))]
    worst = max(best for _, best in rows)
    results.append(gate("bermbmp-absolute-cesaro", worst, "<=", bound,
                        detail=f"max averaged orbit norm over {len(probes)} probes"))
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
    are written either way.  An unknown id or a negative or non-integral
    seed (numpy's seeded generators take neither) raises ValidationError
    before anything runs or is written.
    """
    if theorem_id not in RUNNERS:
        raise ValidationError(
            f"unknown experiment id {theorem_id!r}; choose from {sorted(RUNNERS)}"
        )
    seed = _count(seed, "seed")
    records, tables = RUNNERS[theorem_id](seed)
    results = [record.to_dict() for record in records]
    config = RunConfig(command="reproduce", operator=theorem_id, seed=seed, out=str(out_dir),
                       format="csv")
    emit_report(config, results, tables, out_dir)
    return 0 if summarize(results)["all_passed"] else 1
