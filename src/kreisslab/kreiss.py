"""Resolvent-condition constants and the inequality checkers built on them.

Three flavors of constant are estimated on finite grids: the plain
resolvent constant sup (|lam|-1) * ||(lam I - T)^-1||, the uniform
variant through rotated Cesaro means, and the strong variant through
resolvent powers.  The second-mean constant is also reported in the
quadratic normalization sup_N N^-2 * ||sum_{j<N} (N-j) (lam T)^j||,
which is the form the orbit inequalities (claims H1..H4) consume.  Every
constant is a sup over grid cells found by bound-and-prune: a cell
whose bounds (Frobenius, then Schatten-4) cannot beat the running best
is skipped, and every other cell is normed as in an exhaustive sweep,
so pruning can skip a cell but never change a value.  The plain and
strong constants come from one pass over the annulus grid that inverts
each block once per point: the powers of Q = (r-1) times that inverse
are the strong sweep's cells, and the first of them, ||Q||, is also the
plain sweep's cell.  resolvent_norm, 1/sigma_min from an SVD of the
system, is the plain constant's independent oracle, taken once at the
point where the sup is reached.  For a real operator every grid sweep
evaluates only the angles 0..N/2 of its N-point grid, whose values the
conjugate half repeats (cesaro._angle_grid).  The claims read the
orbit norms norms[j] = ||T^j x|| from orbit_norms, so one orbit serves
every claim instance on a probe, and run_hilbert_claims evaluates each
instance on all probes at once, as one record that gates the worst of
them.

Every checker returns a reports.CheckRecord: a verdict decided by
reports.gate, which stores the value, the comparison, the bound, the
slack and the margin.  A hypothesis that fails to hold yields no verdict
rather than a silent pass: hypothesis-diverged for a diverging sum, and
one claims-vacuous record counting the orbit claims at a vanished power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cesaro import _EPS, _angle_grid, _beaten, _norm_unless_beaten, rotated_mean_tables
from .errors import ConvergenceError, SingularError, ValidationError
from .operators import (SEED, OperatorSpec, WeightedShift, _count, _is_real, apply, blocks,
                        dimension, materialize)
from .reports import CheckRecord, field_values, gate, margins

#: Dimension up to which the spectral-radius precondition is verified
#: by a dense eigenvalue computation when structure does not settle it.
EIG_CHECK_CAP = 256

_REL_SLACK = 1e-9
_ORBIT_FLOOR = 1e-300

#: Terms per block of tn_claim2_bound's streamed power sum.
_SUM_BLOCK = 1 << 16


def default_radii(levels: int = 12) -> tuple:
    """Radii 1 + 2^-m clustering geometrically toward the unit circle."""
    return tuple(1.0 + 2.0 ** (-m) for m in range(1, levels + 1))


@dataclass(frozen=True)
class AnnulusGrid:
    """Sampling grid outside the unit circle: radii x uniform angles."""

    radii: tuple
    angle_count: int = 64

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii or not all(math.isfinite(r) and r > 1.0 + 1e-9 for r in radii):
            raise ValidationError("all radii must be finite and exceed 1 + 1e-9")
        object.__setattr__(self, "angle_count", _count(self.angle_count, "angle count", 1))

    @classmethod
    def default(cls, angle_count: int = 64) -> "AnnulusGrid":
        return cls(default_radii(), angle_count)


@dataclass(frozen=True)
class KreissReport:
    """Estimated resolvent-type constants and the grids that produced them."""

    kreiss_C: float | None = None
    kreiss_C_radius: float | None = None
    kreiss_C_svd: float | None = None
    kreiss_C_lower: float | None = None
    kreiss_C_lower_method: str | None = None
    kreiss_C_upper: float | None = None
    kreiss_C_upper_method: str | None = None
    ukb_C: float | None = None
    kb2_C: float | None = None
    strong_C: float | None = None
    kb2_sum_C: float | None = None
    radii: tuple | None = None
    angle_count: int | None = None
    n_max: int | None = None
    k_max: int | None = None
    rotation_shortcut: bool = False
    skipped: tuple = ()

    def to_dict(self) -> dict:
        data = field_values(self)
        data["radii"] = list(self.radii) if self.radii is not None else None
        data["skipped"] = [list(point) for point in self.skipped]
        return data


def certify_spectral_radius(op: OperatorSpec):
    """Upper bound for the spectral radius, or None when uncertifiable.

    Shifts are nilpotent at finite truncation; triangular dense blocks
    read the bound off their diagonal; other dense blocks fall back to a
    dense eigenvalue computation up to EIG_CHECK_CAP.  A direct sum
    takes the max over its blocks; rotations leave the bound unchanged.
    """
    bound = 0.0
    for *_, leaf in blocks(op):
        if isinstance(leaf, WeightedShift):
            continue
        mat = leaf.matrix
        if not np.any(np.tril(mat, -1)) or not np.any(np.triu(mat, 1)):
            bound = max(bound, float(np.max(np.abs(np.diag(mat)))))
        elif mat.shape[0] <= EIG_CHECK_CAP:
            bound = max(bound, float(np.max(np.abs(np.linalg.eigvals(mat)))))
        else:
            return None
    return bound


def _require_contractive_spectrum(op: OperatorSpec):
    bound = certify_spectral_radius(op)
    if bound is not None and bound > 1.0 + 1e-9:
        raise ValidationError(f"spectral radius bound {bound:.6g} exceeds 1")


def _leaf_resolvent_norm(leaf, lam: complex) -> float:
    system = lam * np.eye(dimension(leaf)) - materialize(leaf)
    try:
        smin = float(np.linalg.svd(system, compute_uv=False)[-1])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"resolvent SVD failed at lam={lam}: {exc}") from exc
    if smin == 0.0:
        raise SingularError(f"resolvent singular at lam={lam}")
    return 1.0 / smin


def resolvent_norm(op: OperatorSpec, lam: complex) -> float:
    """||(lam I - op)^-1||, exact blockwise over direct sums.

    Every block's value is 1/sigma_min of its materialized system, so a
    block above DENSE_CAP raises SizeError.  A failed SVD raises
    ConvergenceError: a failed estimate, not a singular point.
    """
    lam = complex(lam)
    # (lam - mu*A)^-1 = mu^-1 ((lam/mu) - A)^-1 with |mu| = 1: fold each rotation into lam.
    return max(_leaf_resolvent_norm(leaf, lam if scalar == 1.0 else lam / scalar)
               for *_, scalar, leaf in blocks(op))


def _leaf_inverse(mat: np.ndarray, eye: np.ndarray, lam: complex) -> np.ndarray:
    """R = inv(lam I - mat), a block's one inverse at a grid point; failing, a singular point."""
    try:
        return np.linalg.inv(lam * eye - mat)
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"resolvent singular at lam={lam}") from exc


def _chain_reach(k_max: int, d: int, cap: float = 1.0) -> float:
    """Rounding allowance of _leaf_chain's split bound: ||P_(k+m)|| <= U_k cap times this.

    P_j is the computed j-th power of Q (P_1 = Q, P_(j+1) = fl(P_j Q))
    and U_j the cascade's value of it, which bounds ||P_j|| exactly as a
    cascade bound and up to a factor 1 + s, s = d^2 eps, as a Gram
    eigensolve's norm.  a is the first power with U_a <= 1, cap =
    max(1, U_1, .., U_(a-1)) and K = k_max.  A product errs by E_j,
    ||E_j|| <= s ||P_j|| ||Q|| (d-term sums, and ||.||_F <= sqrt(d) ||.||),
    so P_(k+m) = P_k Q^m + sum_(i<m) E_(k+i) Q^(m-1-i), and each exact
    power Q^j is P_j less such a sum.  With c = cap (1 + s) and
    y = s K c^3 that gives ||Q^j|| <= c (1 + 2 s K c^2) for j < a and
    ||Q^a|| <= 1 + 2 s a c^3, so ||Q^m|| <= c e^(4y) for every m <= K by
    submultiplicativity, and by induction on m ||P_(k+m)|| <=
    ||P_k|| c e^(6y) while y <= 1/9.  In all,
    ||P_(k+m)|| <= U_k cap e^(8 s K cap^3) <= U_k cap (1 + 10 s K cap^3)
    while that slack is at most 1/2; past it the allowance is inf, and
    the chain does not stop.
    """
    slack = 10.0 * k_max * d * d * _EPS * cap * cap * cap
    return 1.0 + slack if slack <= 0.5 else math.inf


def _leaf_chain(scaled: np.ndarray, k_max: int, plain: float, strong: float):
    """(plain, strong) raised by one block's terms ||Q^k||, k <= k_max, of Q = (r-1) R.

    ||Q|| = (r-1) ||R|| is the block's plain term and the strong sweep's
    k = 1 term, and ||Q^k|| = (r-1)^k ||R^k|| its k-th strong term, so
    Q^k can overflow only where a term nears the float range.  Each
    power goes through the cascade of _norm_unless_beaten: the k = 1
    term against the plain best, which never exceeds the strong best, so
    a pruned k = 1 term can raise neither; every later term against the
    strong best.  The cascade's value U_k, the power's norm or the bound
    it was pruned with, bounds ||Q^k||.  At the first a with U_a <= 1 the
    chain fixes cap = max(1, U_1, .., U_(a-1)): each m = q a + r has
    ||Q^m|| <= U_a^q U_r <= cap (U_0 = 1), so every later power Q^k Q^m
    has norm at most U_k cap.  From a on the chain stops at the first k
    whose U_k cap, raised by _chain_reach for rounding, the strong best
    beats: no later power can win, and the products that would form them
    are not computed.  a = 1 (cap = 1, as where ||Q||_F <= 1) stops at
    the first power pruned with that allowance to spare.  A term once
    taken never exceeds the strong best (a pruned bound is below it), so
    cap <= max(1, strong) and a chain mostly stops at a itself.
    """
    d = scaled.shape[0]
    cap, split = 1.0, None
    power = scaled
    for k in range(1, k_max + 1):
        if k > 1:
            power = power @ scaled
        best = plain if k == 1 else strong
        value, normed = _norm_unless_beaten(power, lambda bound: _beaten(bound, best))
        if normed:
            if k == 1:
                plain = max(plain, value)
            strong = max(strong, value)
        if split is None and value <= 1.0:
            split = cap * _chain_reach(k_max, d, cap)
        if split is None:
            cap = max(cap, value)
        elif _beaten(value * split, strong):
            break
    return plain, strong


def _with_mirrors(r: float, lost: list, real: bool) -> list:
    """(r, mu) of the angles lost at radius r and, for a real op, of their mirrors, in grid order.

    A real op's sweep evaluates points 0..N/2 alone (_angle_grid), and a
    lost non-real point mu there stands for its conjugate, whose value
    equals its own: it is lost as well.  mu.conjugate() is bit-equal to
    the full grid's point at the mirrored angle, and those points run in
    reverse order.  Points 1 and -1 are real, their own mirrors.
    """
    mirrors = [mu.conjugate() for mu in reversed(lost) if mu.imag] if real else []
    return [(float(r), mu) for mu in lost + mirrors]


def _grid_pass(op: OperatorSpec, grid: AnnulusGrid, k_max: int):
    """One pass over the grid's points lam = r * mu for the plain sup and the strong sup.

    Returns (shortcut, plain, point, skipped, strong).  Each block is
    materialized once for the grid and inverted once per point, and one
    chain of powers of the scaled inverse Q = (r-1) R serves both sweeps
    (_leaf_chain): its k = 1 term ||Q|| = (r-1) ||(lam I - T)^-1|| raises
    the plain sup and the strong sup, its terms k = 2..k_max the strong
    sup alone.  point is (r, lam) where the plain sup is first reached
    in grid order (None when no point rises above 0).
    Shift-like operators are rotation invariant, so one angle per radius
    is evaluated and recorded as a shortcut.  A real operator (_is_real)
    has ||R(conj lam)|| = ||R(lam)|| and the same for every strong term,
    so at each radius only angles 0..N/2 are evaluated (_angle_grid):
    the sups and point are those of the full grid, and a skipped
    non-real point stands for its conjugate, which is listed with it in
    grid order (_with_mirrors).  A point where some block's inverse
    fails is left out of both sweeps and listed once in skipped as
    (r, mu), radius by radius, angles in grid order.
    """
    shortcut, angles = _angle_grid(op, grid.angle_count)
    real = _is_real(op)
    leaves = [(scalar, materialize(leaf), np.eye(stop - start))
              for start, stop, scalar, leaf in blocks(op)]
    plain = strong = 0.0
    point = None
    skipped = []
    for r in grid.radii:
        lost = []
        for mu in angles:
            lam = r * mu
            try:
                inverses = [_leaf_inverse(mat, eye, lam if scalar == 1.0 else lam / scalar)
                            for scalar, mat, eye in leaves]
            except SingularError:
                lost.append(complex(mu))
                continue
            before = plain
            for resolvent in inverses:
                plain, strong = _leaf_chain((r - 1.0) * resolvent, k_max, plain, strong)
            if plain > before:
                point = (float(r), complex(lam))
        skipped += _with_mirrors(r, lost, real)
    return shortcut, plain, point, tuple(skipped), strong


def kreiss_constant(op: OperatorSpec, grid: AnnulusGrid, k_max: int = 1) -> KreissReport:
    """sup over the grid of (|lam| - 1) * ||(lam I - T)^-1||, and the strong sup for k <= k_max.

    kreiss_C is the k = 1 term of the strong sweep's chains, each point's
    value the Gram norm of (r-1) R from the block's inverse R
    (_grid_pass), and strong_C the sup over k <= k_max: kreiss_C itself
    at the default k_max = 1, the least allowed.  kreiss_C_radius is the
    radius where the sup is first reached; on the innermost radius the
    true sup may lie closer to the unit circle.  kreiss_C_svd is the
    oracle at that first point: (r-1) / sigma_min(lam I - T) from
    resolvent_norm, the one SVD of the sweep, None when no point rises
    above 0.  For a real operator only angles 0..N/2 are evaluated, and
    every value, the radius and the skip list equal those of the full
    grid: a skipped non-real point is listed with its conjugate.  Every
    block is materialized, so a block above DENSE_CAP raises SizeError.
    A point without an inverse leaves both sweeps and is listed once in
    skipped; a failed norm or SVD raises ConvergenceError.
    """
    k_max = _count(k_max, "k_max", 1)
    _require_contractive_spectrum(op)
    shortcut, plain, point, skipped, strong = _grid_pass(op, grid, k_max)
    radius = oracle = None
    if point is not None:
        radius, lam = point
        oracle = (radius - 1.0) * resolvent_norm(op, lam)
    return KreissReport(
        kreiss_C=plain,
        kreiss_C_radius=radius,
        kreiss_C_svd=oracle,
        strong_C=strong,
        radii=grid.radii,
        angle_count=grid.angle_count,
        k_max=k_max,
        rotation_shortcut=shortcut,
        skipped=skipped,
    )


def uniform_kreiss_constant(op: OperatorSpec, n_max: int, angles: int = 256) -> KreissReport:
    """sup over n <= n_max and the angle grid of ||M_n(lam T)||, by bound-and-prune.

    n_max truncates the sup in n: no mean past it is looked at, so the
    value is a lower bound for the sup over all n.  For T_N of
    build_TN(64, 0.45), ukb_C is 1.4898 at n_max = 64 and 2.0822 at
    n_max = 127 = 2N - 1; T_N is nilpotent of order 2N, so past that its
    means only shrink.  This is kb2_constant's report without its
    second-mean fields (kb2_C and kb2_sum_C).
    """
    return replace(kb2_constant(op, n_max, angles), kb2_C=None, kb2_sum_C=None)


def kb2_constant(op: OperatorSpec, n_max: int, angles: int = 256) -> KreissReport:
    """Second-mean constant, in both normalizations, and the uniform one.

    kb2_C is sup ||M_n^(2)(lam T)||; kb2_sum_C rescales the same values
    to sup_N N^-2 * ||sum_{j<N} (N-j)(lam T)^j|| via the exact identity
    between the triangular sum and the second mean.  All three sups come
    from one bound-and-prune pass of rotated_mean_tables over the swept
    angles of the grid, which skips cells that cannot attain them but
    never changes a value.  n_max truncates every sup in n, and each is a
    lower bound for the sup over all n.
    """
    n_max = _count(n_max, "n_max")
    shortcut, lams = _angle_grid(op, angles)
    ukb, kb2, kb2_sum = rotated_mean_tables(op, n_max, lams)
    return KreissReport(
        ukb_C=ukb,
        kb2_C=kb2,
        kb2_sum_C=kb2_sum,
        angle_count=angles,
        n_max=n_max,
        rotation_shortcut=shortcut,
    )


def strong_kreiss_constant(op: OperatorSpec, grid: AnnulusGrid, k_max: int = 16) -> KreissReport:
    """sup over the grid and k <= k_max of (|lam|-1)^k * ||(lam I - T)^-k||.

    Each term is the norm of a power of the scaled inverse (|lam|-1) R,
    which stays in range wherever the term does.  Singular grid points
    are skipped and listed in skipped.  This is kreiss_constant's report
    without its plain sweep's fields (kreiss_C, kreiss_C_radius and
    kreiss_C_svd): the strong sweep reads none of them.
    """
    return replace(kreiss_constant(op, grid, k_max), kreiss_C=None, kreiss_C_radius=None,
                   kreiss_C_svd=None)


def _vector_norms(v: np.ndarray):
    """||v||, or for a block the norm of each column, each normed as a contiguous vector.

    np.linalg.norm of a complex vector is sqrt(re . re + im . im); a
    block takes those dot products for all columns in one stacked
    matmul of the rows of v.T, which gives the same bits.
    """
    if v.ndim == 1:
        return float(np.linalg.norm(v))
    rows = v.T.copy()
    re, im = rows.real[:, None, :], rows.imag[:, None, :]
    squares = np.matmul(re, re.swapaxes(1, 2)) + np.matmul(im, im.swapaxes(1, 2))
    return np.sqrt(squares[:, 0, 0])


def orbit_norms(op: OperatorSpec, x: np.ndarray, kmax: int) -> np.ndarray:
    """||T^j x|| for j = 0..kmax, by repeated application.

    x is one vector, or a (d, probes) block whose columns step together,
    one apply per j; row p of the result is then column p's orbit, equal
    bit for bit to orbit_norms of that column alone when op has no dense
    block.  Once T^j x is exactly zero every later vector is too, so op
    is not applied again and the remaining norms stay 0.0.  A negative
    kmax raises ValidationError.
    """
    kmax = _count(kmax, "kmax")
    v = np.asarray(x, dtype=complex)
    out = np.zeros(v.shape[1:] + (kmax + 1,))
    out[..., 0] = _vector_norms(v)
    for j in range(1, kmax + 1):
        v = apply(op, v)
        out[..., j] = _vector_norms(v)
        if not v.any():
            break
    return out


# Each orbit claim maps an orbit table (one row of norms ||T^j x|| per
# probe) to (terms, op, bound): a probe's lhs is the sum of its row of
# terms.  run_hilbert_claims evaluates every claim through _claim_lhs,
# one instance on all probes at once.


def _h1(orbits, C, N):
    return orbits[:, :N] ** 2, "<=", 16.0 * C * C * N * N


def _h2(orbits, C, N, M):
    return orbits[:, N, None] ** 2 / orbits[:, N - np.arange(M)] ** 2, "<=", 16.0 * C * C * M * M


def _h3(orbits, C, N):
    return 1.0 / orbits[:, :N], ">=", math.sqrt(N) / (4.0 * C)


def _h4(orbits, C, N, M1, M2):
    terms = orbits[:, N - np.arange(M1, M2)] ** 2 / orbits[:, N, None] ** 2
    return terms, ">=", (M2 - M1) ** 2 / (16.0 * C * C * M2 * M2)


#: Claim id -> (claim, whether it assumes T^N x != 0).  H2..H4 do, and an
#: instance of one on a probe with ||T^N x|| <= _ORBIT_FLOOR is vacuous.
_CLAIMS = {"H1": (_h1, False), "H2": (_h2, True), "H3": (_h3, True), "H4": (_h4, True)}


def _claim_lhs(check_id: str, orbits: np.ndarray, C, index: dict):
    """(live, lhs, op, bound) of one claim instance on each row of an orbit table.

    live marks the rows the claim gates: all of them for H1, else those
    with ||T^N x|| above _ORBIT_FLOOR, NaN included.  lhs holds the live
    rows' sums, each row summed alone, as np.sum sums one probe's terms:
    a sum along the table's axis may round differently.  Vacuous rows
    are never evaluated, so they raise no division warning.
    """
    claim, needs_orbit = _CLAIMS[check_id]
    live = ~(orbits[:, index["N"]] <= _ORBIT_FLOOR) if needs_orbit else np.ones(len(orbits), bool)
    terms, op, bound = claim(orbits[live], C, **index)
    return live, np.array([np.add.reduce(row) for row in terms]), op, float(bound)


def tn_claim1_bound(eta, n, gamma, delta, c1, params=None) -> CheckRecord:
    """Windowed double-sum bound against the rotated-mean constant c1.

    Checks (n+1)^-1 * sum_j sum_{j<=j'<=j+n} gamma_j delta_j' (j'/j)^eta
    <= c1 for non-negative unit-norm coefficient vectors; each window
    sum is the difference of two prefix sums of delta_j' j'^eta,
    independent of any operator code path.
    """
    gamma = np.asarray(gamma, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(gamma < 0) or np.any(delta < 0):
        raise ValidationError("coefficient vectors must be non-negative")
    for v in (gamma, delta):
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValidationError("coefficient vectors must have unit norm")
    d = gamma.size
    if delta.size != d:
        raise ValidationError("coefficient vectors must share a length")
    n = _count(n, "window length n")
    powers = np.arange(1, d + 1, dtype=float) ** eta
    prefix = np.concatenate(([0.0], np.cumsum(delta * powers)))
    j = np.arange(1, d + 1)
    windows = prefix[np.minimum(j + n, d)] - prefix[j - 1]
    lhs = float(np.sum(gamma * windows / powers)) / (n + 1)
    info = {"eta": float(eta), "n": n, "d": int(d), **(params or {})}
    return gate("TN-C1", lhs, "<=", c1, _REL_SLACK, info)


def tn_claim2_bound(eta, M) -> CheckRecord:
    """Power-sum bound sum_{j<=M} j^(-2 eta) <= M^(1-2 eta)/(1-2 eta).

    The constant 1/(1-2 eta) comes from comparing the sum with the
    integral of t^(-2 eta); checked by direct summation with 1e-12
    relative slack.  The sum is streamed in blocks of _SUM_BLOCK terms,
    each summed by numpy, and the block sums are added by math.fsum, so
    the check holds O(_SUM_BLOCK) memory at any M and keeps the error
    bound of pairwise summation.
    """
    if not 0.0 < eta < 0.5:
        raise ValidationError("eta must lie in (0, 1/2)")
    M = _count(M, "M", 1)
    parts = []
    for start in range(1, M + 1, _SUM_BLOCK):
        j = np.arange(start, min(start + _SUM_BLOCK, M + 1), dtype=float)
        parts.append(float(np.sum(j ** (-2.0 * eta))))
    lhs = math.fsum(parts)
    c2 = 1.0 / (1.0 - 2.0 * eta)
    bound = c2 * float(M) ** (1.0 - 2.0 * eta)
    return gate("TN-C2", lhs, "<=", bound, 1e-12, {"eta": float(eta), "M": M, "c2": c2})


def lemma21_bound(a) -> CheckRecord:
    """Square-root growth bound for sequences with square-summable tails.

    Estimates B = sup over the radii r = 1 - 2^-m, m = 1..12, of
    (1-r)^2 * sum a_k^2 r^(2k) (truncated at the sequence length, with
    the minimal monotone tail reported) and then checks
    a_n <= 2e * sqrt(B n) for every n >= 1.  When the grid profile of B
    keeps growing toward r = 1 (its last usable value exceeds 4 times its
    middle one; the quotient is kept as ``growth_ratio``) the hypothesis
    itself fails, which is reported as ``hypothesis-diverged`` with no
    verdict on the conclusion.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValidationError("sequence must be 1-D with at least two entries")
    if not np.all(np.isfinite(a)):
        raise ValidationError("sequence entries must be finite")
    if np.any(a < 0):
        raise ValidationError("sequence must be non-negative")
    if np.any(np.diff(a) < -1e-12 * max(1.0, float(a.max()))):
        raise ValidationError("sequence must be non-decreasing")
    radii = 1.0 - 2.0 ** -np.arange(1.0, 13.0)

    length = a.size
    ks = np.arange(length, dtype=float)
    profile = np.array(
        [(1.0 - r) ** 2 * float(np.sum(a**2 * r ** (2.0 * ks))) for r in radii]
    )
    # Radii so close to 1 that the truncation removes most of the series
    # say nothing about the true sup; keep radii with r^(2L) <= 1/2.
    usable = radii ** (2.0 * length) <= 0.5
    if np.count_nonzero(usable) < 3:
        usable = np.ones_like(usable, dtype=bool)
    used_profile = profile[usable]
    used_radii = radii[usable]
    b_hat = float(used_profile.max())
    top = used_radii[int(np.argmax(used_profile))]
    tail = float(a[-1] ** 2 * top ** (2.0 * length) / (1.0 - top**2))
    middle = float(used_profile[used_profile.size // 2])
    # A zero profile point means a zero sequence, whose profile is flat.
    growth = float(used_profile[-1]) / middle if middle > 0.0 else 0.0
    diverged = growth > 4.0
    info = {
        "B": b_hat,
        "tail_bound": tail,
        "r_grid": [float(r) for r in radii],
        "B_profile": [float(b) for b in profile],
        "n_checked": int(length - 1),
        "growth_ratio": growth,
        "diverged": diverged,
    }
    if diverged:
        return CheckRecord("L21", "hypothesis-diverged", params=info)
    n = np.arange(1, length, dtype=float)
    bounds = 2.0 * math.e * np.sqrt(b_hat * n)
    if b_hat == 0.0:
        ratio = 0.0 if not np.any(a[1:]) else math.inf
    else:
        ratio = float(np.max(a[1:] / bounds))
    return gate("L21", ratio, "<=", 1.0, _REL_SLACK, info)


def dyadic_ladder(top: int) -> tuple:
    """1, 2, 4, .. up to and including top, which must be a power of two >= 1."""
    top = _count(top, "ladder top (a power of two)", 1)
    if top & (top - 1):
        raise ValidationError(f"ladder top must be a power of two >= 1, got {top}")
    return tuple(1 << k for k in range(top.bit_length()))


#: Columns of a claims.csv table (thm2.7-claims prepends "operator").
CLAIM_COLUMNS = ("claim", "x_seed", "N", "M", "M1", "M2", "lhs", "bound", "margin", "status")

_VACUOUS_CELLS = (None, None, None, "vacuous-pass")


class ClaimRecords(list):
    """run_hilbert_claims' records, one per claim instance, and ``rows``: one per probe.

    ``rows`` are the claims.csv rows in CLAIM_COLUMNS order, probe by
    probe and on each probe instance by instance, each with the verdict
    that gate gives that probe alone.
    """

    def __init__(self, records=(), rows=()):
        super().__init__(records)
        self.rows = list(rows)


def _claim_instances(ladder: tuple):
    """(check_id, index) of every claim instance on a probe, in claims.csv order."""
    for N in ladder:
        yield "H1", {"N": N}
        yield "H3", {"N": N}
        yield from (("H2", {"N": N, "M": M}) for M in ladder if M < N)
        yield from (("H4", {"N": N, "M1": M1, "M2": M2})
                    for M1 in ladder for M2 in ladder if M1 < M2 < N)


def _claim_group(check_id: str, orbits: np.ndarray, C, index: dict, params: dict):
    """(record, cells) of one claim instance on every probe of an orbit table.

    The record gates the live probe of smallest margin (the first on
    ties, a NaN before all): it fails exactly when some probe fails, and
    its params give that probe as x_seed and the number gated as probes.
    With no live probe the instance checks nothing and gives None.
    cells holds each probe's (lhs, bound, margin, status), decided by
    reports.margins as gate decides one probe.
    """
    live, lhs, op, bound = _claim_lhs(check_id, orbits, C, index)
    if not lhs.size:
        return None
    cells = [_VACUOUS_CELLS] * len(orbits)
    margin, ok = margins(check_id, lhs, op, bound, _REL_SLACK)
    probes = np.flatnonzero(live)
    worst = int(np.argmin(margin))
    record = gate(check_id, lhs[worst], op, bound, _REL_SLACK,
                  {**index, "x_seed": int(probes[worst]), "probes": int(probes.size), **params})
    for i, value, gap, passed in zip(probes.tolist(), lhs.tolist(), margin.tolist(), ok.tolist()):
        cells[i] = (value, bound, gap, "pass" if passed else "fail")
    return record, cells


def run_hilbert_claims(
    op: OperatorSpec,
    C: float,
    n_probes: int = 64,
    n_top: int = 64,
    seed: int = SEED,
    params=None,
) -> ClaimRecords:
    """All four orbit claims over seeded unit probes and dyadic ladders, one record per instance.

    An instance is a claim with its N and its M or (M1, M2).  The probes
    step together as the columns of one block, up to n_top (orbit_norms),
    and each instance is evaluated on all their orbits at once.  Its one
    record gates the worst live probe (_claim_group), so the records fail
    exactly when some probe fails an instance; a claims-vacuous record
    counts the instances left out for want of a live probe.  ``rows``
    keeps each probe's verdict as a one-row table would give it, and
    ``params`` join every record's params.  A non-finite orbit norm is a
    numerical failure, not a verdict: it raises ConvergenceError.
    """
    seed = _count(seed, "seed")
    n_probes = _count(n_probes, "n_probes")
    ladder = dyadic_ladder(n_top)
    if not n_probes:
        return ClaimRecords()
    d = dimension(op)
    probes = []
    for i in range(n_probes):
        rng = np.random.default_rng([seed, i])
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        probes.append(x / np.linalg.norm(x))
    orbits = orbit_norms(op, np.array(probes).T, n_top)
    lost = np.argwhere(~np.isfinite(orbits))
    if lost.size:
        probe, j = lost[0].tolist()
        raise ConvergenceError(f"orbit norm ||T^{j} x|| of probe {probe} is not finite "
                               f"({orbits[probe, j]})")
    return _claim_table(orbits, C, ladder, params or {})


def _claim_table(orbits: np.ndarray, C, ladder: tuple, params: dict) -> ClaimRecords:
    """run_hilbert_claims' records and rows from its (probes, n_top + 1) orbit table."""
    records, columns, vacuous = [], [], []
    for check_id, index in _claim_instances(ladder):
        group = _claim_group(check_id, orbits, C, index, params)
        if group is None:
            vacuous.append(index["N"])
            continue
        record, cells = group
        records.append(record)
        head = (check_id, index["N"], index.get("M"), index.get("M1"), index.get("M2"))
        columns.append((head, cells))
    rows = [(check_id, i, *rest, *cells[i])
            for i in range(len(orbits)) for (check_id, *rest), cells in columns]
    if vacuous:
        records.append(CheckRecord(
            "claims-vacuous", "info", len(vacuous), params={"N": sorted(set(vacuous)), **params},
            detail=f"H2-H4 instances left out: every probe has ||T^N x|| <= {_ORBIT_FLOOR:g} "
                   "there, so their hypothesis T^N x != 0 fails"))
    return ClaimRecords(records, rows)
