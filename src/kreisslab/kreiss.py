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
each block once per point: the inverse bounds the plain value, which
resolvent_norm still computes wherever the bound cannot rule it out,
and its powers are the strong sweep's cells.  The claims read the orbit
norms norms[j] = ||T^j x|| from orbit_norms, so one orbit serves every
claim instance on a probe.

Every checker returns a reports.CheckRecord: a verdict decided by
reports.gate, which stores the value, the comparison, the bound, the
slack and the margin.  Hypotheses that fail to hold (a vanishing orbit
power, a diverging hypothesis sum) yield distinct no-verdict states
(vacuous-pass, hypothesis-diverged) rather than silent passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cesaro import (_EPS, _angle_grid, _beaten, _bounds_beaten, _frobenius, _norm_unless_beaten,
                     rotated_mean_tables)
from .errors import SingularError, ValidationError
from .operators import (
    SEED,
    SVD_CAP,
    OperatorSpec,
    WeightedShift,
    _converged,
    _power_iteration,
    adjoint,
    apply,
    blocks,
    dimension,
    materialize,
    resolvent_apply,
)
from .reports import CheckRecord, gate

#: Dimension up to which the spectral-radius precondition is verified
#: by a dense eigenvalue computation when structure does not settle it.
EIG_CHECK_CAP = 256

_REL_SLACK = 1e-9
_ORBIT_FLOOR = 1e-300


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
        if not radii or any(r <= 1.0 + 1e-9 for r in radii):
            raise ValidationError("all radii must exceed 1 + 1e-9")
        if self.angle_count < 1:
            raise ValidationError("angle count must be at least 1")

    @classmethod
    def default(cls, angle_count: int = 64) -> "AnnulusGrid":
        return cls(default_radii(), angle_count)

    def refine(self) -> "AnnulusGrid":
        """Insert geometric midpoints between radii and double the angles."""
        mids = tuple(
            1.0 + math.sqrt((a - 1.0) * (b - 1.0))
            for a, b in zip(self.radii, self.radii[1:])
        )
        radii = tuple(sorted(set(self.radii) | set(mids), reverse=True))
        return AnnulusGrid(radii, 2 * self.angle_count)


@dataclass(frozen=True)
class KreissReport:
    """Estimated resolvent-type constants and the grids that produced them."""

    kreiss_C: float | None = None
    kreiss_C_radius: float | None = None
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
    strong_skipped: tuple = ()

    def to_dict(self) -> dict:
        return {
            "kreiss_C": self.kreiss_C,
            "kreiss_C_radius": self.kreiss_C_radius,
            "ukb_C": self.ukb_C,
            "kb2_C": self.kb2_C,
            "strong_C": self.strong_C,
            "kb2_sum_C": self.kb2_sum_C,
            "radii": list(self.radii) if self.radii is not None else None,
            "angle_count": self.angle_count,
            "n_max": self.n_max,
            "k_max": self.k_max,
            "rotation_shortcut": self.rotation_shortcut,
            "skipped": [list(point) for point in self.skipped + self.strong_skipped],
        }


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
    d = dimension(leaf)
    if not isinstance(leaf, WeightedShift) or d <= SVD_CAP:
        matrix = materialize(leaf) if isinstance(leaf, WeightedShift) else leaf.matrix
        system = lam * np.eye(d) - matrix
        smin = float(np.linalg.svd(system, compute_uv=False)[-1])
        if smin == 0.0:
            raise SingularError(f"resolvent singular at lam={lam}")
        return 1.0 / smin
    leaf_adj = adjoint(leaf)
    return _converged(*_power_iteration(
        lambda v: resolvent_apply(leaf, lam, v),
        lambda v: resolvent_apply(leaf_adj, np.conj(lam), v),
        d,
        1e-10,
    )).value


def resolvent_norm(op: OperatorSpec, lam: complex) -> float:
    """||(lam I - op)^-1||, exact blockwise over direct sums.

    Dense blocks, and shift blocks up to SVD_CAP, use 1/sigma_min of the
    materialized system.  Larger shift blocks run power iteration whose
    matrix-vector products are O(d) resolvent solves, so they never
    materialize.  A stalled iteration raises ConvergenceError: a failed
    estimate, not a singular point.
    """
    lam = complex(lam)
    # (lam - mu*A)^-1 = mu^-1 ((lam/mu) - A)^-1 with |mu| = 1: fold each rotation into lam.
    return max(_leaf_resolvent_norm(leaf, lam if scalar == 1.0 else lam / scalar)
               for *_, scalar, leaf in blocks(op))


def _leaf_inverse(mat: np.ndarray, eye: np.ndarray, lam: complex):
    """(system, inv(system)) for system = lam I - mat; a failed inverse is a singular point."""
    system = lam * eye - mat
    try:
        return system, np.linalg.inv(system)
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"resolvent singular at lam={lam}") from exc


def _plain_beaten(system: np.ndarray, resolvent: np.ndarray, r: float, best: float) -> bool:
    """True when (r-1) / sigma_min(system) cannot exceed best, judged from R = inv(system).

    The plain sweep's value is 1/sigma_min from an SVD of the system,
    its bounds those of the computed inverse R (_bounds_beaten).  Two
    errors sit between them: R differs from the exact inverse, and the
    SVD's sigma_min from the exact one, each by about d eps cond
    relative, and cond(system) <= ||system||_F ||R||_F.  So each bound
    of (r-1) ||R|| is raised by d eps ||system||_F ||R||_F before
    _beaten compares it.
    """
    inversion = 1.0 + system.shape[0] * _EPS * _frobenius(system) * _frobenius(resolvent)
    return _bounds_beaten(resolvent, lambda bound: _beaten((r - 1.0) * bound * inversion, best))


def _strong_term(k: int, log_gap: float, norm: float) -> float:
    """(r-1)^k * norm, combined in log space and capped at exp(700)."""
    return math.exp(min(k * log_gap + math.log(norm), 700.0))


def _chain_reach(k_max: int, d: int) -> float:
    """Factor by which a computed term past power j may exceed power j's term bound when q <= 1.

    A computed product P <- P R errs by at most d eps ||P||_F ||R||_F <=
    d^1.5 eps ||P|| ||R||_F in norm, so ||P R|| grows by at most a factor
    ||R||_F (1 + d^1.5 eps) a step, from either bound of ||P||, and the
    computed q = (r-1) ||R||_F is off by at most d^2 eps / 2 relative.
    Over at most k_max steps that stays below k_max d^2 eps.
    """
    return 1.0 + k_max * d * d * _EPS


def _leaf_strong_sup(resolvent: np.ndarray, r: float, k_max: int, best: float) -> float:
    """max(best, sup over k <= k_max of (r-1)^k ||R^k||) for one block's inverse R.

    Each power goes through the cascade of _norm_unless_beaten against
    the running best, with its bound raised by _chain_reach.  The chain
    stops at the first beaten power j when q = (r-1) ||R||_F <= 1: for
    every k >= j, (r-1)^k ||R^k|| <= bound_j q^(k-j) <= bound_j, so no
    later power can win either, and the products that would form them
    are not computed.
    """
    log_gap = math.log(r - 1.0)
    reach = _chain_reach(k_max, resolvent.shape[0])
    may_stop = (r - 1.0) * _frobenius(resolvent) <= 1.0  # q <= 1
    power = resolvent
    for k in range(1, k_max + 1):
        if k > 1:
            power = power @ resolvent
        norm = _norm_unless_beaten(
            power, lambda bound: _beaten(_strong_term(k, log_gap, bound) * reach, best))
        if norm is None:
            if may_stop:
                break
        elif norm > 0.0:
            best = max(best, _strong_term(k, log_gap, norm))
    return best


def _grid_pass(op: OperatorSpec, grid: AnnulusGrid, k_max: int, plain: bool):
    """One pass over the grid's points lam = r * mu for the plain sup, the strong sup or both.

    Returns (shortcut, best, radius, skipped, strong, strong_skipped).
    Each block is materialized once for the grid and inverted once per
    point, and that inverse serves both sweeps: the plain value (r-1)
    ||(lam I - T)^-1|| comes from resolvent_norm, unchanged, wherever
    _plain_beaten cannot rule the point out, and the strong sweep reads
    the inverse's powers (_leaf_strong_sup) when k_max >= 1.  radius is
    the radius where the plain sup is first reached in grid order (None
    when no point rises above 0).  Shift-like operators are rotation
    invariant, so one angle per radius is evaluated and recorded as a
    shortcut.  A point whose inverse fails is left out of the strong
    sweep and normed unpruned by the plain one; a point where
    resolvent_norm raises SingularError is left out of the plain sweep.
    Each sweep lists its points as (r, mu).  A plain-only pass inverts
    only when resolvent_norm takes every block's SVD anyway.
    """
    shortcut, angles = _angle_grid(op, grid.angle_count)
    parts = blocks(op)
    invert = k_max > 0 or all(not isinstance(leaf, WeightedShift) or stop - start <= SVD_CAP
                              for start, stop, _, leaf in parts)
    leaves = [(scalar, materialize(leaf), np.eye(stop - start))
              for start, stop, scalar, leaf in parts] if invert else []
    best = strong = 0.0
    radius = None
    skipped = []
    strong_skipped = []
    for r in grid.radii:
        for mu in angles:
            lam = r * mu
            try:
                inverses = [_leaf_inverse(mat, eye, lam if scalar == 1.0 else lam / scalar)
                            for scalar, mat, eye in leaves]
            except SingularError:
                inverses = None
            # A point without inverses has no bound: the plain sweep norms it.
            if plain and not (inverses and all(_plain_beaten(system, resolvent, r, best)
                                               for system, resolvent in inverses)):
                try:
                    point = max(best, (r - 1.0) * resolvent_norm(op, lam))
                except SingularError:
                    skipped.append((float(r), complex(mu)))
                else:
                    if point > best:
                        radius = float(r)
                    best = point
            if k_max:
                if inverses is None:
                    strong_skipped.append((float(r), complex(mu)))
                    continue
                for _, resolvent in inverses:
                    strong = _leaf_strong_sup(resolvent, r, k_max, strong)
    return shortcut, best, radius, tuple(skipped), strong, tuple(strong_skipped)


def kreiss_constant(op: OperatorSpec, grid: AnnulusGrid, k_max: int = 0) -> KreissReport:
    """sup over the grid of (|lam| - 1) * ||(lam I - T)^-1||, and the strong sup for k_max >= 1.

    kreiss_C_radius is the radius where the sup is first reached; on the
    innermost radius the true sup may lie closer to the unit circle.
    With k_max >= 1 the same pass also fills strong_C (and k_max and
    strong_skipped) exactly as strong_kreiss_constant(op, grid, k_max)
    would.  Singular grid points are skipped and listed in the report; a
    stalled estimate raises.
    """
    _require_contractive_spectrum(op)
    if k_max < 0:
        raise ValidationError("k_max must be non-negative")
    shortcut, best, radius, skipped, strong, strong_skipped = _grid_pass(op, grid, k_max, True)
    return KreissReport(
        kreiss_C=best,
        kreiss_C_radius=radius,
        strong_C=strong if k_max else None,
        radii=grid.radii,
        angle_count=grid.angle_count,
        k_max=k_max or None,
        rotation_shortcut=shortcut,
        skipped=skipped,
        strong_skipped=strong_skipped,
    )


def uniform_kreiss_constant(op: OperatorSpec, n_max: int, angles: int = 256) -> KreissReport:
    """sup over n <= n_max and the angle grid of ||M_n(lam T)||, by bound-and-prune."""
    shortcut, lams = _angle_grid(op, angles)
    ukb, _, _ = rotated_mean_tables(op, n_max, lams)
    return KreissReport(
        ukb_C=ukb,
        angle_count=angles,
        n_max=n_max,
        rotation_shortcut=shortcut,
    )


def kb2_constant(op: OperatorSpec, n_max: int, angles: int = 256) -> KreissReport:
    """Second-mean constant, in both normalizations, and the uniform one.

    kb2_C is sup ||M_n^(2)(lam T)||; kb2_sum_C rescales the same values
    to sup_N N^-2 * ||sum_{j<N} (N-j)(lam T)^j|| via the exact identity
    between the triangular sum and the second mean.  All three sups come
    from one bound-and-prune pass of rotated_mean_tables, which skips
    cells that cannot attain them but never changes a value, so ukb_C
    equals uniform_kreiss_constant's value exactly.
    """
    shortcut, lams = _angle_grid(op, angles)
    ukb, kb2, kb2_sum = rotated_mean_tables(op, n_max, lams, True)
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

    Terms are combined in log space so that tiny (|lam|-1)^k factors
    against large resolvent-power norms neither underflow nor overflow.
    Singular grid points are skipped and listed in strong_skipped.
    kreiss_constant(op, grid, k_max) gives the same strong_C from the
    pass that also sweeps the plain constant.
    """
    _require_contractive_spectrum(op)
    if k_max < 1:
        raise ValidationError("k_max must be at least 1")
    shortcut, _, _, _, strong, skipped = _grid_pass(op, grid, k_max, False)
    return KreissReport(
        strong_C=strong,
        radii=grid.radii,
        angle_count=grid.angle_count,
        k_max=k_max,
        rotation_shortcut=shortcut,
        strong_skipped=skipped,
    )


def _vector_norms(v: np.ndarray):
    """||v||, or for a block the norm of each column, each normed as a contiguous vector."""
    if v.ndim == 1:
        return float(np.linalg.norm(v))
    return [float(np.linalg.norm(column)) for column in v.T.copy()]


def orbit_norms(op: OperatorSpec, x: np.ndarray, kmax: int) -> np.ndarray:
    """||T^j x|| for j = 0..kmax, by repeated application.

    x is one vector, or a (d, probes) block whose columns step together,
    one apply per j; row p of the result is then column p's orbit, equal
    bit for bit to orbit_norms of that column alone when op has no dense
    block.  Once T^j x is exactly zero every later vector is too, so op
    is not applied again and the remaining norms stay 0.0.
    """
    v = np.asarray(x, dtype=complex)
    out = np.zeros(v.shape[1:] + (kmax + 1,))
    out[..., 0] = _vector_norms(v)
    for j in range(1, kmax + 1):
        v = apply(op, v)
        out[..., j] = _vector_norms(v)
        if not v.any():
            break
    return out


def _orbit(norms, top: int) -> np.ndarray:
    """norms[j] = ||T^j x|| as an array, checked for a unit probe and j <= top."""
    norms = np.asarray(norms, dtype=float)
    if norms.ndim != 1 or norms.size <= top:
        raise ValidationError(f"need orbit norms for j <= {top}, got {norms.size}")
    if abs(norms[0] - 1.0) > 1e-9:
        raise ValidationError("probe vector must have unit norm")
    return norms


def hilbert_claim1(norms, C, N, params=None) -> CheckRecord:
    """Orbit energy bound: sum_{j<N} ||T^j x||^2 <= 16 C^2 N^2."""
    if N < 1:
        raise ValidationError("N must be at least 1")
    norms = _orbit(norms, N - 1)
    lhs = float(np.sum(norms[:N] ** 2))
    bound = 16.0 * C * C * N * N
    return gate("H1", lhs, "<=", bound, _REL_SLACK, {"N": int(N), **(params or {})})


def hilbert_claim2(norms, C, N, M, params=None) -> CheckRecord:
    """Inverse-orbit bound: sum_{j<M} ||T^N x||^2 / ||T^{N-j} x||^2 <= 16 C^2 M^2."""
    if not 0 < M < N:
        raise ValidationError("need 0 < M < N")
    norms = _orbit(norms, N)
    info = {"N": int(N), "M": int(M), **(params or {})}
    if norms[N] <= _ORBIT_FLOOR:
        return CheckRecord("H2", "vacuous-pass", params=info)
    js = np.arange(M)
    lhs = float(np.sum(norms[N] ** 2 / norms[N - js] ** 2))
    bound = 16.0 * C * C * M * M
    return gate("H2", lhs, "<=", bound, _REL_SLACK, info)


def hilbert_claim3(norms, C, N, params=None) -> CheckRecord:
    """Reciprocal-orbit bound: sum_{j<N} 1/||T^j x|| >= sqrt(N)/(4C)."""
    if N < 1:
        raise ValidationError("N must be at least 1")
    norms = _orbit(norms, N)
    info = {"N": int(N), **(params or {})}
    if norms[N] <= _ORBIT_FLOOR:
        return CheckRecord("H3", "vacuous-pass", params=info)
    lhs = float(np.sum(1.0 / norms[:N]))
    bound = math.sqrt(N) / (4.0 * C)
    return gate("H3", lhs, ">=", bound, _REL_SLACK, info)


def hilbert_claim4(norms, C, N, M1, M2, params=None) -> CheckRecord:
    """Window bound: sum_{M1<=j<M2} ||T^{N-j}x||^2/||T^N x||^2 >= (M2-M1)^2/(16 C^2 M2^2)."""
    if not 0 < M1 < M2 < N:
        raise ValidationError("need 0 < M1 < M2 < N")
    norms = _orbit(norms, N)
    info = {"N": int(N), "M1": int(M1), "M2": int(M2), **(params or {})}
    if norms[N] <= _ORBIT_FLOOR:
        return CheckRecord("H4", "vacuous-pass", params=info)
    js = np.arange(M1, M2)
    lhs = float(np.sum(norms[N - js] ** 2 / norms[N] ** 2))
    bound = (M2 - M1) ** 2 / (16.0 * C * C * M2 * M2)
    return gate("H4", lhs, ">=", bound, _REL_SLACK, info)


def tn_claim1_bound(eta, n, gamma, delta, c1, params=None) -> CheckRecord:
    """Windowed double-sum bound against the rotated-mean constant c1.

    Checks (n+1)^-1 * sum_j sum_{j<=j'<=j+n} gamma_j delta_j' (j'/j)^eta
    <= c1 for non-negative unit-norm coefficient vectors; the double sum
    is evaluated directly, independent of any operator code path.
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
    powers = np.arange(1, d + 1, dtype=float) ** eta
    total = 0.0
    for j in range(1, d + 1):
        hi = min(j + n, d)
        window = np.arange(j, hi + 1)
        total += gamma[j - 1] * float(
            np.sum(delta[window - 1] * powers[window - 1] / powers[j - 1])
        )
    lhs = total / (n + 1)
    info = {"eta": float(eta), "n": int(n), "d": int(d), **(params or {})}
    return gate("TN-C1", lhs, "<=", c1, _REL_SLACK, info)


def tn_claim2_bound(eta, M) -> CheckRecord:
    """Power-sum bound sum_{j<=M} j^(-2 eta) <= M^(1-2 eta)/(1-2 eta).

    The constant 1/(1-2 eta) comes from comparing the sum with the
    integral of t^(-2 eta); checked by direct summation with 1e-12
    relative slack.
    """
    if not 0.0 < eta < 0.5:
        raise ValidationError("eta must lie in (0, 1/2)")
    if M < 1:
        raise ValidationError("M must be at least 1")
    j = np.arange(1, M + 1, dtype=float)
    lhs = float(np.sum(j ** (-2.0 * eta)))
    c2 = 1.0 / (1.0 - 2.0 * eta)
    bound = c2 * float(M) ** (1.0 - 2.0 * eta)
    return gate("TN-C2", lhs, "<=", bound, 1e-12, {"eta": float(eta), "M": int(M), "c2": c2})


def lemma21_bound(a, r_grid=None) -> CheckRecord:
    """Square-root growth bound for sequences with square-summable tails.

    Estimates B = sup over the radius grid of (1-r)^2 * sum a_k^2 r^(2k)
    (truncated at the sequence length, with the minimal monotone tail
    reported) and then checks a_n <= 2e * sqrt(B n) for every n >= 1.
    When the grid profile of B keeps growing toward r = 1 (its last
    usable value exceeds 4 times its middle one; the quotient is kept as
    ``growth_ratio``) the hypothesis itself fails, which is reported as
    ``hypothesis-diverged`` with no verdict on the conclusion.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValidationError("sequence must be 1-D with at least two entries")
    if np.any(a < 0):
        raise ValidationError("sequence must be non-negative")
    if np.any(np.diff(a) < -1e-12 * max(1.0, float(a.max()))):
        raise ValidationError("sequence must be non-decreasing")
    if r_grid is None:
        r_grid = tuple(1.0 - 2.0 ** (-m) for m in range(1, 13))
    radii = np.sort(np.asarray(r_grid, dtype=float))
    if np.any(radii <= 0.0) or np.any(radii >= 1.0):
        raise ValidationError("radius grid must lie inside (0, 1)")

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
    """1, 2, 4, .. up to and including top (top must be a power of two)."""
    out = []
    v = 1
    while v <= top:
        out.append(v)
        v *= 2
    return tuple(out)


def run_hilbert_claims(
    op: OperatorSpec,
    C: float,
    n_probes: int = 64,
    n_top: int = 64,
    seed: int = SEED,
    params=None,
) -> list:
    """All four orbit claims over seeded unit probes and dyadic ladders.

    The probes step together as the columns of one block, up to n_top
    (orbit_norms), and every claim instance on a probe reads its norms
    from that probe's row.  ``params`` are merged into every record's
    params beside the probe's ``x_seed``.
    """
    d = dimension(op)
    ladder = dyadic_ladder(n_top)
    probes = []
    for i in range(n_probes):
        rng = np.random.default_rng([seed, i])
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        probes.append(x / np.linalg.norm(x))
    # The reshape keeps a block of no probes (d, 0).
    orbits = orbit_norms(op, np.array(probes, dtype=complex).reshape(len(probes), d).T, n_top)
    results = []
    for i, norms in enumerate(orbits):
        tag = {"x_seed": i, **(params or {})}
        for N in ladder:
            results.append(hilbert_claim1(norms, C, N, tag))
            results.append(hilbert_claim3(norms, C, N, tag))
            for M in ladder:
                if 0 < M < N:
                    results.append(hilbert_claim2(norms, C, N, M, tag))
            for M1 in ladder:
                for M2 in ladder:
                    if 0 < M1 < M2 < N:
                        results.append(hilbert_claim4(norms, C, N, M1, M2, tag))
    return results
