"""Builders for the concrete operator families studied by the laboratory.

Every builder returns an immutable OperatorSpec.  The infinite-dimensional
families (the ramp-shift direct sum, the rank-one-perturbed diagonal, and
the coupled backward-shift block) are truncated.  `make_operator`
validates a family's parameters and returns a CatalogEntry: the
parameters, the dimension and the truncation notes that state which
finite claims the truncation certifies, with the spec built on its first
read.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .operators import (Dense, DirectSum, NormSeries, OperatorSpec, WeightedShift, _count,
                        _within_dense_cap, power_norms)

#: Open-interval parameters are kept this far away from their endpoints;
#: boundary values void the estimates the constructions are built to probe.
STRICT_MARGIN = 1e-6


def _require_open(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not (lo + STRICT_MARGIN <= value <= hi - STRICT_MARGIN):
        raise ValidationError(f"{name} must lie strictly inside ({lo}, {hi})")
    return value


@dataclass(frozen=True)
class TNParams:
    """Size and exponent of one ramp weighted shift."""

    n: int
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n", 1))
        object.__setattr__(self, "eta", _require_open("eta", self.eta, 0.0, 0.5))


@dataclass(frozen=True)
class DirectSumParams:
    """Parameters of the direct-sum growth counterexample."""

    epsilon: float
    eta: float
    n_max: int

    def __post_init__(self):
        eps = _require_open("epsilon", self.epsilon, 0.0, 1.0)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "eta", _require_open("eta", self.eta, (1.0 - eps) / 2.0, 0.5))
        object.__setattr__(self, "n_max", _count(self.n_max, "n_max", 2))


@dataclass(frozen=True)
class ErgcesParams:
    """Truncation level of the rank-one-perturbed diagonal operator.

    Basis e_0..e_J with column parameters eps_j = 2**-j and
    c_j = 1 - eps_j**2, evaluated exactly in double precision.
    """

    j_max: int

    def __post_init__(self):
        object.__setattr__(self, "j_max", _count(self.j_max, "truncation level", 2))

    @property
    def eps(self) -> np.ndarray:
        return 2.0 ** (-np.arange(1, self.j_max + 1, dtype=float))

    @property
    def c(self) -> np.ndarray:
        return 1.0 - self.eps**2

    @property
    def log_c(self) -> np.ndarray:
        return np.log1p(-self.eps**2)

    def one_minus_c_pow(self, n) -> np.ndarray:
        """1 - c_j^n as -expm1(n log c_j), n an int or a column broadcast against j.

        The direct difference cancels, as c_j lies within eps_j^2 of 1.
        """
        return -np.expm1(n * self.log_c)

    @property
    def left_norm(self) -> float:
        """||y|| of the left eigenvector y_j = 2^j, j <= J, at the eigenvalue -1.

        The spectral projection at -1 is e_0 y^T, of norm ||y|| =
        sqrt((4^(J+1) - 1)/3), so the Kreiss constant is at least ||y||.
        """
        return float(np.linalg.norm(2.0 ** np.arange(self.j_max + 1)))


def tn_weights(n: int, eta: float) -> np.ndarray:
    """Ramp weights: w_j = j**eta up to j = n, then n**(2*eta)/(2n-j+1)**eta.

    Anchors w_1 = 1, w_n = w_{n+1} = n**eta and w_{2n} = n**(2*eta).
    """
    p = TNParams(n, eta)
    j = np.arange(1, 2 * p.n + 1, dtype=float)
    ramp_up = j**p.eta
    ramp_top = p.n ** (2 * p.eta) / (2 * p.n - j + 1) ** p.eta
    return np.where(j <= p.n, ramp_up, ramp_top)


def build_TN(n: int, eta: float) -> WeightedShift:
    """Forward weighted shift on 2n coordinates with the ramp weights.

    The norm is the largest single ratio, 2**eta for n >= 2, while the
    (2n-1)-st power attains w_{2n}/w_1 = n**(2*eta): maximal transient
    growth under a uniform bound on all the averaged powers.
    """
    p = TNParams(n, eta)
    w = tn_weights(p.n, p.eta)
    return WeightedShift("forward", w[1:] / w[:-1])


def build_shields_counterexample(epsilon: float, eta: float, n_max: int) -> DirectSum:
    """Direct sum of the ramp shifts for n = 1..n_max.

    With eta in ((1-epsilon)/2, 1/2) the power norms dominate
    (1/3)*(k+1)**(1-epsilon); the truncation certifies that bound for
    k <= 2*n_max - 2 (see `shields_certified_kmax`).
    """
    p = DirectSumParams(epsilon, eta, n_max)
    return DirectSum(tuple(build_TN(n, p.eta) for n in range(1, p.n_max + 1)))


def shields_certified_kmax(n_max: int) -> int:
    """Largest k whose lower bound the n_max-truncation certifies.

    Odd k = 2n-1 needs summand n, even k = 2n needs summand n+1, so
    every k up to 2*n_max - 2 is covered.
    """
    return 2 * _count(n_max, "n_max", 1) - 2


def build_bermbmp_shift(alpha: float, direction: str = "forward", d: int = 2) -> WeightedShift:
    """d-dimensional truncation of the shift with ratios ((j+1)/j)**alpha.

    The backward variant annihilates e_1 and is absolutely Cesaro
    bounded but not power bounded; the forward variant has uniformly
    bounded rotated Cesaro means.  Requires 0 < alpha < 1/2.
    """
    alpha = _require_open("alpha", alpha, 0.0, 0.5)
    d = _count(d, "dimension", 2)
    j = np.arange(1, d, dtype=float)
    return WeightedShift(direction, ((j + 1) / j) ** alpha)


def build_ergces(j_max: int) -> Dense:
    """Cesaro-bounded triangular operator with a unimodular residual point.

    Column j has diagonal entry -c_j and first-row entry -eps_j; column 0
    is -e_0.  The powers and their sums stay in the same sparsity pattern
    (closed forms in `ergces_power_closed_form` and `ergces_power_sums`),
    every Cesaro mean M_n, n >= 1, has norm below 0.91 and first-row
    entries at most eps_j/2 whatever j_max, and (T + I)(-e_j/eps_j) =
    e_0 - eps_j*e_j witnesses density of the range of T + I.  The row
    y_j = 2**j is an exact left eigenvector, y^T T = -y^T, so the Kreiss
    constant is at least ||y|| = sqrt((4**(j_max+1) - 1)/3).
    """
    p = ErgcesParams(j_max)
    size = p.j_max + 1
    mat = np.zeros((size, size))
    mat[0, 0] = -1.0
    mat[0, 1:] = -p.eps
    idx = np.arange(1, size)
    mat[idx, idx] = -p.c
    return Dense(mat)


def ergces_power_closed_form(j_max: int, n: int) -> np.ndarray:
    """Exact n-th power of the `build_ergces` matrix.

    Diagonal ((-1)**n, (-c_j)**n) and first row (-1)**n * (1 - c_j**n)/eps_j,
    as 1 - c_j = eps_j**2; all other entries vanish.
    """
    p = ErgcesParams(j_max)
    n = _count(n, "power", 1)
    size = p.j_max + 1
    mat = np.zeros((size, size))
    sign = -1.0 if n % 2 else 1.0
    mat[0, 0] = sign
    idx = np.arange(1, size)
    mat[idx, idx] = (-p.c) ** n
    mat[0, 1:] = sign * p.one_minus_c_pow(n) / p.eps
    return mat


def ergces_power_sums(j_max: int, ns) -> np.ndarray:
    """Exact sum_{k<=n} T^k = (n+1) M_n of the `build_ergces` matrix, stacked over n in ns.

    Summing `ergces_power_closed_form` with s_n(a) = sum_{k<=n} a^k gives
    the diagonal s_n(-1), s_n(-c_j) and the first row
    (s_n(-1) - s_n(-c_j))/eps_j: c_j (1 - c_j^n)/((1 + c_j) eps_j) at even
    n and -(1 - c_j^(n+1))/((1 + c_j) eps_j) at odd n, as 1 - c_j = eps_j^2.
    """
    p = ErgcesParams(j_max)
    n = np.array([_count(k, "mean index") for k in ns])[:, None]
    odd = n % 2 == 1
    lost = p.one_minus_c_pow(np.where(odd, n + 1, n))
    sums = np.zeros((len(n), p.j_max + 1, p.j_max + 1))
    idx = np.arange(p.j_max + 1)
    sums[:, idx, idx] = np.hstack((1.0 - odd, np.where(odd, lost, 1.0 + np.exp((n + 1) * p.log_c))
                                   / (1.0 + p.c)))
    sums[:, 0, 1:] = np.where(odd, -lost, p.c * lost) / ((1.0 + p.c) * p.eps)
    return sums


def build_tz_block(d: int) -> Dense:
    """2d-dimensional block operator [[B, B - I], [0, B]], B backward shift.

    Mean ergodic on the full space while n**-1 * ||T^n|| stays >= 2; at
    truncation d the power-norm claims are trusted only for n well below
    d (see the catalog notes).  The matrix is `tz_block_power(d, 1)`.
    """
    return Dense(tz_block_power(_count(d, "block dimension", 2), 1))


def tz_block_power(d: int, n: int) -> np.ndarray:
    """Closed-form n-th power [[B^n, n*(B^n - B^(n-1))], [0, B^n]].

    Follows from the blocks being upper triangular with commuting
    entries.  B^n is the n-th superdiagonal of ones (zero once n >= d),
    so the power is built directly, with no matrix product: its three
    diagonals are written by index into one zero matrix.  Its entries are
    small integers, equal bit for bit to the dense power.
    """
    d, n = _count(d, "block dimension", 1), _count(n, "power", 1)
    mat = np.zeros((2 * d, 2 * d))
    i = np.arange(max(d - n, 0))
    mat[i, i + n] = mat[d + i, d + i + n] = 1.0
    mat[i, d + i + n] = n
    i = np.arange(max(d - n + 1, 0))
    mat[i, d + i + n - 1] = -n
    return mat


#: Shifts per bracket and sweep of `tz_block_power_norms`: each sweep
#: narrows every bracket 16-fold.
_TZ_SHIFTS = np.arange(1, 16) / 16.0


def tz_block_power_norms(d: int, k_max: int) -> np.ndarray:
    """||T^n|| for n = 1..k_max of `build_tz_block(d)`, by an exact Sturm count.

    With q = d-n+1 and p = d-n, the nonzero columns of `tz_block_power`
    have the integer Gram matrix G = [[I_p, C], [C^T, W]]: C[i,i] = -n,
    C[i,i+1] = n, and W tridiagonal with diagonal (n^2, 2n^2+1, ...,
    2n^2+1) and off-diagonal -n^2.  For s > 1, Haynsworth's inertia
    additivity makes the number of eigenvalues of G above s the number of
    positive pivots of the q x q tridiagonal Schur complement
    S(s) = W - sI + C^T C/(s-1) (Sturm count, Barth-Martin-Wilkinson).
    Every lambda_max(G) starts bracketed in [2n^2+1, 4n^2+2n+1], the
    largest diagonal entry and the Gershgorin bound, and is multisected on
    that count until the bracket is at most 2 ulps wide; the norm is the
    square root of its upper end.  Each sweep strictly narrows every
    bracket wider than 2 ulps, so the loop ends after about 13 sweeps.
    """
    d, k_max = _count(d, "block dimension"), _count(k_max, "k_max")
    if not 1 <= k_max < d:
        raise ValidationError("k_max must satisfy 1 <= k_max < d")
    n = np.arange(1, k_max + 1, dtype=float)
    lo = 2.0 * n**2 + 1.0
    hi = 4.0 * n**2 + 2.0 * n + 1.0
    rows = np.arange(k_max)
    while True:
        wide = hi - lo > 2.0 * np.spacing(hi)
        if not wide.any():
            return np.sqrt(hi)
        grid = np.column_stack((lo, lo[:, None] + (hi - lo)[:, None] * _TZ_SHIFTS, hi))
        above = _tz_gram_has_eigenvalue_above(d, n[:, None] ** 2, grid[:, 1:-1])
        # The new bracket ends at the first point with nothing above it and
        # starts at the point before, so its upper end keeps a zero count
        # and its lower end a positive one even where rounding makes the
        # count non-monotone in the shift.
        flags = np.pad(above, ((0, 0), (1, 1)), constant_values=((0, 0), (True, False)))
        first_empty = np.argmin(flags, axis=1)
        lo = np.where(wide, grid[rows, first_empty - 1], lo)
        hi = np.where(wide, grid[rows, first_empty], hi)


#: Bytes of the pivot buffer of `_tz_gram_has_eigenvalue_above`; it holds
#: this many bytes' worth of whole pivot steps, at least one and at most d.
#: 2**18 was faster than 2**16, 2**17 and 2**19 at (d, k_max) = (512, 32),
#: (128, 126) and (2000, 40) on a 2-core Xeon with 2 MiB of L2 per core.
_TZ_PIVOT_BLOCK_BYTES = 2**18


def _tz_gram_has_eigenvalue_above(d: int, n2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Whether lambda_max of the Gram matrix of T^n exceeds each shift s > 1.

    The flags of `_tz_gram_has_eigenvalue_above_stepwise`, bit for bit,
    from pivots computed a block of steps at a time.  While every row is
    active (k < d - k_max) a step is two in-place ufunc calls, a_mid -
    beta2 / piv, the stepwise routine's operations on its operands; in
    the tail row d-1-k takes a_last and the finished rows hold -1.0,
    which is neither positive nor below pivmin.  Once per block, by two
    reductions over the steps that ignore NaN: every positive pivot sets
    its row's flag (fmax), then, on the block's absolute values taken in
    place, a pivot smaller than pivmin in magnitude (fmin) hands the whole
    call to the stepwise routine, whose dstebz rule replaces it.  Up to
    that check the pivots after a tiny one may overflow or turn NaN, so
    their warnings are ignored.
    """
    s1 = shifts - 1.0
    beta2 = (n2 * shifts / s1) ** 2
    pivmin = np.finfo(float).tiny * np.maximum(1.0, beta2)
    a_mid = 2.0 * n2 + 1.0 - shifts + 2.0 * n2 / s1
    a_last = 2.0 * n2 + 1.0 - shifts + n2 / s1
    tail = d - n2.shape[0]
    size = min(max(_TZ_PIVOT_BLOCK_BYTES // (8 * a_mid.size), 1), d)
    buf = np.empty((size,) + a_mid.shape)
    steps = list(buf)
    tmp = np.empty(a_mid.shape)
    above = np.zeros(a_mid.shape, dtype=bool)
    buf[0] = n2 - shifts + n2 / s1
    prev = steps[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, d, size):
            stop = min(start + size, d)
            for k in range(max(start, 1), min(stop, tail)):
                piv = steps[k - start]
                np.divide(beta2, prev, out=tmp)
                np.subtract(a_mid, tmp, out=piv)
                prev = piv
            for k in range(max(start, tail), stop):
                piv, m = steps[k - start], d - k
                np.divide(beta2[:m], prev[:m], out=tmp[:m])
                np.subtract(a_mid[:m], tmp[:m], out=piv[:m])
                piv[m - 1] = a_last[m - 1] - tmp[m - 1]
                piv[m:] = -1.0
                prev = piv
            block = buf[:stop - start]
            above |= np.fmax.reduce(block, axis=0) > 0.0
            prev = prev.copy()
            if (np.fmin.reduce(np.abs(block, out=block), axis=0) < pivmin).any():
                return _tz_gram_has_eigenvalue_above_stepwise(d, n2, shifts)
    return above


def _tz_gram_has_eigenvalue_above_stepwise(d: int, n2: np.ndarray,
                                           shifts: np.ndarray) -> np.ndarray:
    """Whether lambda_max of the Gram matrix of T^n exceeds each shift s > 1.

    Row i is n = i+1 with q = d-i; the LDL^T pivots of S(s) run down all
    rows at once, and row i drops out after its last pivot k = d-1-i.  A
    pivot smaller than pivmin in magnitude is replaced by -pivmin, as in
    LAPACK's dstebz, so no division by zero occurs.  This is the exact
    rule, one pivot at a time: `_tz_gram_has_eigenvalue_above` hands
    over to it when a pivot is that small, and the tests hold the two to
    the same flags.
    """
    s1 = shifts - 1.0
    beta2 = (n2 * shifts / s1) ** 2
    pivmin = np.finfo(float).tiny * np.maximum(1.0, beta2)
    a_mid = 2.0 * n2 + 1.0 - shifts + 2.0 * n2 / s1
    a_last = 2.0 * n2 + 1.0 - shifts + n2 / s1
    piv = n2 - shifts + n2 / s1
    above = np.zeros(shifts.shape, dtype=bool)
    k_max = n2.shape[0]
    for k in range(d):
        m = min(k_max, d - k)
        if k:
            alpha = a_mid[:m]
            if d - 1 - k < k_max:
                alpha = alpha.copy()
                alpha[d - 1 - k] = a_last[d - 1 - k]
            piv = alpha - beta2[:m] / piv[:m]
        small = np.abs(piv) < pivmin[:m]
        if small.any():
            piv[small] = -pivmin[:m][small]
        above[:m] |= piv > 0.0
    return above


def _catalog_tz_block(d: int) -> Dense:
    """build_tz_block(d), refused with SizeError before allocating when 2d exceeds DENSE_CAP.

    Every catalog reader of tzblock's spec is a dense sweep that would
    refuse the block after building it.  build_tz_block itself stays
    uncapped, as a larger block can still be applied.
    """
    _within_dense_cap(2 * d)
    return build_tz_block(d)


#: Each catalog name's spec builder, called with the entry's params.
_SPEC_BUILDERS = {
    "tn": build_TN,
    "shields": build_shields_counterexample,
    "bermbmp": build_bermbmp_shift,
    "ergces": build_ergces,
    "tzblock": _catalog_tz_block,
}


@dataclass(frozen=True)
class CatalogEntry:
    """A named catalog operator with its parameters, dimension and validity notes.

    `make_operator` validates the params; the spec is built from them on
    its first read and cached, so a reader of the params, the dimension
    or the power norms alone (construct, powers, growth on tzblock)
    allocates no matrix.  The params are held read-only, so the spec
    cannot be built from values that were never validated.
    """

    name: str
    params: Mapping
    notes: tuple
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @cached_property
    def spec(self) -> OperatorSpec:
        return _SPEC_BUILDERS[self.name](**self.params)

    def power_norms(self, k_max: int) -> NormSeries:
        """||T^k|| for k = 1..k_max, each by the exact route for this entry.

        tzblock forms no power: T^k, k < d, is normed by the Sturm count
        of `tz_block_power_norms` ("sturm-count"), T^d = [[0, -d*B^(d-1)],
        [0, 0]] has norm d and every later power is zero (`tz_block_power`),
        both "closed-form".  Every other entry is `operators.power_norms`,
        which stays the dense oracle of the tzblock values.
        """
        k_max = _count(k_max, "kmax", 1)
        if self.name != "tzblock":
            return power_norms(self.spec, k_max)
        d = self.params["d"]
        values = np.zeros(k_max)
        values[:d - 1] = tz_block_power_norms(d, min(k_max, d - 1))
        values[d - 1:d] = d
        methods = ["sturm-count" if k < d else "closed-form" for k in range(1, k_max + 1)]
        return NormSeries(np.arange(1, k_max + 1), values, methods)


def make_operator(name: str, **params) -> CatalogEntry:
    """Validate a catalog operator's parameters by CLI name; its spec is built on first read.

    Names: tn (n, eta), shields (epsilon, eta, n_max), bermbmp
    (alpha, direction, d), ergces (j_max), tzblock (d).
    """
    if name == "tn":
        p = TNParams(params["n"], params["eta"])
        n, eta = p.n, p.eta
        notes = (
            f"norm 2**eta and top power norm n**(2*eta) exact for n={n}",
            "nilpotent: spectral radius 0",
        )
        return CatalogEntry(name, {"n": n, "eta": eta}, notes, 2 * n)
    if name == "shields":
        p = DirectSumParams(float(params["epsilon"]), float(params["eta"]), params["n_max"])
        notes = (
            f"power-norm lower bound certified for k <= {shields_certified_kmax(p.n_max)}",
            "nilpotent: spectral radius 0",
        )
        return CatalogEntry(name, {"epsilon": p.epsilon, "eta": p.eta, "n_max": p.n_max}, notes,
                            p.n_max * (p.n_max + 1))  # summand n has dimension 2n
    if name == "bermbmp":
        alpha = _require_open("alpha", params["alpha"], 0.0, 0.5)
        direction = str(params.get("direction", "forward"))
        if direction not in ("forward", "backward"):
            raise ValidationError("direction must be 'forward' or 'backward'")
        d = _count(params["d"], "dimension", 2)
        notes = (
            f"truncation of the infinite {direction} shift; power norms exact for k < {d}",
            "nilpotent: spectral radius 0",
        )
        return CatalogEntry(name, {"alpha": alpha, "direction": direction, "d": d}, notes, d)
    if name == "ergces":
        j_max = ErgcesParams(params["j_max"]).j_max
        notes = (
            f"truncation at basis index {j_max}; closed-form powers exact at this truncation",
            "triangular: spectrum is the diagonal, inside [-1, 0)",
        )
        return CatalogEntry(name, {"j_max": j_max}, notes, j_max + 1)
    if name == "tzblock":
        d = _count(params["d"], "block dimension", 2)
        notes = (
            f"truncation at block dimension {d}; power-norm claims trusted for n << {d}",
            "strictly upper triangular: spectral radius 0",
        )
        return CatalogEntry(name, {"d": d}, notes, 2 * d)
    raise ValidationError(f"unknown operator name {name!r}")


CATALOG_NAMES = ("tn", "shields", "bermbmp", "ergces", "tzblock")

#: The catalog names whose spec is a weighted shift or a direct sum of them.
SHIFT_NAMES = ("tn", "shields", "bermbmp")
