"""Operator representations and the core numerical kernels.

Operators are immutable structural descriptions: dense blocks (real or complex),
weighted shifts given by their ratio lists, direct sums, and unimodular
scalar rotations of an inner operator.  Vectors are plain 1-D numpy
arrays.  All kernels are pure functions of their inputs and safe to call
concurrently.

Matrix convention, used everywhere: entry (i, j) is the e_i coefficient
of op(e_j), i.e. columns hold images of basis vectors.  A forward shift
with ratios (r_1, .., r_{d-1}) maps e_j to r_j * e_{j+1} and e_d to 0,
so it materializes with the ratios on the subdiagonal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConvergenceError, DimensionError, SingularError, SizeError, ValidationError

#: Deterministic seed for every iterative kernel.
SEED = 0x5EED

#: Largest dimension materialized as a dense matrix.
DENSE_CAP = 4096

#: Range of ||A||_F^2 inside which the Gram matrix A* A is formed as it
#: is: no entry overflows, and what underflows stays below eps * sigma_1^2
#: for any d up to 2^20.
_GRAM_RANGE = (2.0**-960, 2.0**960)

_UNIMODULAR_TOL = 1e-12


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dense:
    """Explicit matrix operator: complex input stays complex, any other is float64."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.matrix, complex if np.iscomplexobj(self.matrix) else float)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValidationError("dense operator requires a square matrix")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("dense operator entries must be finite")


@dataclass(frozen=True)
class WeightedShift:
    """Weighted shift given by the successive weight ratios w_{j+1}/w_j.

    ``forward`` maps e_j to ratios[j-1] * e_{j+1}, ``backward`` is its
    adjoint and maps e_{j+1} to ratios[j-1] * e_j.
    """

    direction: str
    ratios: np.ndarray

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValidationError("direction must be 'forward' or 'backward'")
        ratios = _frozen_array(self.ratios, float)
        object.__setattr__(self, "ratios", ratios)
        if ratios.ndim != 1 or ratios.size < 1:
            raise ValidationError("ratio list must be a non-empty 1-D vector")
        if not np.all(np.isfinite(ratios)) or np.any(ratios <= 0):
            raise ValidationError("shift ratios must be strictly positive and finite")


@dataclass(frozen=True)
class DirectSum:
    """Block-diagonal direct sum of operator summands."""

    summands: tuple

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        if not self.summands:
            raise ValidationError("direct sum requires at least one summand")


@dataclass(frozen=True)
class RotatedScale:
    """Unimodular scalar multiple of an inner operator."""

    scalar: complex
    inner: "OperatorSpec"

    def __post_init__(self):
        lam = complex(self.scalar)
        object.__setattr__(self, "scalar", lam)
        if abs(abs(lam) - 1.0) > _UNIMODULAR_TOL:
            raise ValidationError("rotation scalar must be unimodular")


OperatorSpec = Union[Dense, WeightedShift, DirectSum, RotatedScale]


@dataclass(frozen=True)
class NormEstimate:
    """A spectral-norm value together with how it was obtained."""

    value: float
    # "power-iteration" | "dense-gram" | "closed-form" (power_norms' label
    # of a structured operator with a Dense block) | "dense-svd-oracle"
    # (power_norms' value overriding the iteration)
    method: str
    residual: float
    iterations: int

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError("norm estimates are non-negative")


@dataclass(frozen=True)
class NormSeries:
    """Power-norm sequence (k, ||T^k||) with per-k method tags."""

    k: np.ndarray
    values: np.ndarray
    methods: tuple

    def __post_init__(self):
        object.__setattr__(self, "k", _frozen_array(self.k, int))
        object.__setattr__(self, "values", _frozen_array(self.values, float))
        object.__setattr__(self, "methods", tuple(self.methods))


def dimension(op: OperatorSpec) -> int:
    if isinstance(op, Dense):
        return op.matrix.shape[0]
    if isinstance(op, WeightedShift):
        return op.ratios.size + 1
    if isinstance(op, DirectSum):
        return sum(dimension(s) for s in op.summands)
    if isinstance(op, RotatedScale):
        return dimension(op.inner)
    raise TypeError(f"not an operator spec: {type(op)!r}")


def blocks(op: OperatorSpec) -> list:
    """The leaves of op in coordinate order, as (start, stop, scalar, leaf).

    Each Dense or WeightedShift leaf acts on coordinates start:stop of
    the block diagonal, and scalar is the product of the rotations that
    enclose it (1.0 when there is none).  This is the one walk over
    direct sums and rotations: every kernel over a block diagonal
    reduces over these blocks and folds each rotation into its scalar.
    """
    out = []
    _walk(op, 0, 1.0, out)
    return out


def _walk(node, start: int, scalar, out: list) -> int:
    """Append the leaves of node from coordinate start to out; return the coordinate after them.

    A module-level function, not a closure: a nested walk that calls
    itself is a reference cycle, which would keep out and every leaf in
    it alive until the cyclic garbage collector runs.
    """
    if isinstance(node, DirectSum):
        for summand in node.summands:
            start = _walk(summand, start, scalar, out)
        return start
    if isinstance(node, RotatedScale):
        return _walk(node.inner, start, node.scalar if scalar == 1.0 else scalar * node.scalar, out)
    stop = start + dimension(node)
    out.append((start, stop, scalar, node))
    return stop


def is_shift_like(op: OperatorSpec) -> bool:
    """True when op is unitarily equivalent to all its unimodular rotations.

    Holds when every block is a weighted shift, whatever its rotation:
    conjugating by the diagonal unitary diag(lam**j) turns lam*op back
    into op and leaves every norm unchanged.
    """
    return all(isinstance(leaf, WeightedShift) for *_, leaf in blocks(op))


def adjoint(op: OperatorSpec) -> OperatorSpec:
    """Structural adjoint: conjugate transpose action as a new spec."""
    if isinstance(op, Dense):
        return Dense(op.matrix.conj().T)
    if isinstance(op, WeightedShift):
        flipped = "backward" if op.direction == "forward" else "forward"
        return WeightedShift(flipped, op.ratios)
    if isinstance(op, DirectSum):
        return DirectSum(tuple(adjoint(s) for s in op.summands))
    if isinstance(op, RotatedScale):
        return RotatedScale(np.conj(op.scalar), adjoint(op.inner))
    raise TypeError(f"not an operator spec: {type(op)!r}")


def _check_dim(op: OperatorSpec, x: np.ndarray, ndims=(1,), dtype=complex) -> np.ndarray:
    """x as an array of dtype and of ndim in ndims whose first axis has op's dimension."""
    x = np.asarray(x)
    if x.ndim not in ndims or x.shape[0] != dimension(op):
        raise DimensionError(
            f"array of shape {x.shape} does not match operator dimension {dimension(op)}"
        )
    return x.astype(dtype, copy=False)


def _count(value, name: str, minimum: int = 0) -> int:
    """value as an int of at least minimum: any integral type passes, a float does not.

    Every count of the public API (a number of powers, steps, terms,
    probes or angles) goes through here, so a float such as 2.5 or 8.0
    raises ValidationError rather than a TypeError deep in a loop, or a
    silent truncation.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        least = f"at least {minimum}" if minimum else "non-negative"
        raise ValidationError(f"{name} must be {least}, got {count}")
    return count


def _join(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def apply(op: OperatorSpec, x: np.ndarray) -> np.ndarray:
    """Return op @ x.  O(d) for shifts, blockwise for direct sums.

    x is one vector or a (d, k) block whose k columns are applied at
    once; a shift scales each column exactly as it scales a lone vector.

    The result is float64 when x is not complex and op is real
    (_is_real), complex128 otherwise; any other input (an integer
    array, say) is cast to the one of the two.  As in materialize, a
    real rotation scalar multiplies by its real part, so a shift's real
    result has the bits of the real part of its complex one; a Dense
    leaf's may differ in the last bit, since BLAS sums real and complex
    products in different orders.
    """
    real = not np.iscomplexobj(x) and _is_real(op)
    x = _check_dim(op, x, (1, 2), float if real else complex)
    parts = []
    for start, stop, scalar, leaf in blocks(op):
        v = x[start:stop]
        if isinstance(leaf, Dense):
            y = (leaf.matrix.real if real else leaf.matrix) @ v
        else:
            # The products are written in place: no temporary, and the same bits.
            ratios = leaf.ratios if v.ndim == 1 else leaf.ratios[:, None]
            y = np.empty_like(v)
            if leaf.direction == "forward":
                y[0] = 0.0
                np.multiply(ratios, v[:-1], out=y[1:])
            else:
                y[-1] = 0.0
                np.multiply(ratios, v[1:], out=y[:-1])
        if scalar != 1.0:
            y = (scalar.real if real else scalar) * y
        parts.append(y)
    return _join(parts)


def apply_adjoint(op: OperatorSpec, x: np.ndarray) -> np.ndarray:
    """Return op* @ x, the conjugate-transpose action."""
    return apply(adjoint(op), x)


def _dense_dimension(op: OperatorSpec) -> int:
    """dimension(op), raising SizeError when it exceeds DENSE_CAP."""
    d = dimension(op)
    if d > DENSE_CAP:
        raise SizeError(f"dimension {d} exceeds dense cap {DENSE_CAP}")
    return d


def _is_real(op: OperatorSpec) -> bool:
    """Whether every rotation scalar of op is real and every Dense leaf has a zero imaginary part.

    The one realness predicate: materialize and apply pick their field
    by it, and the rotated sweeps halve their grids by it
    (cesaro._swept_count).
    """
    return all(scalar.imag == 0.0
               and not (isinstance(leaf, Dense) and np.iscomplexobj(leaf.matrix)
                        and leaf.matrix.imag.any())
               for *_, scalar, leaf in blocks(op))


def materialize(op: OperatorSpec) -> np.ndarray:
    """Explicit matrix of op, exact for structured variants.

    float64 when op is real (_is_real), complex128 otherwise.  A real
    rotation scalar multiplies a real block with the bits of the real
    part of the complex product, so the entries equal those of the
    complex matrix either way.
    """
    d = _dense_dimension(op)
    real = _is_real(op)
    mat = np.zeros((d, d), dtype=float if real else complex)
    for start, stop, scalar, leaf in blocks(op):
        block = mat[start:stop, start:stop]
        if isinstance(leaf, Dense):
            block[...] = leaf.matrix.real if real else leaf.matrix
        else:
            idx = np.arange(stop - start - 1)
            if leaf.direction == "forward":
                block[idx + 1, idx] = leaf.ratios
            else:
                block[idx, idx + 1] = leaf.ratios
        if scalar != 1.0:
            block *= scalar.real if real else scalar
    return mat


def _compact(mat: np.ndarray) -> np.ndarray:
    # Real matrices power and decompose ~3x faster than complex ones.
    if np.iscomplexobj(mat) and not mat.imag.any():
        return np.ascontiguousarray(mat.real)
    return mat


_STALL_WINDOW = 300
_MAX_ITER = 20000


def _power_iteration(matvec, matvec_adj, d, tol):
    """Largest singular value via power iteration on A* A.

    Deterministic start seeded with SEED, Rayleigh-quotient residual
    stopping: stop when ||A*A v - rho v|| <= tol * rho with v the current
    unit iterate and rho its Rayleigh quotient.  When the residual stops
    improving for _STALL_WINDOW iterations (clustered top singular
    values), the iteration reports non-convergence early instead of
    burning the full budget of _MAX_ITER; the value estimate is still the
    best seen.  Only structured operators are iterated, through their
    O(d) action; explicit matrices go to _matrix_norm.
    """
    rng = np.random.default_rng(SEED)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    best = 0.0
    best_res = np.inf
    last_gain = 0
    for it in range(1, _MAX_ITER + 1):
        w = matvec_adj(matvec(v))
        rho = float(np.real(np.vdot(v, w)))
        if rho <= 0.0:
            # A*A v vanished for a generic start vector: norm is zero.
            return 0.0, 0.0, it, True
        res = float(np.linalg.norm(w - rho * v)) / rho
        if res < 0.99 * best_res:
            last_gain = it
        if res < best_res:
            best = float(np.sqrt(rho))
            best_res = res
        if res <= tol:
            return float(np.sqrt(rho)), res, it, True
        if it - last_gain >= _STALL_WINDOW:
            break
        v = w / np.linalg.norm(w)
    return best, best_res, it, False


def _matrix_norm(mat: np.ndarray) -> NormEstimate:
    """The norm policy for explicit matrices: no iteration, at any size.

    sqrt(lambda_max(A* A)) from a symmetric eigensolve of the Gram
    matrix ("dense-gram"), with an error of about d*eps*sigma_1, the
    same order as the dense SVD's, at a third (real) to a half (complex)
    of its cost at 128^2.
    Only the largest singular value survives the squaring this way;
    sigma_min needs the SVD.  A zero column of A leaves an exactly zero
    row and column in A* A; those are dropped before the eigensolve,
    which drops only zero eigenvalues, and an all-zero A has norm 0.0.
    When ||A||_F^2, the trace of A* A, lies outside _GRAM_RANGE, the
    Gram matrix could overflow or lose its top digits to underflow: A
    is then scaled by an exact power of two and normed again, the only
    case that copies A to scale it.  A non-finite entry or a failed
    eigensolve raises ConvergenceError.
    """
    mat = _compact(mat)
    square = float(np.vdot(mat, mat).real)
    if not _GRAM_RANGE[0] <= square <= _GRAM_RANGE[1]:  # also NaN
        if not np.isfinite(mat).all():
            raise ConvergenceError("matrix has non-finite entries: its norm is undefined")
        peak = np.abs(mat.real).max()
        if np.iscomplexobj(mat):
            peak = max(peak, np.abs(mat.imag).max())
        if peak == 0.0:
            return NormEstimate(0.0, "dense-gram", 0.0, 0)
        # Entries of magnitude below 1 with one of at least 1/2 put ||A||_F^2
        # in [1/4, 2d^2); a subnormal peak still lands far inside the range.
        exponent = max(math.frexp(peak)[1], -1000)
        scaled = _matrix_norm(mat * math.ldexp(1.0, -exponent)).value
        with np.errstate(over="ignore"):  # a norm above the float range is inf
            return NormEstimate(float(np.ldexp(scaled, exponent)), "dense-gram", 0.0, 0)
    gram = mat.T @ mat if np.isrealobj(mat) else mat.conj().T @ mat
    if not gram.diagonal().all():
        # A zero row and column has a zero diagonal entry.  Testing the whole
        # row and column keeps a nonzero column whose squares underflowed.
        idle = np.flatnonzero(gram.diagonal() == 0)
        idle = idle[~(gram[idle].any(axis=1) | gram[:, idle].any(axis=0))]
        if idle.size:
            keep = np.ones(gram.shape[0], dtype=bool)
            keep[idle] = False
            gram = gram.compress(keep, axis=0)
            gram = gram.compress(keep, axis=1)
    try:
        top = np.linalg.eigvalsh(gram)[-1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Gram eigensolve failed: {exc}") from exc
    return NormEstimate(math.sqrt(max(0.0, top)), "dense-gram", 0.0, 0)


def spectral_norm(op: OperatorSpec, tol: float = 1e-10) -> NormEstimate:
    """Largest singular value of op.

    Dense operators are normed by _matrix_norm, the Gram eigensolve
    ("dense-gram"); ``tol`` does not apply to them.  Every structured
    operator has an oracle exact by structure, power_norms(op, 1): the
    max over op's blocks of each shift's closed form and each Dense
    leaf's _matrix_norm, since a rotation changes no norm.  An operator
    with a Dense block returns that value with its block's label
    ("dense-gram" or "closed-form"): iterating would only repeat the
    leaf's eigensolve at far greater cost.  Shift-like operators run
    seeded power iteration on op* op through their O(d) action to
    relative residual ``tol``, which must lie in (0, 1): a residual of 1
    or more stops a random start at once, far from the norm.  The oracle
    overrides the estimate on disagreement or a stall (labelled
    "dense-svd-oracle"), so a stall is never an error.
    """
    if not 0 < tol < 1:  # also NaN and inf
        raise ValidationError(f"tolerance must lie in (0, 1), got {tol!r}")
    if isinstance(op, Dense):
        return _matrix_norm(op.matrix)
    oracle = power_norms(op, 1)
    sigma = float(oracle.values[0])
    if not is_shift_like(op):
        return NormEstimate(sigma, oracle.methods[0], 0.0, 0)
    op_adj = adjoint(op)
    value, res, iters, ok = _power_iteration(
        lambda v: apply(op, v), lambda v: apply(op_adj, v), dimension(op), tol
    )
    if not (ok and abs(value - sigma) <= 1e-8 * max(sigma, value, 1e-300)):
        return NormEstimate(sigma, "dense-svd-oracle", res, iters)
    return NormEstimate(value, "power-iteration", res, iters)


def _shift_log_weights(op: WeightedShift) -> np.ndarray:
    # Cumulative log weights L with L[0] = 0; window products of ratios
    # become differences, which keeps k-step products stable for any k.
    return np.concatenate(([0.0], np.cumsum(np.log(op.ratios))))


def _shift_power_norms(op: WeightedShift, kmax: int) -> np.ndarray:
    d = op.ratios.size + 1
    logw = _shift_log_weights(op)
    out = np.zeros(kmax)
    for k in range(1, min(kmax, d - 1) + 1):
        out[k - 1] = np.exp(np.max(logw[k:] - logw[:-k]))
    return out


def _power_sums(step, start, n_max: int):
    """Yield (n, T^n s, sum_{j<=n} T^j s, settled) for n = 1..n_max, where step(v) = T v.

    settled says that T^n s is exactly zero.  From then on every power
    is that zero and the sum no longer changes, so step is not called
    again and the same two arrays are yielded up to n_max: the values
    equal those of stepping on, up to the sign of a zero entry.
    """
    power = total = start
    settled = False
    for n in range(1, n_max + 1):
        if not settled:
            power = step(power)
            total = total + power
            # The first entry is a cheap witness on streams that never reach zero.
            settled = not (power.item(0) or power.any())
        yield n, power, total, settled


def _leaf_power_norms(leaf, kmax: int) -> NormSeries:
    ks = np.arange(1, kmax + 1)
    if isinstance(leaf, WeightedShift):
        return NormSeries(ks, _shift_power_norms(leaf, kmax), ("closed-form",) * kmax)
    mat = materialize(leaf)
    vals = np.zeros(kmax)  # the tail from the first zero power on stays 0.0
    normed = 0
    eye = np.eye(mat.shape[0], dtype=mat.dtype)
    for n, power, _, settled in _power_sums(lambda p: p @ mat, eye, kmax):
        if settled:
            break
        vals[n - 1] = _matrix_norm(power).value
        normed = n
    return NormSeries(ks, vals, ("dense-gram",) * normed + ("closed-form",) * (kmax - normed))


def power_norms(op: OperatorSpec, kmax: int) -> NormSeries:
    """The sequence ||op**k|| for k = 1..kmax.

    Weighted shifts use the exact closed form: ||S^k|| is the largest
    product of k consecutive ratios (equivalently max_j w_{j+k}/w_j),
    and is 0 once k reaches the dimension.  Dense blocks step their
    powers by _power_sums and norm each by _matrix_norm up to the first
    zero power; the zero tail is 0.0, neither formed nor normed, and
    labelled "closed-form".
    Rotations leave power norms unchanged, and a direct sum takes the
    max over its blocks, each k tagged by the first block attaining it.
    """
    kmax = _count(kmax, "kmax", 1)
    series = [_leaf_power_norms(leaf, kmax) for *_, leaf in blocks(op)]
    values = np.array([s.values for s in series])
    first = np.argmax(values, axis=0)  # the first block attaining each max
    i = np.arange(kmax)
    return NormSeries(
        i + 1,
        values[first, i],
        tuple(series[b].methods[k] for k, b in enumerate(first)),
    )


def _resolvent_residual_check(op, lam, y, x):
    res = lam * y - apply(op, y) - x
    bound = 1e-10 * max(float(np.linalg.norm(x)), 1e-300)
    return float(np.linalg.norm(res)) <= bound


def _leaf_resolvent(leaf, lam: complex, x: np.ndarray) -> np.ndarray:
    if isinstance(leaf, Dense):
        system = lam * np.eye(leaf.matrix.shape[0]) - leaf.matrix
        try:
            y = np.linalg.solve(system, x)
            if not _resolvent_residual_check(leaf, lam, y, x):
                y = y + np.linalg.solve(system, x - system @ y)
        except np.linalg.LinAlgError as exc:
            raise SingularError(f"resolvent system singular at lam={lam}") from exc
        if not _resolvent_residual_check(leaf, lam, y, x):
            raise SingularError(f"resolvent solve lost accuracy at lam={lam}")
        return y
    d = x.size
    y = np.empty_like(x)
    r = leaf.ratios
    if leaf.direction == "forward":
        y[0] = x[0] / lam
        for j in range(1, d):
            y[j] = (x[j] + r[j - 1] * y[j - 1]) / lam
    else:
        y[d - 1] = x[d - 1] / lam
        for j in range(d - 2, -1, -1):
            y[j] = (x[j] + r[j] * y[j + 1]) / lam
    if not _resolvent_residual_check(leaf, lam, y, x):
        raise SingularError(f"shift resolvent lost accuracy at lam={lam}")
    return y


def resolvent_apply(op: OperatorSpec, lam: complex, x: np.ndarray) -> np.ndarray:
    """Solve (lam*I - op) y = x for |lam| > 1.

    Dense blocks use an LU solve; shifts reduce to bidiagonal
    substitution in O(d); direct sums solve blockwise.  The residual is
    verified against 1e-10 * ||x|| with one refinement step before a
    SingularError is raised.  The solve is complex whatever x is: a
    real x has a complex solution at a non-real lam.
    """
    lam = complex(lam)
    if abs(lam) <= 1.0:
        raise ValidationError("resolvent points must satisfy |lam| > 1")
    x = _check_dim(op, x)
    parts = []
    for start, stop, scalar, leaf in blocks(op):
        if scalar == 1.0:
            parts.append(_leaf_resolvent(leaf, lam, x[start:stop]))
        else:
            # (lam - mu*A)^{-1} x = mu^{-1} ((lam/mu) - A)^{-1} x with |mu| = 1.
            parts.append(_leaf_resolvent(leaf, lam / scalar, x[start:stop]) / scalar)
    return _join(parts)
