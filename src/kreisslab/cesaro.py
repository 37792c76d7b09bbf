"""Cesaro means, second means, rotated mean profiles, and ergodicity probes.

All mean computations read one accumulation stream, _power_sums: a
running sum of powers with one operator application per step, never
re-powering from scratch, so a full profile up to n_max costs at most
n_max multiplications, and none happen past an exactly zero power.
Rotated profiles take the sup over a uniform unimodular grid; for
shift-like operators the rotation is a unitary equivalence, so a single
angle suffices and is recorded as such.  The grid is built from exact
conjugate pairs, and for a real operator (every leaf real, every
rotation scalar real) the norm at conj(lam) equals the norm at lam, so
every sweep over the grid (these mean sups and the resolvent sweeps of
kreiss) evaluates only its points 0..N/2 (_swept_count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import (
    DENSE_CAP,
    SEED,
    Dense,
    OperatorSpec,
    _check_dim,
    _compact,
    _dense_dimension,
    _matrix_norm,
    apply,
    blocks,
    dimension,
    is_shift_like,
    materialize,
)


@dataclass(frozen=True)
class MeanSeries:
    """Per-n mean norms, the rotated sup, and the angle grid behind it."""

    n: np.ndarray
    norm_m1: np.ndarray
    norm_m2: np.ndarray | None
    sup_lambda: np.ndarray
    order: int
    angle_count: int
    rotation_shortcut: bool

    def __post_init__(self):
        for name in ("n", "norm_m1", "sup_lambda"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.norm_m2 is not None:
            arr = np.asarray(self.norm_m2)
            arr.setflags(write=False)
            object.__setattr__(self, "norm_m2", arr)


@dataclass(frozen=True)
class ErgodicProbe:
    """Cauchy gaps of M_n(T)x along a ladder, per probe vector."""

    ladder: tuple
    probe_labels: tuple
    gaps: np.ndarray  # shape (probes, len(ladder) - 1)


#: Final Cauchy gap below which a probe reads as consistent with mean ergodicity.
PROBE_TOLERANCE = 1e-3

#: Relative slack on a cell's bound before it may prune the cell.  It
#: covers the error of the Gram eigensolve's value, about d eps sigma_1:
#: 9.1e-13 sigma_1 at DENSE_CAP.
_PRUNE_SLACK = 1e-12

_EPS = float(np.finfo(float).eps)


def _dense_norm(mat: np.ndarray) -> float:
    """Spectral norm of an explicit matrix under the shared norm policy."""
    return _matrix_norm(mat).value


def _angle_grid(op: OperatorSpec, angle_count: int):
    """(shortcut, lams): lam = 1 alone for shift-like op, else the uniform N-point grid.

    Points k <= N/2 are exp(2 pi i k / N), and point k > N/2 is the exact
    conjugate of point N - k, so conjugation pairs the grid's points
    exactly (exp of the mirrored angle differs from it by up to 7.1e-16).
    Point N/2 of an even grid, exp(i pi) = -1 + 1.2e-16i, is its own
    partner in the sweeps (_swept_count).
    """
    if is_shift_like(op):
        return True, np.array([1.0 + 0.0j])
    head = np.exp(2j * np.pi * np.arange(angle_count // 2 + 1) / angle_count)
    return False, np.concatenate((head, head[1:(angle_count + 1) // 2][::-1].conj()))


def _swept_count(op: OperatorSpec, lams: np.ndarray) -> int:
    """How many leading points of lams = _angle_grid(op, N)[1] a sweep must evaluate.

    When every leaf of op is real and every rotation scalar is real, the
    matrix of each cell at conj(lam) is the entrywise conjugate of the
    one at lam, since the means, resolvents and their powers have real
    coefficients.  Rounding is symmetric under negation, and the
    products, Gram eigensolves, inverses and SVDs treat the sign of an
    imaginary part symmetrically, so the computed norms agree bit for
    bit as well: points 0..N/2 carry every value of the grid.  (Only a
    shift block above SVD_CAP beside a dense one is normed by power
    iteration from a complex seeded start, whose estimates at lam and
    conj(lam) agree to its tolerance.)  Otherwise every point is
    evaluated.
    """
    real = all(complex(scalar).imag == 0.0
               and (not isinstance(leaf, Dense) or np.isrealobj(_compact(leaf.matrix)))
               for *_, scalar, leaf in blocks(op))
    return len(lams) // 2 + 1 if real else len(lams)


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


def _frobenius(mat: np.ndarray) -> float:
    """||mat||_F, an upper bound for the spectral norm at a fraction of its cost.

    Below 1e-300 the squares may have underflowed and the sum bounds
    nothing, so such a matrix gets no bound (inf).
    """
    square = float(np.vdot(mat, mat).real)
    return math.sqrt(square) if square >= 1e-300 else math.inf


def _schatten4(mat: np.ndarray) -> float:
    """||mat* mat||_F^(1/2), the Schatten-4 norm: between sigma_1 and ||mat||_F.

    It costs one Gram product, a fraction of the Gram eigensolve that
    norms a cell at the sweeps' sizes, and is tight where the Frobenius
    norm is not: a matrix with sigma_2 = t sigma_1 has Frobenius bound
    sqrt(1 + t^2) sigma_1 but Schatten-4 bound (1 + t^4)^(1/4) sigma_1.  A Gram matrix whose
    squares may have underflowed gives no bound (inf), as in _frobenius.
    """
    gram = mat.T @ mat if np.isrealobj(mat) else mat.conj().T @ mat
    return math.sqrt(_frobenius(gram))


def _beaten(bound: float, best: float) -> bool:
    """True when a cell whose value is at most bound cannot exceed best.

    The relative slack covers the rounding of the Gram eigensolve's
    value and of scaling the bound like the value, so the value of a
    nearly rank-one matrix may come out above its computed Frobenius
    norm and still be counted.  A NaN bound is never beaten.
    """
    return bound * (1.0 + _PRUNE_SLACK) < best


def _bounds_beaten(mat: np.ndarray, beaten) -> bool:
    """True when beaten(bound) holds for an upper bound of mat's spectral norm.

    The bounds run cheapest first: the Frobenius norm, then the
    Schatten-4 norm.  Each is first raised by d^2 eps (d the larger side
    of mat), the worst-case relative rounding of its sums of d^2 squares
    and of the d-term inner products of the Gram matrix, whose Frobenius
    norm is at least ||mat||_F^2 / sqrt(d); beaten adds _PRUNE_SLACK
    through _beaten.  So a bound is beaten only when the exact norm, and
    the Gram eigensolve's value of it (_dense_norm), cannot win.
    """
    rounding = 1.0 + max(mat.shape) ** 2 * _EPS
    return beaten(_frobenius(mat) * rounding) or beaten(_schatten4(mat) * rounding)


def _norm_unless_beaten(mat: np.ndarray, beaten):
    """_dense_norm(mat), or None when _bounds_beaten(mat, beaten): pruning never changes a value."""
    return None if _bounds_beaten(mat, beaten) else _dense_norm(mat)


def _mean_cells(op: OperatorSpec, n_max: int, lams: np.ndarray, want_order2: bool):
    """Yield (li, n, total, triangular, settled) for every cell of every leaf of op.

    total = sum_{j<=n} (lam T)^j and, when want_order2, triangular =
    sum_{j<=n} (n+1-j) (lam T)^j, for lam = lams[li], leaf by leaf.
    Direct sums reduce blockwise (the mean of a block diagonal is block
    diagonal, its norm the max over blocks); rotations fold their scalar
    into the grid.  settled says that the power added at this cell was
    exactly zero, so total is the previous cell's matrix unchanged.
    """
    lams = np.asarray(lams, dtype=complex)
    for _, _, scalar, leaf in blocks(op):
        mat = _compact(materialize(leaf))
        eye = np.eye(mat.shape[0])
        for li, lam in enumerate(lams if scalar == 1.0 else lams * scalar):
            scaled = _compact(lam * mat)
            start = eye.astype(scaled.dtype)
            triangular = start if want_order2 else None
            yield li, 0, start, triangular, False
            for n, _, total, settled in _power_sums(lambda p: p @ scaled, start, n_max):
                if want_order2:
                    triangular = triangular + total
                yield li, n, total, triangular, settled


def _rotated_mean_norms(op: OperatorSpec, n_max: int, lams: np.ndarray, want_order2: bool = False):
    """Norm tables ||M_n(lam*T)|| (and order 2) over a grid of scalars, every cell normed.

    Returns arrays of shape (len(lams), n_max + 1), the max over the
    leaves of op.  Past a zero power the first-order sum no longer
    changes, so its norm is taken once and divided by n + 1 from then
    on; the second-order sum keeps growing and is normed at every n.
    """
    shape = (len(lams), n_max + 1)
    norm1 = np.zeros(shape)
    norm2 = np.zeros(shape) if want_order2 else None
    for li, n, total, triangular, settled in _mean_cells(op, n_max, lams, want_order2):
        if not settled:
            top = _dense_norm(total)
        norm1[li, n] = np.maximum(norm1[li, n], top / (n + 1))
        if want_order2:
            value = 2.0 * _dense_norm(triangular) / ((n + 1) * (n + 2))
            norm2[li, n] = np.maximum(norm2[li, n], value)
    return norm1, norm2


def rotated_mean_tables(op: OperatorSpec, n_max: int, lams: np.ndarray, want_order2: bool = False):
    """Sups of ||M_n(lam*T)|| and of the order-2 means over n <= n_max and lams.

    Returns (sup1, sup2, sup2_sum); sup2 = sup ||M_n^(2)(lam*T)|| and
    sup2_sum = sup ||M_n^(2)(lam*T)|| * (n+2)/(2(n+1)) are None unless
    want_order2.  Each sup is found by bound-and-prune over the cells
    (lam, n) of every leaf, with one running best per sup across leaves
    and angles: a cell is normed only when neither its Frobenius nor its
    Schatten-4 bound, scaled like its value, is beaten by the running
    best (_norm_unless_beaten).  Every normed cell goes through
    _dense_norm and the same expression as the exhaustive tables, so
    the sups equal the maxima of those tables bit for bit; pruning can
    skip a cell, never change a value.  Cells are streamed, never
    stored.  A cell with a non-finite entry has no finite bound, so it is
    normed, and _dense_norm raises ConvergenceError, as in the tables.
    """
    best1 = 0.0
    best2 = best2_sum = 0.0 if want_order2 else None
    for _, n, total, triangular, settled in _mean_cells(op, n_max, lams, want_order2):
        # Past a zero power total is unchanged, so its mean only shrinks: the
        # previous cell's value, normed or beaten, is already at most best1.
        if not settled:
            top = _norm_unless_beaten(total, lambda bound: _beaten(bound / (n + 1), best1))
            if top is not None:
                best1 = np.maximum(best1, top / (n + 1))
        if want_order2:
            quad = (n + 2.0) / (2.0 * (n + 1.0))
            scale = 2.0 / ((n + 1) * (n + 2))
            top = _norm_unless_beaten(triangular, lambda bound: (
                _beaten(bound * scale, best2) and _beaten(bound * scale * quad, best2_sum)))
            if top is not None:
                value = 2.0 * top / ((n + 1) * (n + 2))
                best2 = np.maximum(best2, value)
                best2_sum = np.maximum(best2_sum, value * quad)
    if want_order2:
        return float(best1), float(best2), float(best2_sum)
    return float(best1), None, None


def rotated_mean_norm_profile(
    op: OperatorSpec,
    n_max: int,
    angle_count: int = 256,
    order: int = 1,
) -> MeanSeries:
    """Sup over the angle grid of ||M_n(lam*T)|| (or the order-2 mean).

    The grid is uniform with lam = 1 as its first point, so the norm_m1
    column always holds the unrotated means.  A real operator's tables
    cover points 0..N/2 only, whose rows hold every value of the grid
    (_swept_count).  Shift-like operators are evaluated at lam = 1 only;
    the sup is exact for them at any resolution, which is recorded via
    ``rotation_shortcut``.
    """
    if angle_count < 1:
        raise ValidationError("angle count must be at least 1")
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    if n_max < 0:
        raise ValidationError("n_max must be non-negative")
    shortcut, lams = _angle_grid(op, angle_count)
    norm1, norm2 = _rotated_mean_norms(op, n_max, lams[:_swept_count(op, lams)], order == 2)
    chosen = norm1 if order == 1 else norm2
    return MeanSeries(
        n=np.arange(n_max + 1),
        norm_m1=norm1[0],
        norm_m2=norm2[0] if norm2 is not None else None,
        sup_lambda=chosen.max(axis=0),
        order=order,
        angle_count=angle_count,
        rotation_shortcut=shortcut,
    )


def cesaro_mean(op: OperatorSpec, n: int) -> Dense:
    """The average of powers I, T, .., T^n as a dense operator."""
    if n < 0:
        raise ValidationError("mean index must be non-negative")
    total = np.eye(_dense_dimension(op), dtype=complex)
    if n > 0:
        mat = materialize(op)
        *_, (_, _, total, _) = _power_sums(lambda p: p @ mat, total, n)  # the last sum
    return Dense(total / (n + 1))


def cesaro_identity_check(op: OperatorSpec, n_max: int) -> np.ndarray:
    """Largest residual of the two power/mean recurrences at each n = 1..n_max.

    Checks T^n = (n+1) M_n - n M_{n-1} and
    (n+2)/(n+1) M_{n+1} - M_n = T^{n+1}/(n+1), both in operator norm;
    entry n-1 of the result is the residual at index n.  One power
    stream up to n_max + 1 serves every n, holding the last three means
    and the last two powers.
    """
    if n_max < 1:
        raise ValidationError("identity check needs n_max >= 1")
    mat = materialize(op)
    eye = np.eye(mat.shape[0], dtype=complex)
    out = np.empty(n_max)
    mean_before = None  # at stream index j: M_{j-2}, M_{j-1} and T^{j-1}
    mean, power = eye, eye
    for j, next_power, total, _ in _power_sums(lambda p: p @ mat, eye, n_max + 1):
        next_mean = total / (j + 1)
        if j >= 2:
            n = j - 1
            first = _dense_norm(power - ((n + 1) * mean - n * mean_before))
            second = _dense_norm((n + 2) / (n + 1) * next_mean - mean - next_power / (n + 1))
            out[n - 1] = max(first, second)
        mean_before, mean, power = mean, next_mean, next_power
    return out


def mean_difference_decay(op: OperatorSpec, ladder) -> np.ndarray:
    """||M_{n+1}(T) - M_n(T)|| at each ladder index n."""
    ladder = tuple(int(n) for n in ladder)
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or any(n < 0 for n in ladder):
        raise ValidationError("ladder must be strictly increasing and non-negative")
    mat = materialize(op)
    wanted = set(ladder)
    out = {}
    previous = np.eye(mat.shape[0], dtype=complex)
    for n, _, total, _ in _power_sums(lambda p: p @ mat, previous, max(ladder) + 1):
        if (n - 1) in wanted:
            out[n - 1] = _dense_norm(total / (n + 1) - previous / n)
        previous = total
    return np.array([out[n] for n in ladder])


def ergodic_probe(
    op: OperatorSpec,
    probes=8,
    ladder=(16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
    seed: int = SEED,
) -> ErgodicProbe:
    """Cauchy gaps ||M_n(T)x - M_m(T)x|| across the ladder.

    ``probes`` is either a count of seeded unit vectors or an explicit
    sequence of vectors (normalized here).  The probe decides nothing:
    a caller gates the final gaps, ``gaps[:, -1]``, against
    PROBE_TOLERANCE (the ``ergces-ergodic-probe`` and
    ``tz-ergodic-probe`` checks of ``reproduce``).
    """
    ladder = tuple(int(n) for n in ladder)
    if len(ladder) < 2:
        raise ValidationError("ladder needs at least two rungs")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValidationError("ladder must be strictly increasing")
    d = dimension(op)
    if isinstance(probes, int):
        rng = np.random.default_rng(seed)
        vecs = []
        labels = []
        for i in range(probes):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs.append(v / np.linalg.norm(v))
            labels.append(f"seeded-{i}")
    else:
        vecs = []
        labels = []
        for i, v in enumerate(probes):
            v = _check_dim(op, v)
            norm = np.linalg.norm(v)
            if norm == 0:
                raise ValidationError("probe vectors must be nonzero")
            vecs.append(v / norm)
            labels.append(f"given-{i}")
    if not vecs:
        raise ValidationError("at least one probe is required")
    # Long ladders dominate the cost: the probes advance together as the
    # columns of one block, by one product with the compacted matrix per
    # step when it fits, else by one structured apply of the block.  A
    # real matrix steps a complex block X as the real block [Re X | Im X]
    # at half the flops of a complex product, and the complex sums are
    # rebuilt at the ladder's rungs only.
    block = np.column_stack(vecs)
    count = block.shape[1]
    split = False
    if d <= DENSE_CAP:
        mat = _compact(materialize(op))
        if not np.iscomplexobj(mat):
            split = bool(block.imag.any())
            block = np.hstack((block.real, block.imag)) if split else block.real.copy()
        step = lambda b: mat @ b
    else:
        step = lambda b: apply(op, b)

    def mean(running, n):
        # Row p is probe p's mean M_n(T)x_p, contiguous like a lone vector,
        # so each gap is normed exactly as it would be for that probe alone.
        if split:
            joined = np.empty((d, count), dtype=complex)
            joined.real, joined.imag = running[:, :count], running[:, count:]
            running = joined
        return (running / (n + 1)).T.copy()

    means = {0: mean(block, 0)}
    for n, _, running, _ in _power_sums(step, block, max(ladder)):
        if n in ladder:
            means[n] = mean(running, n)
    gaps = np.array([[float(np.linalg.norm(row)) for row in means[b] - means[a]]
                     for a, b in zip(ladder, ladder[1:])]).T
    return ErgodicProbe(ladder, tuple(labels), gaps)
