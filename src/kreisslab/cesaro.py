"""Cesaro means, second means, rotated mean profiles, and ergodicity probes.

All mean computations read one accumulation stream, _power_sums: a
running sum of powers with one operator application per step, never
re-powering from scratch, so a full profile up to n_max costs n_max
multiplications.  Rotated profiles take the sup over a uniform
unimodular grid; for shift-like operators the rotation is a unitary
equivalence, so a single angle suffices and is recorded as such.
"""

from __future__ import annotations

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
    tolerance: float
    consistent: bool


def _dense_norm(mat: np.ndarray) -> float:
    """Spectral norm of an explicit matrix under the shared norm policy."""
    return _matrix_norm(mat).value


def _angle_grid(op: OperatorSpec, angle_count: int):
    """(shortcut, lams): lam = 1 alone for shift-like op, else a uniform grid."""
    if is_shift_like(op):
        return True, np.array([1.0 + 0.0j])
    return False, np.exp(2j * np.pi * np.arange(angle_count) / angle_count)


def _power_sums(step, start, n_max: int):
    """Yield (n, T^n s, sum_{j<=n} T^j s) for n = 1..n_max, where step(v) = T v."""
    power = total = start
    for n in range(1, n_max + 1):
        power = step(power)
        total = total + power
        yield n, power, total


def _mean_tables(mat: np.ndarray, n_max: int, lams: np.ndarray, want_order2: bool):
    norm1 = np.zeros((lams.size, n_max + 1))
    norm2 = np.zeros((lams.size, n_max + 1)) if want_order2 else None
    eye = np.eye(mat.shape[0])
    for li, lam in enumerate(lams):
        scaled = _compact(lam * mat)
        start = eye.astype(scaled.dtype)
        triangular = start  # sum of (n+1-j) * (lam T)^j
        norm1[li, 0] = _dense_norm(start)
        if want_order2:
            norm2[li, 0] = norm1[li, 0]
        for n, _, total in _power_sums(lambda p: p @ scaled, start, n_max):
            norm1[li, n] = _dense_norm(total) / (n + 1)
            if want_order2:
                triangular = triangular + total
                norm2[li, n] = 2.0 * _dense_norm(triangular) / ((n + 1) * (n + 2))
    return norm1, norm2


def rotated_mean_tables(op: OperatorSpec, n_max: int, lams: np.ndarray, want_order2: bool = False):
    """Norm tables ||M_n(lam*T)|| (and order 2) over a grid of scalars.

    Returns arrays of shape (len(lams), n_max + 1).  Direct sums reduce
    blockwise (the mean of a block diagonal is block diagonal, its norm
    the max over blocks); rotations fold their scalar into the grid.
    """
    lams = np.asarray(lams, dtype=complex)
    tables = [
        _mean_tables(_compact(materialize(leaf)), n_max,
                     lams if scalar == 1.0 else lams * scalar, want_order2)
        for _, _, scalar, leaf in blocks(op)
    ]
    norm1 = np.max([t[0] for t in tables], axis=0)
    return norm1, np.max([t[1] for t in tables], axis=0) if want_order2 else None


def rotated_mean_norm_profile(
    op: OperatorSpec,
    n_max: int,
    angle_count: int = 256,
    order: int = 1,
) -> MeanSeries:
    """Sup over the angle grid of ||M_n(lam*T)|| (or the order-2 mean).

    The grid is uniform with lam = 1 as its first point, so the norm_m1
    column always holds the unrotated means.  Shift-like operators are
    evaluated at lam = 1 only; the sup is exact for them at any
    resolution, which is recorded via ``rotation_shortcut``.
    """
    if angle_count < 1:
        raise ValidationError("angle count must be at least 1")
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    if n_max < 0:
        raise ValidationError("n_max must be non-negative")
    shortcut, lams = _angle_grid(op, angle_count)
    norm1, norm2 = rotated_mean_tables(op, n_max, lams, order == 2)
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
        *_, (_, _, total) = _power_sums(lambda p: p @ mat, total, n)  # the last sum
    return Dense(total / (n + 1))


def cesaro_mean2(op: OperatorSpec, n: int) -> Dense:
    """The second mean, cross-checking its two equivalent forms.

    Form one averages the running means with weights (j+1); form two is
    the triangular sum of (n+1-j) T^j.  Both are accumulated in one pass
    and must agree to 1e-12; the triangular form is returned.
    """
    if n < 0:
        raise ValidationError("mean index must be non-negative")
    eye = np.eye(_dense_dimension(op), dtype=complex)
    mat = materialize(op) if n > 0 else None
    scale = 2.0 / ((n + 1) * (n + 2))

    averaged = eye  # sum of (j+1) * M_j, literally
    triangular = (n + 1) * eye
    for j, power, running in _power_sums(lambda p: p @ mat, eye, n):
        averaged = averaged + (j + 1) * (running / (j + 1))
        triangular = triangular + (n + 1 - j) * power
    form_one = scale * averaged
    form_two = scale * triangular

    gap = float(np.max(np.abs(form_one - form_two)))
    if gap > 1e-12 * max(1.0, float(np.max(np.abs(form_two)))):
        raise RuntimeError(f"second-mean forms disagree by {gap:.3e}")
    return Dense(form_two)


def cesaro_identity_check(op: OperatorSpec, n: int) -> float:
    """Largest residual of the two power/mean recurrences at index n.

    Checks T^n = (n+1) M_n - n M_{n-1} and
    (n+2)/(n+1) M_{n+1} - M_n = T^{n+1}/(n+1), both in operator norm.
    """
    if n < 1:
        raise ValidationError("identity check needs n >= 1")
    mat = materialize(op)
    eye = np.eye(mat.shape[0], dtype=complex)
    means = {0: eye}
    powers = {}
    for j, power, total in _power_sums(lambda p: p @ mat, eye, n + 1):
        if j >= n - 1:
            means[j] = total / (j + 1)
            powers[j] = power
    first = _dense_norm(powers[n] - ((n + 1) * means[n] - n * means[n - 1]))
    second = _dense_norm((n + 2) / (n + 1) * means[n + 1] - means[n] - powers[n + 1] / (n + 1))
    return max(first, second)


def mean_difference_decay(op: OperatorSpec, ladder) -> np.ndarray:
    """||M_{n+1}(T) - M_n(T)|| at each ladder index n."""
    ladder = tuple(int(n) for n in ladder)
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or any(n < 0 for n in ladder):
        raise ValidationError("ladder must be strictly increasing and non-negative")
    mat = materialize(op)
    wanted = set(ladder)
    out = {}
    previous = np.eye(mat.shape[0], dtype=complex)
    for n, _, total in _power_sums(lambda p: p @ mat, previous, max(ladder) + 1):
        if (n - 1) in wanted:
            out[n - 1] = _dense_norm(total / (n + 1) - previous / n)
        previous = total
    return np.array([out[n] for n in ladder])


def ergodic_probe(
    op: OperatorSpec,
    probes=8,
    ladder=(16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
    tolerance: float = 1e-3,
    seed: int = SEED,
) -> ErgodicProbe:
    """Cauchy gaps ||M_n(T)x - M_m(T)x|| across the ladder.

    ``probes`` is either a count of seeded unit vectors or an explicit
    sequence of vectors (normalized here).  The verdict is consistent
    with mean ergodicity when, for every probe, the final gap sits below
    the tolerance.  A reporting heuristic, never an acceptance gate.
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
    # step when it fits, else column by column through the structured
    # action.  The block stays real when the matrix and every probe are.
    block = np.column_stack(vecs)
    if d <= DENSE_CAP:
        mat = _compact(materialize(op))
        if not np.iscomplexobj(mat) and not block.imag.any():
            block = block.real.copy()
        step = lambda b: mat @ b
    else:
        step = lambda b: np.column_stack([apply(op, col) for col in b.T])
    # Row p is probe p's mean M_n(T)x_p, contiguous like a lone vector, so
    # each gap is normed exactly as it would be for that probe alone.
    means = {0: block.T.copy()}
    for n, _, running in _power_sums(step, block, max(ladder)):
        if n in ladder:
            means[n] = (running / (n + 1)).T.copy()
    gaps = np.array([[float(np.linalg.norm(row)) for row in means[b] - means[a]]
                     for a, b in zip(ladder, ladder[1:])]).T
    consistent = bool(np.all(gaps[:, -1] <= tolerance))
    return ErgodicProbe(ladder, tuple(labels), gaps, tolerance, consistent)
