"""Cesaro means, second means, rotated mean profiles, and ergodicity probes.

Every mean is a running sum of powers, never recomputing a power from
the start, and no power is multiplied past an exactly zero one.  Every
power comes from the one stream _power_sums, one product per step, in
the field of materialize: real for a real operator, as every catalog
operator is, at about a third of the cost of a complex product.  A real
mean is its sum times the reciprocal of n + 1, the product numpy forms
when it divides a complex sum by n + 1, so a real stream keeps the bits
of the complex one.  The rotated mean sweeps step each swept point of a
leaf alone (_mean_cells): since (lam T)^n = lam^n T^n, a point steps the
leaf's own powers, real for a real leaf, and scales each by its lam^n.
Their first pass steps no point for its bounds: ||sum_j lam^j T^j||_F^2
is a quadratic form in the Gram matrix of the powers, <T^j, T^k>, so
one pass over the leaf's powers bounds every cell of every point
(_seed_bounds).  These bounds pick the seeds and the points to step;
each stepped cell is then checked once, by the cascade of
_norm_unless_beaten.  The probes and the mean differences read their
sums only at sparse rungs of that same stream.

Rotated profiles take the sup over a uniform unimodular grid; for
shift-like operators the rotation is a unitary equivalence, so a single
angle suffices and is recorded as such.  The grid is built from exact
conjugate pairs, and for a real operator (every leaf real, every
rotation scalar real) the norm at conj(lam) equals the norm at lam, so
every sweep over the grid (these mean sups and the resolvent sweeps of
kreiss) evaluates only its points 0..N/2 (_swept_count).

A positive weighted shift and its direct sums need no matrix at all:
their means are nonnegative, so shift_mean_norm_bracket brackets each
||M_n|| by Collatz-Wielandt power steps applied by prefix sums, in
O(d) per step and n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .operators import (
    SEED,
    OperatorSpec,
    WeightedShift,
    _check_dim,
    _count,
    _is_real,
    _matrix_norm,
    _power_sums,
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
class MeanBracket:
    """lower[i] <= ||M_n(T)|| <= upper[i] for n = n[i], and the power steps it took."""

    n: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    steps: int

    def __post_init__(self):
        for name in ("n", "lower", "upper"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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

_TINY = float(np.finfo(float).tiny)

#: Power steps every n of shift_mean_norm_bracket takes before pruning.
_SHIFT_MEAN_WARMUP = 12

#: Most power steps any n of shift_mean_norm_bracket takes.
_SHIFT_MEAN_STEPS = 200

#: Relative width of the sup's bracket at which shift_mean_norm_bracket stops.
_SHIFT_MEAN_WIDTH = 1e-9

#: Side of the table budget of _seed_bounds: each window's Gram strip
#: and tables hold at most _SEED_WINDOW**2 entries.
_SEED_WINDOW = 256

#: Multiply-adds from which OpenBLAS (0.3.31, 2 threads) hands a real
#: matrix product to its thread pool; a complex product counts eight
#: times.  Smaller products run on the calling thread.
_POOLED_PRODUCT = 2**19


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
    angle_count = _count(angle_count, "angle count", 1)
    if is_shift_like(op):
        return True, np.array([1.0 + 0.0j])
    head = np.exp(2j * np.pi * np.arange(angle_count // 2 + 1) / angle_count)
    return False, np.concatenate((head, head[1:(angle_count + 1) // 2][::-1].conj()))


def _swept_count(op: OperatorSpec, lams: np.ndarray) -> int:
    """How many leading points of lams = _angle_grid(op, N)[1] a sweep must evaluate.

    When op is real (_is_real: every rotation scalar is real and every
    Dense leaf has a zero imaginary part), the matrix of each cell at
    conj(lam) is the entrywise conjugate of the one at lam, since the
    means, resolvents and their powers have real coefficients.  Rounding
    is symmetric under negation, and the products, Gram eigensolves,
    inverses and SVDs treat the sign of an imaginary part symmetrically,
    so the computed norms agree bit for bit as well: points 0..N/2 carry
    every value of the grid.  Otherwise every point is evaluated.
    """
    return len(lams) // 2 + 1 if _is_real(op) else len(lams)


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


def _bounds_beaten(mat: np.ndarray, beaten):
    """The first upper bound of mat's spectral norm for which beaten(bound) holds, else None.

    The bounds run cheapest first: the Frobenius norm, then the
    Schatten-4 norm.  Each is first raised by d^2 eps (d the larger side
    of mat), the worst-case relative rounding of its sums of d^2 squares
    and of the d-term inner products of the Gram matrix, whose Frobenius
    norm is at least ||mat||_F^2 / sqrt(d); beaten adds _PRUNE_SLACK
    through _beaten.  So a bound is beaten only when the exact norm, and
    the Gram eigensolve's value of it (_dense_norm), cannot win.  Every
    bound is positive (_frobenius), so the result is true exactly when
    one is beaten.
    """
    rounding = 1.0 + max(mat.shape) ** 2 * _EPS
    bound = _frobenius(mat) * rounding
    if beaten(bound):
        return bound
    bound = _schatten4(mat) * rounding
    return bound if beaten(bound) else None


def _norm_unless_beaten(mat: np.ndarray, beaten):
    """(value, normed): (_dense_norm(mat), True), or (bound, False) for the bound beaten held for.

    Either value bounds mat's norm, the normed one up to the rounding of
    the Gram eigensolve, so a caller may carry it on; pruning never
    changes a value.
    """
    bound = _bounds_beaten(mat, beaten)
    return (_dense_norm(mat), True) if bound is None else (bound, False)


def _gram_strip(held: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """held.conj() @ powers.T, in row blocks that each stay below _POOLED_PRODUCT.

    The blocks are written into one preallocated strip.  When fewer than
    two rows fit (one row would be a matrix-vector product, which the
    pool takes at smaller sizes), the strip is one product: work that
    large pays for the pool.
    """
    row = powers.size * (8 if np.iscomplexobj(powers) else 1)
    step = (_POOLED_PRODUCT - 1) // row
    if step < 2:
        step = len(held)
    strip = np.empty((len(held), len(powers)), dtype=powers.dtype)
    for i in range(0, len(held), step):
        np.matmul(held[i:i + step].conj(), powers.T, out=strip[i:i + step])
    return strip


def _seed_bounds(mat: np.ndarray, n_max: int, scalars: np.ndarray):
    """(bound1, bound2): upper bounds of ||total||_F and ||triangular||_F, no point stepped.

    Each array has one row per point scalars[p] and one column per
    n = 0..n_max, and bounds the Frobenius norm of the cell that
    _mean_cells steps for the materialized leaf mat at that point.  Write
    P_j for the powers that _power_sums steps from P_0 = I, as
    _mean_cells does, top for the last nonzero one up to n_max, H for
    their Gram matrix, H[j, k] = <P_j, P_k> = sum conj(P_j) P_k, and
    mu = s / |s| for a point s.  The exact cell E_n = sum_(j<=n) mu^j P_j
    then has ||E_n||_F^2 = sum_m w_m Re(mu^m c_n(m)), w_0 = 1 and
    w_m = 2 else, with c_n(m) = sum_(j<=n-m) H[j, j+m] a cumulative
    sum along the m-th diagonal of H.  The triangular sum
    F_n = sum_(j<=n) (n+1-j) mu^j P_j takes 2 C + (m - 1) B in place of
    c_n(m), where B and C are the cumulative sums of c and of B in n:
    sum_j (n+1-j)(n+1-j-m) H[j, j+m] = 2 C + (m - 1) B.  The powers are stepped once and held as one stack,
    one flattened row per power: (top + 1) d^2 entries for the leaf.  The
    sums run over windows of n sized by one table budget: a window of
    b = max(1, _SEED_WINDOW**2 // (top + 1)) values of n holds tables of
    b (top + 1) entries at most, whatever n_max, so every sweep with
    n_max < 256 runs as one window.  A window's rows of H are one strip,
    the product of its powers with the stack, so H is never held whole,
    and the transform to the points is one product per window with the
    table w_m mu^m, so there is no loop per n.  The strip is formed in
    row blocks that stay on the calling thread (_gram_strip): one product
    handed to OpenBLAS's pool costs about 0.15 s of a spinning core after
    the call, as long as the rest of a small sweep.

    The allowance makes each value a bound of the stepped cell.  With S
    the weighted sum of ||P_j||_F (sum_j ||P_j|| for order 1,
    sum_j (n+1-j) ||P_j|| for order 2), the computed square q may miss
    ||E_n||^2 by kappa S^2, kappa = (L + 4 top + 16 n + 32) eps with L
    the length of the Gram's inner products.  Rounding each source's
    constant up, that covers the Gram product ((L + 2) eps, in any
    summation order of its inner products), the three cumulative sums
    (7 n eps, however the windows split n, since each window's running
    sums are added to its carries), the running powers of mu (8 n eps),
    the transform (3 top eps) and the last additions.  The stepped cell X_n
    differs from E_n by at most a S: its running lam^n drifts from mu^n
    by rho(n) = expm1(n (|ln|s|| + 2 eps)), and its products and sums
    round by (n + 3) eps, so a = rho + (n + 3) eps (1 + rho); the
    triangular sum adds n eps (1 + a).  The bound is
    (sqrt(q + kappa S^2) + a S)(1 + 4 eps), with S first raised by its
    own rounding.  Since P_0 = I, S^2 >= d, so the allowance dwarfs
    whatever the squares in H lost to underflow.  A bound that is not
    finite (an overflowed or NaN power) is inf: no bound.  A cell past
    a zero power (settled, the previous total unchanged) gets -inf in
    bound1, as its mean cannot rise.
    """
    ns = np.arange(n_max + 1)
    inner = mat.size * (2 if np.iscomplexobj(mat) else 1)
    modulus = np.abs(scalars)
    phases = np.empty((n_max + 1, len(scalars)), dtype=complex)  # w_m mu^m
    phases[0] = 1.0
    phases[1:] = 2.0 * np.cumprod(np.broadcast_to(scalars / modulus, (n_max, len(scalars))), axis=0)
    phases_re, phases_im = phases.real.copy(), phases.imag.copy()
    sums = [np.zeros((n_max + 1, len(scalars))) for _ in range(2)]
    norms = np.zeros(n_max + 1)  # ||T^j||_F
    carries = np.zeros((3, n_max + 1), dtype=mat.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.empty((n_max + 1, mat.size), dtype=mat.dtype)
        eye = np.eye(mat.shape[0], dtype=mat.dtype)
        stack[0] = eye.ravel()
        top = 0
        for n, power, _, settled in _power_sums(lambda p: p @ mat, eye, n_max):
            if settled:
                break
            stack[n] = power.ravel()
            top = n
        rows_per_window = max(1, _SEED_WINDOW**2 // (top + 1))
        for n0 in range(0, n_max + 1, rows_per_window):
            window = ns[n0:n0 + rows_per_window, None]
            ms = np.arange(min(top + 1, n0 + len(window)))  # diagonals m <= n
            j = window - ms  # the entry H[n - m, n] of diagonal m at n
            live = (j >= 0) & (window <= top)
            if n0 > top:
                diagonal = np.zeros(live.shape, mat.dtype)
            else:
                held = stack[n0:min(n0 + rows_per_window, top + 1)]
                # rows[k - n0, j] = <P_k, P_j> = conj(H[j, k]); conj() of a real window is itself
                rows = _gram_strip(held, stack[:n0 + len(held)])
                norms[n0:n0 + len(held)] = np.sqrt(rows.diagonal(n0).real)
                diagonal = np.where(live, rows[np.minimum(window, top) - n0, np.clip(j, 0, top)].conj(),
                                    0.0)
            tables = []
            for carry in carries[:, :len(ms)]:
                diagonal = carry + np.cumsum(diagonal, axis=0)
                carry[:] = diagonal[-1]
                tables.append(diagonal)
            first, once, twice = tables
            tables = [first, 2.0 * twice + (ms - 1.0) * once]
            for out, table in zip(sums, tables):
                part = table.real @ phases_re[:len(ms)]
                if np.iscomplexobj(table):
                    part -= table.imag @ phases_im[:len(ms)]
                out[n0:n0 + rows_per_window] = part
        size1 = np.cumsum(norms)
        drift = np.expm1(np.outer(np.abs(np.log(modulus)) + 2.0 * _EPS, ns))
        allow1 = drift + (ns + 3.0) * _EPS * (1.0 + drift)
        sizes = [(size1, allow1), (np.cumsum(size1), allow1 + ns * _EPS * (1.0 + allow1))]
        kappa = (inner + 4.0 * top + 16.0 * ns + 32.0) * _EPS
        bounds = []
        for q, (size, allow) in zip(sums, sizes):
            size = size * (1.0 + (inner + 3.0 * ns + 8.0) * _EPS)
            bound = (np.sqrt(np.maximum(q.T + kappa * size**2, 0.0)) + allow * size) * (1.0 + 4.0 * _EPS)
            bound[~(bound < np.inf)] = np.inf
            bounds.append(bound)
    bounds[0][:, top + 1:] = -np.inf
    return bounds[0], bounds[1]


def _mean_cells(op: OperatorSpec, n_max: int, lams: np.ndarray, want_order2: bool, plan=None):
    """Yield (leaf, point, n, total, triangular, settled): one step n of one swept point.

    total = sum_{j<=n} lam^j T^j and, when want_order2, triangular =
    sum_{j<=n} (n+1-j) lam^j T^j, for lam = lams[point] (times the leaf's
    rotation scalar) and T the leaf-th leaf of blocks(op).  Direct sums
    reduce blockwise (the mean of a block diagonal is block diagonal, its
    norm the max over blocks); rotations fold their scalar into the grid.
    Each point steps alone, one point after another.  Since
    (lam T)^n = lam^n T^n, its powers T^n are those of the materialized
    leaf (_power_sums), real when the leaf is real, and lam^n T^n is one
    broadcast multiply into a spare array, with lam^n a running product,
    real when the leaf and lam are both real (lam = 1 of a real leaf).
    settled is the stream's flag: T^n is exactly zero (so total is the
    previous step's unchanged), and T is no longer multiplied.  The
    arrays are updated in place at the next step, so a consumer copies
    what it keeps.

    plan, when given, has one entry per leaf: None skips the leaf, and
    (points, stops) steps only the points of lams at the indices points,
    point points[i] up to n = stops[i] and no further.
    """
    lams = np.asarray(lams, dtype=complex)
    for leaf_index, (_, _, scalar, leaf) in enumerate(blocks(op)):
        if plan is None:
            points, stops = np.arange(len(lams)), np.full(len(lams), n_max)
        elif plan[leaf_index] is None:
            continue
        else:
            points, stops = plan[leaf_index]
        mat = materialize(leaf)
        eye = np.eye(mat.shape[0], dtype=mat.dtype)
        scalars = lams if scalar == 1.0 else lams * scalar
        for point, stop in zip(points.tolist(), stops.tolist()):
            # One-element arrays: numpy rounds a complex product differently
            # with the shape of its operands, and every point must keep its bits.
            lam = scalars[point:point + 1]
            if np.isrealobj(mat) and lam.imag[0] == 0.0:
                lam = lam.real.copy()
            lam_n = np.ones_like(lam)
            term = np.empty((1, *mat.shape), dtype=lam.dtype)
            total = np.eye(mat.shape[0], dtype=lam.dtype)
            triangular = total.copy() if want_order2 else None
            yield leaf_index, point, 0, total, triangular, False
            for n, power, _, settled in _power_sums(lambda p: p @ mat, eye, stop):
                if not settled:
                    # Out of place: numpy may round an in-place product of one element differently.
                    lam_n = lam_n * lam
                    np.multiply(lam_n[:, None, None], power, out=term)
                    total += term[0]
                if want_order2:
                    triangular += total
                yield leaf_index, point, n, total, triangular, settled


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
    for _, point, n, total, triangular, settled in _mean_cells(op, n_max, lams, want_order2):
        if not settled:  # n = 0 never is
            top = _dense_norm(total)
        norm1[point, n] = np.maximum(norm1[point, n], top / (n + 1))
        if want_order2:
            value = 2.0 * _dense_norm(triangular) / ((n + 1) * (n + 2))
            norm2[point, n] = np.maximum(norm2[point, n], value)
    return norm1, norm2


class _MeanSups:
    """The running bests of rotated_mean_tables and the checks that prune against them.

    Each normed cell's value comes from the same expression as in
    _rotated_mean_norms, so every best is an entry of those tables.  The
    beaten checks take arrays of bounds and of n as well as one cell's.
    """

    def __init__(self):
        self.best1 = 0.0
        self.best2 = self.best2_sum = 0.0

    def beaten1(self, bound, n):
        """True where a bound on ||total|| shows that its mean cannot exceed best1."""
        return _beaten(bound / (n + 1), self.best1)

    def beaten2(self, bound, n):
        """True where a bound on ||triangular|| shows that neither order-2 sup can rise."""
        scale = 2.0 / ((n + 1) * (n + 2))
        quad = (n + 2.0) / (2.0 * (n + 1.0))
        return _beaten(bound * scale, self.best2) & _beaten(bound * scale * quad, self.best2_sum)

    def add1(self, top, n):
        self.best1 = np.maximum(self.best1, top / (n + 1))

    def add2(self, top, n):
        value = 2.0 * top / ((n + 1) * (n + 2))
        self.best2 = np.maximum(self.best2, value)
        self.best2_sum = np.maximum(self.best2_sum, value * ((n + 2.0) / (2.0 * (n + 1.0))))

    def seed(self, op, n_max, lams):
        """Pass 1: bound every cell by power algebra, norm the top-bound cells; return the plan.

        Returns the plan of _mean_cells for the second pass: each point
        with a cell whose bound the seeds do not beat, up to its last
        such n.  The bounds of a leaf come from the Gram matrix of its
        powers (_seed_bounds), so no point is stepped for them.  The
        seeds are the cells of largest bound for best1, best2 and
        best2_sum (one cell may serve two).  Only the seeds' points are
        stepped, up to their seeds' n, and the seed cells are normed; a
        settled or normed cell's bound is -inf, which shortens the plan.
        """
        ns = np.arange(n_max + 1)
        bounds1, bounds2 = [], []
        tops = {}  # sup -> (key, (order, leaf, point, n))
        for leaf, (_, _, scalar, block) in enumerate(blocks(op)):
            scalars = lams if scalar == 1.0 else lams * scalar
            bound1, bound2 = _seed_bounds(materialize(block), n_max,
                                          np.asarray(scalars, dtype=complex))
            bounds1.append(bound1)
            bounds2.append(bound2)
            scale = 2.0 / ((ns + 1) * (ns + 2))
            keys = [("1", 1, bound1 / (ns + 1)), ("2", 2, bound2 * scale),
                    ("2sum", 2, bound2 * scale * ((ns + 2.0) / (2.0 * (ns + 1.0))))]
            for sup, order, key in keys:
                point, n = np.unravel_index(key.argmax(), key.shape)
                if sup not in tops or key[point, n] > tops[sup][0]:
                    tops[sup] = (key[point, n], (order, leaf, int(point), int(n)))
        # The order-2 sups may share their seed, and one point may hold two
        # seeds: each point is stepped once, up to its last seed.
        seeds = {cell for _, cell in tops.values()}
        stops = [{} for _ in bounds1]
        for _, leaf, point, n in seeds:
            stops[leaf][point] = max(n, stops[leaf].get(point, 0))
        replay = [(np.array(list(stop)), np.array(list(stop.values()))) if stop else None
                  for stop in stops]
        for leaf, point, n, total, triangular, _ in _mean_cells(op, n_max, lams, True, replay):
            if (1, leaf, point, n) in seeds:
                self.add1(_dense_norm(total), n)
                bounds1[leaf][point, n] = -np.inf
            if (2, leaf, point, n) in seeds:
                self.add2(_dense_norm(triangular), n)
                bounds2[leaf][point, n] = -np.inf
        plan = []
        for leaf_bounds1, leaf_bounds2 in zip(bounds1, bounds2):
            live = ~self.beaten1(leaf_bounds1, ns) | ~self.beaten2(leaf_bounds2, ns)
            points = np.flatnonzero(live.any(axis=1))
            last = n_max - np.argmax(live[points, ::-1], axis=1)
            plan.append((points, last) if len(points) else None)
        return plan

    def prune(self, cells):
        """Pass 2 (or the only pass): norm each cell that no bound shows to be beaten.

        Each cell's one check is the cascade of _norm_unless_beaten: its
        Frobenius and Schatten-4 bounds, and only then its norm.
        """
        for _, _, n, total, triangular, settled in cells:
            # Past a zero power the total is unchanged, so its mean only
            # shrinks: the previous cell's value is already at most best1.
            if not settled:
                top, normed = _norm_unless_beaten(total, lambda bound: self.beaten1(bound, n))
                if normed:
                    self.add1(top, n)
            top, normed = _norm_unless_beaten(triangular, lambda bound: self.beaten2(bound, n))
            if normed:
                self.add2(top, n)


def rotated_mean_tables(op: OperatorSpec, n_max: int, lams: np.ndarray):
    """Sups of ||M_n(lam*T)|| and of the order-2 means over n <= n_max and lams.

    Returns (sup1, sup2, sup2_sum); sup2 = sup ||M_n^(2)(lam*T)|| and
    sup2_sum = sup ||M_n^(2)(lam*T)|| * (n+2)/(2(n+1)).  Each sup is
    found by bound-and-prune over the cells (lam, n) of every leaf, with
    one running best per sup across leaves and angles.  A sweep of more than one point runs two passes.  The
    first steps no point for its bounds: it bounds the Frobenius norm of
    every cell of every point from the Gram matrix of the leaf's powers,
    each power stepped once (_seed_bounds), raised by an allowance for
    rounding so that it bounds the stepped cell.  It seeds each best with
    the norm of the cell of largest bound, scaled like its value, stepped
    alone.  The second steps, leaf by leaf and point by point
    (_mean_cells), only the points that still have a cell whose bound the
    seeds do not beat, each up to its last such n, and norms a cell only
    when neither its Frobenius nor its Schatten-4 bound is beaten by the
    running best: a seed cell that the plan steps again is normed again.
    The means grow with n, so without the seed the best would rise one
    cell at a time and prune little.  A one-point sweep (the rotation
    shortcut) runs the second pass alone.  Every normed cell goes through
    _dense_norm and the same expression as the exhaustive tables, so the
    sups equal the maxima of those tables bit for bit; pruning can skip
    a cell, never change a value.  A cell with a non-finite entry has no
    finite bound, so it is normed, and _dense_norm raises
    ConvergenceError, as in the tables.
    """
    sups = _MeanSups()
    plan = sups.seed(op, n_max, lams) if len(lams) > 1 else None
    sups.prune(_mean_cells(op, n_max, lams, True, plan))
    return float(sups.best1), float(sups.best2), float(sups.best2_sum)


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
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    n_max = _count(n_max, "n_max")
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


def _shift_mean_step(w: np.ndarray, v: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """(upper, lower, z): one power step of B = L^T L for every column, L = D L_n D^-1.

    Column c of v is a positive vector for its own n, which starts and
    stops encode: row i of L_n x sums x over [starts[i], i] (starts[i] =
    max(i - n, 0)) and row i of L_n^T x over [i, stops[i]) (stops[i] =
    min(i + n + 1, d)).  D = diag(w), so L has the entries w_i / w_j of
    the mean's sum, L = (n+1) M_n, and B = L^T L has spectral radius
    ||L||^2.  Each window sum is a difference of prefix (or suffix) sums
    of a positive vector, so z = B v is y = w * window(v / w), then
    window^T(y * w) / w, in O(d).  For each column, upper >= rho(B)
    (Collatz 1942, Wielandt 1950: B >= 0 and v > 0) and lower <= rho(B),
    from max_i z_i / v_i and ||z|| / ||v|| raised and lowered by a
    relative allowance a.

    The allowance.  A window computed as the difference P_i - P_k of two
    prefix sums of positive terms errs by at most about d eps (P_i + P_k),
    so with the division by w and the product with w around it the
    window errs by at most (d + 4) eps rho_s relative, where rho_s =
    max_i (P_i + P_k) / (P_i - P_k) over the column (stage s = 1, 2) is
    the cancellation.  Every term is positive, so the computed z lies
    entrywise within the product of the two (1 + delta_s), delta_s =
    2 (d + 8) eps rho_s, of B' v, for B' the matrix of the computed
    weights (cumulative products of the ratios, each within (d - 1) eps
    of exact).  B' lies within 5 (d - 1) eps of B entrywise, and both
    spectral radii are monotone in nonnegative entries.  So
    a = 4 (delta_1 + delta_2) + 16 (d + 4) eps covers the windows, the
    weights, the quotients, the norms and the divisions while a <= 1/2.
    A column with a larger a, or with an entry of v / w, y, y * w or z
    that is not finite or lies below the normal float range (where a
    product loses its relative accuracy), gets no bound from this step:
    upper inf and lower 0.
    """
    d = len(w)
    col = w[:, None]
    with np.errstate(all="ignore"):
        # Stage 1: y = w * window(v / w), then t = y * w, in the buffer of y.
        u = v / col
        least = u.min(axis=0)
        prefix = np.zeros((d + 1, v.shape[1]))
        np.cumsum(u, axis=0, out=prefix[1:])
        del u
        start = np.take_along_axis(prefix, starts, axis=0)
        t = prefix[1:] - start
        start += prefix[1:]
        start /= t
        rho1 = start.max(axis=0)
        del prefix, start
        t *= col
        least = np.minimum(least, t.min(axis=0))
        t *= col
        # Stage 2: z = window^T(t) / w, in the buffer of the window.
        suffix = np.zeros((d + 1, v.shape[1]))
        np.cumsum(t[::-1], axis=0, out=suffix[-2::-1])
        least = np.minimum(least, t.min(axis=0))
        del t
        stop = np.take_along_axis(suffix, stops, axis=0)
        z = suffix[:-1] - stop
        stop += suffix[:-1]
        stop /= z
        rho2 = stop.max(axis=0)
        del suffix, stop
        z /= col
        least = np.minimum(least, z.min(axis=0))
        a = 8.0 * (d + 8) * _EPS * (rho1 + rho2) + 16.0 * (d + 4) * _EPS
        quotient = (z / v).max(axis=0)
        ratio = np.linalg.norm(z, axis=0) / np.linalg.norm(v, axis=0)
        ok = (a <= 0.5) & (least >= _TINY) & (quotient < np.inf) & (ratio < np.inf)
        upper = np.where(ok, quotient * (1.0 + a), np.inf)
        lower = np.where(ok, ratio * (1.0 - a), 0.0)
    return upper, lower, z


def _shift_mean_columns(ratios: np.ndarray, ks: np.ndarray, reach: np.ndarray, best: float):
    """(lower, upper, steps): brackets of ||M_k(S)|| for the shift S of ratios, one per k in ks.

    reach[c] is the largest factor by which the caller scales column c
    (1 for a requested n = k, d / (n + 1) for n past nilpotency), and
    best the caller's running lower side of the sup.  Every column steps
    _SHIFT_MEAN_WARMUP times from v = 1; from then on only the columns
    whose scaled upper side is at least the running lower side of the
    sup keep stepping, until none can raise the sup's upper side more
    than _SHIFT_MEAN_WIDTH (relative) above its lower side, or
    _SHIFT_MEAN_STEPS steps.  Each side is the best over the column's
    steps, so a bracket that stops early is loose but valid.  sqrt and
    the division by k + 1 round by 3 eps at most, covered by 8 eps.
    """
    d = ratios.size + 1
    with np.errstate(over="ignore", under="ignore"):
        w = np.concatenate(([1.0], np.cumprod(ratios)))
    if not (w.min() >= _TINY and w.max() < np.inf):
        raise ConvergenceError("shift weights leave the normal float range")
    rows = np.arange(d)[:, None]
    starts = np.maximum(rows - ks, 0)
    stops = np.minimum(rows + ks + 1, d)
    v = np.ones((d, len(ks)))
    square_upper = np.full(len(ks), np.inf)
    square_lower = np.zeros(len(ks))
    live = np.arange(len(ks))
    for step in range(1, _SHIFT_MEAN_STEPS + 1):
        if len(live) == len(ks):  # no copies while every column steps
            up, low, z = _shift_mean_step(w, v, starts, stops)
        else:
            up, low, z = _shift_mean_step(w, v[:, live], starts[:, live], stops[:, live])
        square_upper[live] = np.minimum(square_upper[live], up)
        square_lower[live] = np.maximum(square_lower[live], low)
        with np.errstate(all="ignore"):
            z /= z.max(axis=0)
        v[:, live] = z
        lower = np.sqrt(square_lower) * (1.0 - 8.0 * _EPS) / (ks + 1)
        upper = np.sqrt(square_upper) * (1.0 + 8.0 * _EPS) / (ks + 1)
        if step >= _SHIFT_MEAN_WARMUP:
            best = max(best, float((reach * lower).max()))
            live = np.flatnonzero(reach * upper >= best)
            if not len(live) or (reach[live] * upper[live]).max() - best <= _SHIFT_MEAN_WIDTH * best:
                break
    return lower, upper, step


def shift_mean_norm_bracket(op: OperatorSpec, ns) -> MeanBracket:
    """Certified lower and upper sides of ||M_n(op)|| for each n of ns, op a positive shift.

    op is a weighted shift (forward or backward, any rotation) or a
    direct sum of them; any other leaf raises ValidationError.  Each
    leaf S = D L D^-1 is a diagonal similarity of the plain shift L
    (D = diag(w), w the cumulative products of the ratios), so
    M_n(S) = (n+1)^-1 D L_n D^-1 >= 0 entrywise, L_n = sum_(j<=n) L^j.
    For any v > 0, ||M_n v|| / ||v|| <= ||M_n|| <=
    (max_i (M_n^T M_n v)_i / v_i)^(1/2) (Collatz 1942; Wielandt 1950), and
    M_n and M_n^T apply in O(d) by prefix sums (_shift_mean_step).  All
    n of a leaf step together as the columns of one block, pruned
    against the sup over ns (_shift_mean_columns), so the sup's bracket
    is tight (relative width _SHIFT_MEAN_WIDTH, unless the step cap
    stops it) while a pruned n keeps the looser bracket it had.  A
    backward shift is the adjoint of the forward one and a rotation a
    unitary equivalence, and neither changes a mean's norm.  n = 0 is
    exactly 1.  A leaf of dimension d is nilpotent, so for n >= d - 1
    M_n = (d / (n + 1)) M_(d-1), scaled with 4 eps of rounding.  A direct
    sum takes, for each n, the max of its leaves' sides.  No matrix is
    formed and no eigensolve runs.  steps is the most power steps any
    leaf took.
    """
    ns = np.array([_count(n, "n") for n in ns], dtype=int)
    leaves = [leaf for *_, leaf in blocks(op)]
    if not all(isinstance(leaf, WeightedShift) for leaf in leaves):
        raise ValidationError("shift_mean_norm_bracket needs weighted shifts and their direct sums")
    lower = np.where(ns == 0, 1.0, 0.0)
    upper = lower.copy()
    steps = 0
    positive = ns > 0
    n = ns[positive]
    for leaf in leaves if len(n) else ():
        d = leaf.ratios.size + 1
        ks, column = np.unique(np.minimum(n, d - 1), return_inverse=True)
        scale = np.minimum(d / (n + 1.0), 1.0)  # exactly 1.0 for n <= d - 1
        reach = np.zeros(len(ks))
        np.maximum.at(reach, column, scale)
        low, up, taken = _shift_mean_columns(leaf.ratios, ks, reach, float(lower.max()))
        steps = max(steps, taken)
        slack = np.where(n >= d, 4.0 * _EPS, 0.0)
        lower[positive] = np.maximum(lower[positive], low[column] * scale * (1.0 - slack))
        upper[positive] = np.maximum(upper[positive], up[column] * scale * (1.0 + slack))
    return MeanBracket(ns, lower, upper, steps)


def cesaro_identity_check(op: OperatorSpec, n_max: int) -> np.ndarray:
    """Residual of T^n = (n+1) M_n - n M_{n-1} in operator norm at each n = 1..n_max.

    Entry n-1 of the result is the residual at index n.  One power
    stream up to n_max serves every n, holding the last mean.  The
    stream is real for a real op (materialize).  numpy divides a complex
    array by a real scalar as a product with its reciprocal, so each mean
    is written as that product: a real stream gets the bits of the
    complex one.
    """
    n_max = _count(n_max, "n_max", 1)
    mat = materialize(op)
    eye = np.eye(mat.shape[0], dtype=mat.dtype)
    out = np.empty(n_max)
    mean_before = eye  # M_{n-1}
    for n, power, total, _ in _power_sums(lambda p: p @ mat, eye, n_max):
        mean = total * (1.0 / (n + 1))
        out[n - 1] = _dense_norm(power - ((n + 1) * mean - n * mean_before))
        mean_before = mean
    return out


def _ladder(ladder, least: int) -> tuple:
    """ladder as a strictly increasing tuple of counts with at least ``least`` (1 or 2) rungs."""
    ladder = tuple(_count(n, "ladder rung") for n in ladder)
    if len(ladder) < least:
        raise ValidationError(f"ladder needs at least {('one rung', 'two rungs')[least - 1]}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValidationError("ladder must be strictly increasing")
    return ladder


def mean_difference_decay(op: OperatorSpec, ladder) -> np.ndarray:
    """||M_{n+1}(T) - M_n(T)|| at each ladder index n.

    The power sums at n and n + 1 are read off one _power_sums stream
    from the identity, real for a real op (materialize).  The means are
    products with the reciprocal, as in cesaro_identity_check.
    """
    ladder = _ladder(ladder, 1)
    mat = materialize(op)
    eye = np.eye(mat.shape[0], dtype=mat.dtype)
    rungs = {m for n in ladder for m in (n, n + 1)}
    stream = _power_sums(lambda p: p @ mat, eye, ladder[-1] + 1)
    sums = {0: eye} | {n: total for n, _, total, _ in stream if n in rungs}
    return np.array([_dense_norm(sums[n + 1] * (1.0 / (n + 2)) - sums[n] * (1.0 / (n + 1)))
                     for n in ladder])


def ergodic_probe(
    op: OperatorSpec,
    probes=8,
    ladder=(16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
    seed: int = SEED,
) -> ErgodicProbe:
    """Cauchy gaps ||M_n(T)x - M_m(T)x|| across the ladder.

    ``probes`` is either a count of seeded unit vectors, of any integral
    type (a float raises ValidationError), or an explicit sequence of
    vectors (normalized here).  A caller may gate the final gaps,
    ``gaps[:, -1]``, against PROBE_TOLERANCE, but a small gap proves
    nothing: tzblock's coordinate probes pass on [[B, B-I, 0], [0, B, B-I],
    [0, 0, B]], whose means grow like n.  A negative or non-integral seed
    raises ValidationError.
    """
    seed = _count(seed, "seed")
    ladder = _ladder(ladder, 2)
    d = dimension(op)
    try:
        given = iter(probes)
    except TypeError:  # not vectors: a count, of any integral type
        given = None
    vecs, labels = [], []
    if given is None:
        rng = np.random.default_rng(seed)
        for i in range(_count(probes, "probe count", 1)):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs.append(v / np.linalg.norm(v))
            labels.append(f"seeded-{i}")
    else:
        for i, v in enumerate(given):
            v = _check_dim(op, v)
            norm = np.linalg.norm(v)
            if norm == 0:
                raise ValidationError("probe vectors must be nonzero")
            vecs.append(v / norm)
            labels.append(f"given-{i}")
    if not vecs:
        raise ValidationError("at least one probe is required")
    # The probes advance together as the columns of one block, by one
    # structured apply per step, and are read at the ladder's rungs.  Row p
    # of a mean is probe p's M_n(T)x_p, contiguous like a lone vector, so
    # each gap is normed exactly as it would be for that probe alone; a sum
    # with no imaginary part is divided as a real array, as a real vector's is.
    block = np.column_stack(vecs)
    stream = _power_sums(lambda b: apply(op, b), block, ladder[-1])
    rungs = ((n, total) for n, _, total, _ in stream if n in ladder)
    means = {n: ((total if total.imag.any() else total.real) / (n + 1)).T.copy()
             for n, total in ((0, block), *rungs)}
    gaps = np.array([[float(np.linalg.norm(row)) for row in means[b] - means[a]]
                     for a, b in zip(ladder, ladder[1:])]).T
    return ErgodicProbe(ladder, tuple(labels), gaps)
