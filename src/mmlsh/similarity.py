"""Exact object-level similarity machinery.

Two objects are compared through their full cross sets of point pairs: the
R-object similarity is the fraction of pairs within distance R, and the
object distance is the smallest R at which that fraction reaches the
percentage parameter gamma. Because the similarity is a right-continuous
step function over the sorted pairwise distances, that infimum is attained
at the ceil(gamma * N)-th smallest pairwise distance (N = number of pairs),
which is how it is computed here.

Every distance this module returns is a `cdist` value, bit for bit:
`euclidean` sums the squared coordinate differences in float64 in coordinate
order, as scipy's `cdist` does. The batched kernels find which pairs matter
from squared distances taken by one matrix product, in float32 or float64,
with a derived error bound (see `_approx_sq_dists`), and measure only the
pairs the bound cannot place. The product carries both squared norms inside
it: a float32 product multiplies the dataset's rows [x | ||x||^2 | 1]
(`Dataset.augmented`, 4n B more than the points) by the query's [-2 q | 1 |
||q||^2], so a block is one BLAS call and sums only its query's norms. Each
object's order statistic of the product is then one integer partition of the
clamped values' bit patterns, and its count of pairs below the window one
narrow row sum (`_narrowed`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# cross pairs per block of `gamma_distances`. Transient memory stays flat at
# any dataset size: 1 MB of float32 squared distances and its clamped copy,
# plus the block's rows of the dataset's table, 3.6 MB at |Q| = 10 and d = 32
# (and twice the product's share, with float64 rows and norms of its own, on
# a float64 product). A block computes no data norms: the table's norm
# column, 4n B (0.4 MB at n = 100,000), is summed once per dataset.
# On a 2-core Xeon, ranking every object of a 200 x 20 or a 1000 x 100 point
# dataset took 10 % or more longer with blocks of 2**16 pairs or fewer, while
# 2**18 to 2**20 were within run-to-run noise; the smallest keeps the least.
BLOCK_PAIRS = 2 ** 18
# a float32 product that leaves more than this share of its pairs to measure
# is dropped for the float64 one: they are then a cloud far from the origin,
# where float32 cannot tell the pairs apart
WINDOW_SHARE = 1 / 8

_U64 = 2.0 ** -53  # unit roundoff of float64, in which `euclidean` rounds
# per product precision, the largest max ||a|| + max ||b||: twice its square stays finite
_MAX_NORM_SUM = {np.float32: 2.0 ** 50, np.float64: 2.0 ** 500}


@dataclass
class GammaParams:
    """Quality / approximation knobs for object-level search.

    epsilon defaults to 2 * delta when not given; it must stay strictly
    above delta for the false-positive analysis to hold.
    """

    gamma: float
    delta: float = 0.1
    beta: float = 0.1
    epsilon: float | None = None

    def __post_init__(self):
        if self.epsilon is None:
            self.epsilon = 2.0 * self.delta
        if not 0.0 < self.gamma <= 1.0:
            raise ParameterError(f"gamma must be in (0, 1], got {self.gamma}")
        for name in ("delta", "beta", "epsilon"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ParameterError(f"{name} must be in (0, 1), got {v}")
        if self.epsilon <= self.delta:
            raise ParameterError(f"epsilon ({self.epsilon}) must exceed delta ({self.delta})")

    @property
    def candidate_threshold(self) -> float:
        return (1.0 - self.epsilon) * self.gamma


def _check_point_sets(q_coords, x_coords):
    q = np.atleast_2d(np.asarray(q_coords, dtype=np.float64))
    x = np.atleast_2d(np.asarray(x_coords, dtype=np.float64))
    if q.shape[0] == 0 or x.shape[0] == 0:
        raise ValueError("point sets must be non-empty")
    if q.shape[1] != x.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {x.shape[1]}")
    return q, x


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")


def euclidean(a, b) -> np.ndarray:
    """The Euclidean distance of each matched pair of rows of a and b: scipy's `cdist` value.

    a and b broadcast against each other; their last axis is the coordinates.
    The differences are taken in float64 and their squares summed in
    coordinate order by one accumulate, as `cdist` sums them. numpy's `sum`
    over a contiguous axis adds pairwise instead, in an order that depends
    on the memory layout, and rounds differently.
    """
    diff = np.subtract(a, b, dtype=np.float64)
    diff *= diff
    return np.sqrt(np.add.accumulate(diff, axis=-1)[..., -1])


def r_object_similarity(q_coords, x_coords, radius: float) -> float:
    """Fraction of cross pairs (q, x) whose Euclidean distance is <= radius."""
    q, x = _check_point_sets(q_coords, x_coords)
    dists = euclidean(q[:, None], x)
    return float(np.count_nonzero(dists <= radius)) / dists.size


def _rank(gamma: float, pairs: int) -> int:
    """The 1-based order statistic that is the gamma-distance over `pairs` pairs."""
    return math.ceil(gamma * pairs)


def gamma_distance(q_coords, x_coords, gamma: float) -> float:
    """Smallest R at which the R-object similarity reaches gamma."""
    _check_gamma(gamma)
    q, x = _check_point_sets(q_coords, x_coords)
    dists = euclidean(q[:, None], x).ravel()
    k = _rank(gamma, dists.size)
    return float(np.partition(dists, k - 1)[k - 1])


def gamma_distances(q_coords, dataset, ranks, gamma: float) -> np.ndarray:
    """The gamma-distance from a query to each object at the dense indices `ranks`.

    Element i is `gamma_distance(q_coords, coordinates of object ranks[i],
    gamma)`, bit for bit. Objects of one size L share one order statistic k,
    so the ranks are grouped by size and each group is walked in blocks of at
    most BLOCK_PAIRS cross pairs. Per block, one matrix product gives every
    pair's squared distance S within a bound eta of its `cdist` value squared
    (`_approx_sq_dists`), and one row-wise integer partition gives each
    object's k-th smallest max(S, 0), t (`_narrowed`). As every squared
    `cdist` value is at least 0, clamping keeps each S within eta of it, so
    the k-th smallest of them is within eta of t; the pairs with S < t - 2 eta
    lie certainly below it, fewer than k of them, and those with S > t + 2 eta
    certainly above. `euclidean` measures only the pairs in between, the
    window, about one per object on clustered data, and each object's
    distance is the right order statistic among them. The product runs in
    float32 when float32 holds the query, reading the block's rows, norms
    included, from the dataset's table (`Dataset.augmented`), and in float64
    when that product is unsafe or its window holds more than WINDOW_SHARE
    of the block's pairs, as on a cloud far from the origin. Once a block
    drops float32, the call's later blocks go straight to float64. When
    neither product is safe, the window is every pair. Each pair's distance
    does not depend on the others measured with it, so every path returns
    the same bits.
    """
    _check_gamma(gamma)
    q, _ = _check_point_sets(q_coords, dataset.coords[:1])  # a dataset has a point
    ranks = np.asarray(ranks, dtype=np.int64)
    out = np.empty(ranks.size)
    sizes = dataset.object_sizes[ranks]
    precisions = (np.float32, np.float64)
    for size in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == size)
        per_block = max(1, BLOCK_PAIRS // (len(q) * size))
        for start in range(0, members.size, per_block):
            block = members[start:start + per_block]
            firsts = dataset.object_offsets[ranks[block]]
            rows = dataset.object_rows[(firsts[:, None] + np.arange(size)).ravel()]
            out[block], precisions = _block_gamma_distances(q, _gather(rows, dataset.augmented),
                                                            size, gamma, precisions)
    return out


def _gather(rows, table):
    """The table's rows; a view when they are one ascending run, as stored objects often are."""
    first = int(rows[0])
    if int(rows[-1]) - first == rows.size - 1 and np.all(np.diff(rows) == 1):
        return table[first:first + rows.size]
    return table[rows]


def _block_gamma_distances(q, x_rows, size: int, gamma: float, precisions):
    """The gamma-distance from q to each object of a block, and the precisions for the next block.

    x_rows holds `size` rows of the dataset's table per object: each point,
    its float32 squared norm and a 1 (`Dataset.augmented`). The products are
    tried in `precisions` order; once a block drops float32, the next ones
    go straight to float64. The window's ranks are the objects' order
    statistic k less the count of their pairs below lo, which `_narrowed`
    takes.
    """
    x = x_rows[:, :q.shape[1]]
    pairs = len(q) * size
    k = _rank(gamma, pairs)
    ranks = np.full(len(x) // size, k)
    narrowed = _narrowed(x, q, (x_rows, None), k, pairs, keep_below=False,
                         precisions=precisions)
    if narrowed is None:
        return _select_in_window(q, x, np.arange(len(x) * len(q)), size, ranks), (np.float64,)
    dtype, below, window = narrowed
    return (_select_in_window(q, x, np.flatnonzero(window), size, ranks - below),
            (np.float64,) if dtype is np.float64 else precisions)


def _select_in_window(q, x, window, size: int, ranks) -> np.ndarray:
    """Per object j of a block, the ranks[j]-th smallest `cdist` value of its window.

    `window` holds the flat indices, ascending, of the window pairs in the
    (rows, |Q|) layout of `_approx_sq_dists(x, q)`; every object has one.
    Only those pairs are measured, each query point against its row.
    """
    xrow, qi = np.divmod(window, len(q))
    exact = euclidean(q[qi], x[xrow])
    owner = xrow // size  # ascending, as the window is
    exact = exact[np.lexsort((exact, owner))]
    return exact[np.searchsorted(owner, np.arange(len(ranks))) + ranks - 1]


def rows_within_kth(q, dataset, k: int) -> list:
    """Per query point, the dataset rows that may lie within its k-th smallest `cdist` value.

    Entry i holds, ascending, every row whose `cdist` distance to q[i] is at
    most the k-th smallest, ties included, and perhaps a few more: the rows
    whose squared distance S from the product is at most t + 2 eta, t being
    the k-th smallest max(S, 0) (see `gamma_distances`). The product runs in
    float32, or in float64 when float32 does not hold q, is unsafe or keeps
    more than WINDOW_SHARE of the pairs. Every row is kept when neither
    product is safe, or when k is not in [1, n).
    """
    n = dataset.n
    narrowed = (_narrowed(q, dataset.coords, (None, dataset.augmented), k, n, keep_below=True)
                if 0 < k < n else None)
    if narrowed is None:
        return [np.arange(n)] * len(q)
    return [np.flatnonzero(row) for row in narrowed[2]]


def _narrowed(a, b, tables, k: int, pairs: int, keep_below: bool,
              precisions=(np.float32, np.float64)):
    """(precision, count of S < lo per row, mask of the pairs to measure) from a product of a and b.

    `_approx_sq_dists(a, b)` runs in each of `precisions` in turn, in float32
    only if float32 holds a and b, until one counts. A float32 product is
    handed `tables`, the rows of the dataset's table [x | ||x||^2 | 1] for a
    and for b where known (None where not). Per row of `pairs` pairs of its
    S, with t the k-th smallest of max(S, 0), `_bounds` gives lo and hi; the
    pairs to measure have lo <= S <= hi, or S <= hi under `keep_below`, which
    counts no pairs below lo. A float32 product counts only when they are at
    most WINDOW_SHARE of the pairs; a float64 one counts whatever they are.
    None if no product is safe.

    t is found by one integer selection: the clamped copy max(S, 0) is
    partitioned as the signed integers of its bit patterns (int32 or int64),
    which sort as the non-negative values they encode do. Clamping keeps t
    within eta of the k-th smallest squared `cdist` value, as every c^2 is
    at least 0, and comparing the unclamped S with lo and hi is exact (see
    `gamma_distances`). The pairs below lo, fewer than k, are the row's
    pairs less those at or above lo, counted as a row sum of that mask's
    bytes in the narrowest unsigned type that holds `pairs`.
    """
    for dtype in precisions:
        with np.errstate(over="ignore"):  # a value float32 cannot hold is left out below
            a_p, b_p = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
        if not (a_p is a or np.array_equal(a_p, a)) or not (b_p is b or np.array_equal(b_p, b)):
            continue
        approx = _approx_sq_dists(a_p, b_p, *(tables if dtype is np.float32 else ()))
        if approx is None:
            continue
        sq, eta = approx
        sq = sq.reshape(-1, pairs)
        keys = np.maximum(sq, 0).view(np.int32 if dtype is np.float32 else np.int64)
        keys.partition(k - 1, axis=1)
        lo, hi = _bounds(keys[:, k - 1].view(dtype), eta)
        measure = sq <= hi[:, None]
        below = None
        if not keep_below:
            at_least_lo = sq >= lo[:, None]
            measure &= at_least_lo
            below = pairs - at_least_lo.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(pairs))
        if dtype is np.float64 or np.count_nonzero(measure) <= WINDOW_SHARE * sq.size:
            return dtype, below, measure
    return None


def _gamma(n: int, u: float) -> float:
    return n * u / (1 - n * u)


def squared_norms(points, out=None) -> np.ndarray:
    """The squared norm of each row, in the points' precision; inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->i", points, points, out=out)


def augmented(points) -> np.ndarray:
    """The data side of a product: the (n, d + 2) rows [x | ||x||^2 | 1], in the points' dtype."""
    d = points.shape[1]
    table = np.empty((len(points), d + 2), dtype=points.dtype)
    table[:, :d] = points
    squared_norms(table[:, :d], out=table[:, d])
    table[:, d + 1] = 1
    return table


def _approx_sq_dists(a, b, a_table=None, b_table=None):
    """Squared distances ||a_i - b_j||^2 by one matrix product, and their error bound.

    a and b are point matrices of one precision, float32 or float64. One
    side enters the product as its rows [x | ||x||^2 | 1] (`augmented`), the
    other as [-2 q | 1 | ||q||^2], so that each entry of the product is
    S = ||x||^2 + ||q||^2 - 2 x.q in one dot product of d + 2 terms. a_table
    or b_table, when given, is that side's rows: a float32 product is handed
    the dataset's (`Dataset.augmented`), so no block sums data norms. A side
    not given has its norms summed here, in the product's precision; a
    float64 product is handed neither, as float32 norms would carry
    float32's rounding, which the float64 eta does not cover. Returns
    (S, eta): the (len(a), len(b)) matrix S in that precision, and an eta
    with |S_ij - c_ij^2| <= eta for every pair, c_ij being the pair's
    `cdist` value. Returns None when the product is not safe: when max ||a||
    + max ||b|| exceeds 2**50 at float32 or 2**500 at float64, so that a
    square could overflow (an infinite or NaN norm included), or when
    (d + 2) u > 1/16.

    The bound, with u the precision's unit roundoff (2**-24 or 2**-53), tiny
    its smallest normal (2**-126 or 2**-1022), gamma_n = n u / (1 - n u),
    D = d + 2, and M >= (max ||a|| + max ||b||)^2:
    - The product. Its entry is fl(y.z) for y = [x | xx | 1] and z = [-2 q |
      1 | qq], xx and qq being the computed squared norms; scaling by -2 is
      exact. |fl(y.z) - y.z| <= gamma_D sum |y_i z_i| (Higham, Accuracy and
      Stability of Numerical Algorithms, section 3.1), in any summation
      order, with or without FMA, so for any BLAS kernel and thread count.
      The sum is at most 2 ||x|| ||q|| + xx + qq <= (1 + gamma_d) M.
    - The norms. y.z - ||x - q||^2 = (xx - ||x||^2) + (qq - ||q||^2), and a
      computed squared norm is within gamma_d of its true value, in any
      summation order too, so a norm summed once per dataset serves every
      block: together at most gamma_d M. With the product, gamma_D (1 +
      gamma_d) M + gamma_d M.
    - `cdist`'s own rounding, in float64 at either precision. It rounds each
      difference (a float64 query's as well as float32 values') and each
      square, adds the d squares and takes the square root, so |c^2 -
      ||a - b||^2| <= gamma'_(d+4) M with the float64 unit 2**-53. Only a
      float64 query, so only at float64, has differences whose squares
      underflow; each of those rounds by at most 2**-1075 more.
    - M. It comes from the computed norms, the largest of this a and this
      b: a true squared norm exceeds its computed value at most by a factor
      1 / (1 - gamma_d) and an absolute 2d * tiny.
    - The absolute terms. An operation that underflows adds an absolute
      error below tiny, flushed to zero or not (operands are read as they
      are): the D products and D - 1 additions of the product and the
      2d - 1 operations of each norm, at most 7d in all. Later roundings
      grow them by at most (1 + gamma_D)(1 + gamma_d) <= (16/15)^2, so they
      stay below 8d * tiny, and `cdist`'s underflows below d * tiny: eta
      adds 10d * tiny.
    - The safety limits. Every operand, product and partial sum is at most
      2 max ||q|| or (1 + gamma_D)(1 + gamma_d) M, so finite below the norm
      limit; (d + 2) u <= 1/16 bounds gamma_D and gamma_d by 1/15.
    - eta itself. It is computed from these terms in float64, in fewer than
      30 operations rounding by 2**-53 each, and raised by a factor
      1 + 2**-32 to cover them. The thresholds built on it round outward
      (`_bounds`).
    """
    d = a.shape[1]
    info = np.finfo(a.dtype)
    u = float(info.eps) / 2
    if (d + 2) * u > 1 / 16:
        return None
    if a_table is None and b_table is None:  # the shorter side is the one scaled
        a_table, b_table = (augmented(a), None) if len(a) >= len(b) else (None, augmented(b))
    data, query = (a_table, b) if a_table is not None else (b_table, a)
    qq = squared_norms(query)
    top_data, top_query = float(data[:, d].max()), float(qq.max())
    if not math.sqrt(top_data) + math.sqrt(top_query) <= _MAX_NORM_SUM[a.dtype.type]:
        return None
    scaled = np.empty_like(data, shape=(d + 2, len(query)))  # a column per point
    np.multiply(query.T, -2, out=scaled[:d])
    scaled[d] = 1
    scaled[d + 1] = qq
    sq = data @ scaled if a_table is not None else scaled.T @ data.T
    gamma_d, gamma_dd = _gamma(d, u), _gamma(d + 2, u)
    tiny = d * float(info.smallest_normal)
    m = (math.sqrt(top_data + 2 * tiny) + math.sqrt(top_query + 2 * tiny)) ** 2 / (1 - gamma_d)
    eta = (gamma_dd * (1 + gamma_d) + gamma_d + _gamma(d + 4, _U64)) * m + 10 * tiny
    return sq, eta * (1 + 2.0 ** -32)


def _bounds(t, eta: float):
    """Thresholds lo <= t - 2 eta and hi >= t + 2 eta in t's precision, per element of t.

    Each is computed in float64, stepped one float64 ulp outward to cover that
    rounding, and rounded outward again to t's precision (float32 or float64,
    where that step is exact), so comparing values of it with them is exact.
    """
    wide = t.astype(np.float64)
    lo = np.nextafter(wide - 2 * eta, -np.inf)
    hi = np.nextafter(wide + 2 * eta, np.inf)
    lo_t, hi_t = lo.astype(t.dtype), hi.astype(t.dtype)
    lo_t = np.where(lo_t > lo, np.nextafter(lo_t, t.dtype.type(-np.inf)), lo_t)
    hi_t = np.where(hi_t < hi, np.nextafter(hi_t, t.dtype.type(np.inf)), hi_t)
    return lo_t, hi_t


def object_ratio(returned_dists, truth_dists) -> tuple[float, bool]:
    """Mean per-rank ratio of returned to true object distances (1.0 = perfect).

    A zero ground-truth distance at some rank makes that term 1.0 when the
    returned distance is also zero, and +inf otherwise; the second return
    value flags that any rank needed this rule.
    """
    ret = np.asarray(returned_dists, dtype=np.float64)
    tru = np.asarray(truth_dists, dtype=np.float64)
    if ret.shape != tru.shape or ret.ndim != 1 or ret.size == 0:
        raise ValueError("expected two equal-length non-empty distance lists")
    zero = tru == 0.0
    terms = np.where(zero, np.where(ret == 0.0, 1.0, math.inf), ret / np.where(zero, 1.0, tru))
    return float(np.mean(terms)), bool(zero.any())
