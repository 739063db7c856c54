"""Exact object-level similarity machinery.

Two objects are compared through their full cross sets of point pairs: the
R-object similarity is the fraction of pairs within distance R, and the
object distance is the smallest R at which that fraction reaches the
percentage parameter gamma. Because the similarity is a right-continuous
step function over the sorted pairwise distances, that infimum is attained
at the ceil(gamma * N)-th smallest pairwise distance (N = number of pairs),
which is how it is computed here.

Every distance this module returns is a `cdist` value, bit for bit. The
batched kernels find which pairs matter from squared distances taken by one
float32 matrix product, with a derived error bound (see `_approx_sq_dists`),
and run `cdist` only on the pairs the bound cannot place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ParameterError

# cross pairs per block of `gamma_distances`. Transient memory stays flat at
# any dataset size: 1 MB of float32 squared distances and its partitioned
# copy, plus the block's rows, 3.4 MB at |Q| = 10 and d = 32 (and their
# float64 copy and `cdist` matrix, 8.7 MB more, on a block that falls back).
# On a 2-core Xeon, ranking every object of a 200 x 20 or a 1000 x 100 point
# dataset took 10 % or more longer with blocks of 2**16 pairs or fewer, while
# 2**18 to 2**20 were within run-to-run noise; the smallest keeps the least.
BLOCK_PAIRS = 2 ** 18
# a block whose re-check window holds more than this share of its pairs runs
# `cdist` on all of them: the window is then a cloud far from the origin,
# where the float32 product cannot tell the pairs apart
WINDOW_SHARE = 1 / 8

_U32 = 2.0 ** -24     # unit roundoff of float32
_U64 = 2.0 ** -53     # unit roundoff of float64
_TINY32 = 2.0 ** -126  # smallest normal float32: bounds a product's underflow error
_MAX_NORM_SUM = 2.0 ** 50  # largest max ||a|| + max ||b|| for the product: its squares stay finite


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


def r_object_similarity(q_coords, x_coords, radius: float) -> float:
    """Fraction of cross pairs (q, x) whose Euclidean distance is <= radius."""
    q, x = _check_point_sets(q_coords, x_coords)
    dists = cdist(q, x)
    return float(np.count_nonzero(dists <= radius)) / dists.size


def _rank(gamma: float, pairs: int) -> int:
    """The 1-based order statistic that is the gamma-distance over `pairs` pairs."""
    return math.ceil(gamma * pairs)


def _order_statistic(dists: np.ndarray, gamma: float) -> np.ndarray:
    """Per row of an (objects, pairs) distance matrix, its gamma-distance.

    That is the row's ceil(gamma * pairs)-th smallest value.
    """
    k = _rank(gamma, dists.shape[1])
    return np.partition(dists, k - 1, axis=1)[:, k - 1]


def gamma_distance(q_coords, x_coords, gamma: float) -> float:
    """Smallest R at which the R-object similarity reaches gamma."""
    _check_gamma(gamma)
    q, x = _check_point_sets(q_coords, x_coords)
    return float(_order_statistic(cdist(q, x).reshape(1, -1), gamma)[0])


def gamma_distances(q_coords, dataset, ranks, gamma: float) -> np.ndarray:
    """The gamma-distance from a query to each object at the dense indices `ranks`.

    Element i is `gamma_distance(q_coords, coordinates of object ranks[i],
    gamma)`, bit for bit. Objects of one size L share one order statistic k,
    so the ranks are grouped by size and each group is walked in blocks of at
    most BLOCK_PAIRS cross pairs. Per block, one float32 product gives every
    pair's squared distance S within a bound eta of its `cdist` value squared
    (`_approx_sq_dists`), and one row-wise partition gives each object's
    k-th smallest S, t. The k-th smallest squared `cdist` value is then within
    eta of t, so the pairs with S < t - 2 eta lie certainly below it and those
    with S > t + 2 eta certainly above. `cdist` runs only on the pairs in
    between, about one per object on clustered data, and each object's
    distance is the right order statistic among them. A block whose product
    is unsafe, or whose window holds more than WINDOW_SHARE of its pairs,
    runs `cdist` on every pair, as does a query that float32 does not hold
    exactly. Each pair's `cdist` value does not depend on the others in the
    call, so every path returns the same bits.
    """
    _check_gamma(gamma)
    q, _ = _check_point_sets(q_coords, dataset.coords[:1])  # a dataset has a point
    q32 = _float32_query(q)
    ranks = np.asarray(ranks, dtype=np.int64)
    out = np.empty(ranks.size)
    sizes = dataset.object_sizes[ranks]
    for size in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == size)
        per_block = max(1, BLOCK_PAIRS // (len(q) * size))
        for start in range(0, members.size, per_block):
            block = members[start:start + per_block]
            firsts = dataset.object_offsets[ranks[block]]
            rows = dataset.object_rows[(firsts[:, None] + np.arange(size)).ravel()]
            out[block] = _block_gamma_distances(q, q32, _gather(dataset.coords, rows), size, gamma)
    return out


def _gather(coords, rows):
    """coords[rows]; a view when the rows are one ascending run, as stored objects often are."""
    first = int(rows[0])
    if int(rows[-1]) - first == rows.size - 1 and np.all(np.diff(rows) == 1):
        return coords[first:first + rows.size]
    return coords[rows]


def _block_gamma_distances(q, q32, x, size: int, gamma: float) -> np.ndarray:
    """The gamma-distance from q to each object of a block; x holds `size` rows per object."""
    pairs = len(q) * size
    k = _rank(gamma, pairs)
    approx = None if q32 is None else _approx_sq_dists(x, q32)
    if approx is not None:
        sq, eta = approx
        sq = sq.reshape(-1, pairs)  # (rows, |Q|) to one row of pairs per object
        lo, hi = _bounds(np.partition(sq, k - 1, axis=1)[:, k - 1], eta)
        below = np.count_nonzero(sq < lo[:, None], axis=1)
        window = np.flatnonzero((sq >= lo[:, None]) & (sq <= hi[:, None]))
        if window.size <= WINDOW_SHARE * sq.size:
            return _select_in_window(q, x, window, size, k - below)
    return _cdist_block(q, x, size, gamma)


def _cdist_block(q, x, size: int, gamma: float) -> np.ndarray:
    """`_block_gamma_distances` by one `cdist` over every pair of the block."""
    # widened here: cdist's own float32 conversion is about 2x slower
    dists = cdist(q, x.astype(np.float64))
    # (|Q|, objects * size) to one row of |Q| * size pairs per object
    dists = dists.reshape(len(q), -1, size).transpose(1, 0, 2)
    return _order_statistic(dists.reshape(-1, len(q) * size), gamma)


def _select_in_window(q, x, window, size: int, ranks) -> np.ndarray:
    """Per object j of a block, the ranks[j]-th smallest `cdist` value of its window.

    `window` holds the flat indices, ascending, of the window pairs in the
    (rows, |Q|) layout of `_approx_sq_dists(x, q)`; every object has one.
    """
    xrow, qi = np.divmod(window, len(q))
    rows, inv = np.unique(xrow, return_inverse=True)
    exact = cdist(q, x[rows].astype(np.float64))[qi, inv]
    owner = xrow // size  # ascending, as the window is
    exact = exact[np.lexsort((exact, owner))]
    return exact[np.searchsorted(owner, np.arange(len(ranks))) + ranks - 1]


def rows_within_kth(q, x, k: int) -> list | None:
    """Per query point, the rows of x that may lie within its k-th smallest `cdist` value.

    Entry i holds, ascending, every row whose `cdist` distance to q[i] is at
    most the k-th smallest, ties included, and perhaps a few more: the rows
    whose squared distance S from the float32 product is at most t + 2 eta,
    t being the k-th smallest S (see `gamma_distances`). None when the
    product is unsafe or float32 does not hold q exactly; every row may then
    be among the nearest. Needs 1 <= k <= len(x).
    """
    q32 = _float32_query(q)
    approx = None if q32 is None else _approx_sq_dists(q32, x)
    if approx is None:
        return None
    sq, eta = approx
    _, hi = _bounds(np.partition(sq, k - 1, axis=1)[:, k - 1], eta)
    return [np.flatnonzero(row <= top) for row, top in zip(sq, hi)]


def _float32_query(q):
    """The float64 query points as float32, or None when float32 does not hold them exactly."""
    with np.errstate(over="ignore"):
        q32 = q.astype(np.float32)
    return q32 if np.array_equal(q32, q) else None


def _gamma(n: int, u: float) -> float:
    return n * u / (1 - n * u)


def _approx_sq_dists(a, b):
    """Squared distances ||a_i - b_j||^2 by one float32 product, and their error bound.

    a and b are float32 point matrices. Returns (S, eta): the (len(a),
    len(b)) float32 matrix S = ||a||^2 + ||b||^2 - 2 a b^T, and an eta with
    |S_ij - c_ij^2| <= eta for every pair, c_ij being the pair's `cdist`
    value. Returns None when the product is not safe: when max ||a|| +
    max ||b|| exceeds 2**50, so that a square could overflow float32 (an
    infinite norm included), or when d * u > 1/4.

    The bound, with u = 2**-24 and M >= (max ||a|| + max ||b||)^2:
    - The dot products. |fl(a.b) - a.b| <= gamma_d ||a|| ||b||, with gamma_d
      = d u / (1 - d u) (Higham, Accuracy and Stability of Numerical
      Algorithms, section 3.1). It holds in any summation order, with or
      without FMA, so for any BLAS kernel and thread count. The same bound
      holds for ||a||^2 and ||b||^2, so the three carry at most gamma_d M.
      Scaling by -2 is exact. A product that underflows adds an absolute
      error below 2**-126, flushed to zero or not: 4d of them at most.
    - The two additions that form S. Each rounds by at most u times its
      result, so together at most u (2 + u)(1 + gamma_d) M.
    - `cdist`'s own rounding. It sums d float64 squares of float64
      differences of float32 values, which neither underflow nor overflow,
      and takes the square root, so |c^2 - ||a - b||^2| <= gamma'_(d+4) M
      with the float64 unit 2**-53.
    - The norms. M comes from the computed norms: a true squared norm
      exceeds its computed value at most by a factor 1 / (1 - gamma_d) and
      an absolute 2d * 2**-126.
    - eta itself. It is computed from these terms in float64, in fewer than
      30 operations rounding by 2**-53 each, and raised by a factor
      1 + 2**-32 to cover them. The thresholds built on it round outward
      (`_bounds`).
    """
    d = a.shape[1]
    if d * _U32 > 0.25:
        return None
    with np.errstate(over="ignore"):
        aa = np.einsum("ij,ij->i", a, a)
        bb = np.einsum("ij,ij->i", b, b)
    top_a, top_b = float(aa.max()), float(bb.max())
    if not math.sqrt(top_a) + math.sqrt(top_b) <= _MAX_NORM_SUM:
        return None
    # scale the smaller operand: -2 a b^T with one product and no pass over S
    sq = (-2 * a) @ b.T if len(a) <= len(b) else a @ (-2 * b).T
    sq += aa[:, None]
    sq += bb
    gamma_d = _gamma(d, _U32)
    tiny = d * _TINY32
    m = (math.sqrt(top_a + 2 * tiny) + math.sqrt(top_b + 2 * tiny)) ** 2 / (1 - gamma_d)
    eta = ((gamma_d + 3 * _U32) * (1 + gamma_d) + _gamma(d + 4, _U64)) * m + 8 * tiny
    return sq, eta * (1 + 2.0 ** -32)


def _bounds(t, eta: float):
    """float32 thresholds lo <= t - 2 eta and hi >= t + 2 eta, per element of t.

    Each is computed in float64, stepped one float64 ulp outward to cover that
    rounding, and rounded outward again to float32, so comparing float32
    values with them is exact.
    """
    t = t.astype(np.float64)
    lo = np.nextafter(t - 2 * eta, -np.inf)
    hi = np.nextafter(t + 2 * eta, np.inf)
    lo32, hi32 = lo.astype(np.float32), hi.astype(np.float32)
    lo32 = np.where(lo32 > lo, np.nextafter(lo32, np.float32(-np.inf)), lo32)
    hi32 = np.where(hi32 < hi, np.nextafter(hi32, np.float32(np.inf)), hi32)
    return lo32, hi32


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
    flagged = False
    terms = np.empty_like(ret)
    for i in range(ret.size):
        if tru[i] == 0.0:
            flagged = True
            terms[i] = 1.0 if ret[i] == 0.0 else math.inf
        else:
            terms[i] = ret[i] / tru[i]
    return float(np.mean(terms)), flagged
