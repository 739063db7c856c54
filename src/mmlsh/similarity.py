"""Exact object-level similarity machinery.

Two objects are compared through their full cross sets of point pairs: the
R-object similarity is the fraction of pairs within distance R, and the
object distance is the smallest R at which that fraction reaches the
percentage parameter gamma. Because the similarity is a right-continuous
step function over the sorted pairwise distances, that infimum is attained
at the ceil(gamma * N)-th smallest pairwise distance (N = number of pairs),
which is how it is computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ParameterError

# cross pairs per `cdist` block of `gamma_distances`. Transient memory stays
# flat at any dataset size: 512 KB of float64 distances, plus the block's
# rows, 1.7 MB at |Q| = 10 and d = 32. On a Xeon with 4 MB of L2 per core,
# ranking every object of a 200 x 20 or a 1000 x 100 point dataset took
# 20-25 % less time than with blocks of 2**20 pairs (8 MB).
BLOCK_PAIRS = 2 ** 16


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


def _order_statistic(dists: np.ndarray, gamma: float) -> np.ndarray:
    """Per row of an (objects, pairs) distance matrix, its gamma-distance.

    That is the row's ceil(gamma * pairs)-th smallest value.
    """
    k = math.ceil(gamma * dists.shape[1])  # 1-based order statistic
    return np.partition(dists, k - 1, axis=1)[:, k - 1]


def gamma_distance(q_coords, x_coords, gamma: float) -> float:
    """Smallest R at which the R-object similarity reaches gamma."""
    _check_gamma(gamma)
    q, x = _check_point_sets(q_coords, x_coords)
    return float(_order_statistic(cdist(q, x).reshape(1, -1), gamma)[0])


def gamma_distances(q_coords, dataset, ranks, gamma: float) -> np.ndarray:
    """The gamma-distance from a query to each object at the dense indices `ranks`.

    Element i is `gamma_distance(q_coords, coordinates of object ranks[i],
    gamma)`, bit for bit: `cdist` computes every pair on its own, and the
    float32 coordinates widen to float64 exactly. Objects of one size L
    share one order statistic, so the ranks are grouped by size and each
    group is walked in blocks of at most BLOCK_PAIRS cross pairs: one
    `cdist` against the block's rows, then one row-wise partition.
    """
    _check_gamma(gamma)
    q, _ = _check_point_sets(q_coords, dataset.coords[:1])  # a dataset has a point
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
            # widened here: cdist's own float32 conversion is about 2x slower
            dists = cdist(q, dataset.coords[rows].astype(np.float64))
            # (|Q|, objects * size) to one row of |Q| * size pairs per object
            dists = dists.reshape(len(q), block.size, size).transpose(1, 0, 2)
            out[block] = _order_statistic(dists.reshape(block.size, -1), gamma)
    return out


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
