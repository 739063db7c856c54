"""Collision-counting k-NN object search with virtual rehashing.

The search proceeds in levels R = 1, c, c^2, ...; at level R two points
collide in a projection when their base buckets agree after integer division
by R. Per (query point, projection) a point is counted at most once across
levels, so the per-pair collision count never exceeds m. Objects whose
collision index reaches (1 - epsilon) * gamma enter the candidate list, and
the search stops when either

* T1 — at least k + beta * S candidates exist (checked after each projection
  pass), or
* T2 — at the start of a level, at least k candidates have exact object
  distance <= c * R. Candidates are measured by the ground truth's batched
  kernel, `similarity.gamma_distances`: each once, by one call per check.

The search charges no IO. It fills the collision and operation counts of
its `QueryStats` and records every executed (projection, level, ranges) pass
in an optional plan; `bench.replay_plans` charges that plan to the same
record under a scheduling strategy and buffer afterwards, so the strategy
changes the modeled cost only, never the counts or the answer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .buffering import QueryStats
from .errors import ParameterError
from .lsh import LshIndex, level_cap, reach_range
from .model import Dataset, QueryObject
# perfbench/harness.py wraps `engine.gamma_distance` by name, so it stays importable
from .similarity import GammaParams, gamma_distance, gamma_distances  # noqa: F401

T1 = "T1"
T2 = "T2"
EXHAUSTED = "EXHAUSTED"


@dataclass
class QueryResult:
    top_k: list  # (object_id, exact object distance), ascending
    stop_condition: str
    levels_used: int
    complete: bool
    stats: QueryStats
    bound_warning: bool = False    # gamma is below gamma_min_bound
    gamma_min_bound: float = 0.0   # smallest gamma with a proved guarantee

    @property
    def object_ids(self):
        return [oid for oid, _ in self.top_k]


def gamma_min_bound(q_size: int, min_object_size: int, delta: float,
                    epsilon: float, beta: float) -> float:
    """Smallest gamma for which the approximation guarantee is proved.

    sqrt(max(ln(1/delta) / ((eps-delta)^2 |Q| L), 2 ln(2/beta) / (beta^2 |Q| L))).
    """
    if q_size < 1 or min_object_size < 1:
        raise ParameterError("|Q| and L must be >= 1")
    for name, v in (("delta", delta), ("epsilon", epsilon), ("beta", beta)):
        if not 0.0 < v < 1.0:
            raise ParameterError(f"{name} must be in (0, 1), got {v}")
    if epsilon <= delta:
        raise ParameterError(f"epsilon ({epsilon}) must exceed delta ({delta})")
    ql = q_size * min_object_size
    # divide by one factor at a time: the square of a tiny gap or beta rounds
    # to 0, while these quotients only grow, to inf at worst
    term1 = math.log(1.0 / delta) / (epsilon - delta) / (epsilon - delta) / ql
    term2 = 2.0 * math.log(2.0 / beta) / beta / beta / ql
    return math.sqrt(max(term1, term2))


class CollisionState:
    """All mutable per-query search state: counts, collision indexes, coverage.

    `counts[qi, row]` is the number of projections in which query point qi
    and dataset point `row` have collided so far. A pair collides at most
    once per projection, so counts never exceed m and are stored in the
    narrowest unsigned dtype that holds m (uint8 up to m = 255, then uint16).
    """

    def __init__(self, q_count: int, index: LshIndex, dataset: Dataset):
        self.counts = np.zeros((q_count, dataset.n), dtype=np.min_scalar_type(index.m))
        self.qualifying_pairs = np.zeros(dataset.num_objects, dtype=np.int64)
        self.pair_totals = q_count * dataset.object_sizes
        # covered base-bucket interval per (query point, projection); empty at start
        self.cov_lo = np.full((q_count, index.m), np.iinfo(np.int64).max, dtype=np.int64)
        self.cov_hi = np.full((q_count, index.m), np.iinfo(np.int64).min, dtype=np.int64)

    @property
    def ci(self) -> np.ndarray:
        """Collision index per object: the share of its cross pairs with >= l collisions."""
        return self.qualifying_pairs / self.pair_totals

    def candidate_mask(self, gparams: GammaParams) -> np.ndarray:
        """Gamma-candidacy per object: collision index >= (1 - epsilon) * gamma."""
        return self.ci >= gparams.candidate_threshold


def count_collisions(q_bucket_col: np.ndarray, g: int, R: int, index: LshIndex,
                     dataset: Dataset, state: CollisionState) -> int:
    """Count new collisions of every query point in projection g at level R.

    q_bucket_col holds the query points' base buckets in projection g. The
    level-R bucket of query point qi is the base-bucket interval
    [qb*R, qb*R + R) with qb = q_bucket_col[qi] // R; only the part not
    covered at earlier levels is counted, which enforces the
    once-per-projection rule and keeps counts within CollisionState's
    narrow dtype. Afterwards `state.cov_lo[:, g]` / `cov_hi[:, g]` hold
    each point's level-R interval. A pair reaching l collisions adds one
    qualifying pair to its object. Returns the number of increments.
    """
    q_count = len(q_bucket_col)
    qb = q_bucket_col if R == 1 else np.floor_divide(q_bucket_col, R)
    lo = qb * R
    hi = lo + R
    old_lo, old_hi = state.cov_lo[:, g], state.cov_hi[:, g]
    fresh = old_lo > old_hi
    # uncovered segments: [lo, old_lo) and [old_hi, hi), or all of [lo, hi)
    # (with an empty second segment) for a point not yet covered
    seg_lo = np.concatenate((lo, np.where(fresh, hi, old_hi)))
    seg_hi = np.concatenate((np.where(fresh, hi, old_lo), hi))
    bounds = np.searchsorted(index.buckets[g], np.concatenate((seg_lo, seg_hi)), side="left")
    starts, stops = bounds[:2 * q_count], bounds[2 * q_count:]
    nonempty = np.flatnonzero(stops > starts)

    table = index.point_rows[g]
    crossing_count = index.params.l - 1
    owner = dataset.point_object_index
    incremented = 0
    for j, i0, i1 in zip(nonempty.tolist(), starts[nonempty].tolist(),
                         stops[nonempty].tolist()):
        rows = table[i0:i1]
        row = state.counts[j % q_count]
        current = row[rows]
        crossing = rows[current == crossing_count]
        if crossing.size:
            np.add.at(state.qualifying_pairs, owner[crossing], 1)
        row[rows] = current + 1
        incremented += i1 - i0
    state.cov_lo[:, g] = lo
    state.cov_hi[:, g] = hi
    return incremented


def check_t1(cl_count: int, k: int, beta: float, S: int) -> bool:
    """T1: at least k + beta*S candidates found."""
    return cl_count >= k + beta * S


def check_t2(candidate_dists, k: int, c_radius: float) -> bool:
    """T2: at least k candidates verified within distance c*R."""
    return bool(np.count_nonzero(np.asarray(candidate_dists) <= c_radius) >= k)


def knn_objects(query: QueryObject, k: int, index: LshIndex, dataset: Dataset,
                gparams: GammaParams, plan: list | None = None) -> QueryResult:
    """Top-k nearest neighbor objects by collision counting (Algorithm core).

    Iterates levels R = 1, c, c^2, ...; within a level iterates projections,
    counting collisions for every query point and refreshing collision
    indexes; stops on T1 or T2 and returns the top-k candidates ranked by
    exact object distance (ties by ascending object id). If the level range
    is exhausted before k candidates appear, the partial result is flagged.

    The exact object distance is only ever computed for candidates, never for
    the full database: each T2 check and the final ranking measure their new
    candidates by one `gamma_distances` call. The returned stats hold
    collision increments and algorithm operations, but no IO or modeled
    time: a `plan` list collects every executed pass as (projection g,
    level R, ranges), and `bench.replay_plans` charges it under any strategy
    and buffer size.
    `ranges` is a (|Q|, 3) int64 array whose row qi is (qi, lo, hi): query
    point qi's level-R bucket, the base-bucket interval [lo, hi).
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    if query.coords.shape[1] != index.dimension:
        raise ValueError("query dimension does not match the index")

    q_count = len(query.coords)
    min_size = int(dataset.object_sizes.min())
    bound = gamma_min_bound(q_count, min_size, gparams.delta, gparams.epsilon, gparams.beta)
    bound_warning = gparams.gamma < bound
    if bound_warning:
        warnings.warn(
            f"gamma={gparams.gamma:.4f} is below the guarantee bound {bound:.4f}; "
            "results carry no approximation guarantee", stacklevel=2)

    c, m, S = index.params.c, index.params.m, dataset.num_objects
    max_levels = level_cap(c)
    state = CollisionState(q_count, index, dataset)
    stats = QueryStats()
    q_base = index.hash_query(query.coords)
    reach_lo, reach_hi = reach_range(index, q_base)
    point_index = np.arange(q_count)

    dists = np.full(S, np.nan)  # an object's exact distance, once it is verified

    def verified(ranks):
        """Fill in the distances `ranks` lack, by one batched kernel call."""
        new = ranks[np.isnan(dists[ranks])]
        if new.size:
            dists[new] = gamma_distances(query.coords, dataset, new, gparams.gamma)
        return dists[ranks]

    def finish(stop, levels, complete=True):
        ranks = np.flatnonzero(state.candidate_mask(gparams))
        # ranks ascend with object id, so a stable sort breaks ties by id
        top = ranks[np.argsort(verified(ranks), kind="stable")[:k]]
        top_k = list(zip(dataset.object_ids[top].tolist(), dists[top].tolist()))
        return QueryResult(top_k=top_k, stop_condition=stop, levels_used=levels,
                           complete=complete and len(top_k) >= min(k, S),
                           stats=stats, bound_warning=bound_warning,
                           gamma_min_bound=bound)

    R = 1
    levels_done = 0
    while True:
        # T2 at the start of each level: k candidates verified within c*R
        cand_ranks = np.flatnonzero(state.candidate_mask(gparams))
        if cand_ranks.size >= k and check_t2(verified(cand_ranks), k, c * R):
            return finish(T2, levels_done)

        # every (query point, projection) covered as far as it can ever reach?
        covered = (reach_lo >= reach_hi) | (
            (state.cov_lo <= reach_lo) & (state.cov_hi >= reach_hi))
        exhausted = bool(np.all(covered))
        if exhausted or levels_done >= max_levels:
            enough = int(np.count_nonzero(state.candidate_mask(gparams))) >= k
            return finish(T2 if enough else EXHAUSTED, levels_done, complete=enough)

        for g in range(m):
            inc = count_collisions(q_base[:, g], g, R, index, dataset, state)
            stats.collision_increments += inc
            stats.alg_ops += inc
            if plan is not None:
                # counting left every point's level interval as its coverage
                ranges = np.empty((q_count, 3), dtype=np.int64)
                ranges[:, 0] = point_index
                ranges[:, 1] = state.cov_lo[:, g]
                ranges[:, 2] = state.cov_hi[:, g]
                plan.append((g, R, ranges))
            # T1 barrier after each projection pass
            cl_count = int(np.count_nonzero(state.candidate_mask(gparams)))
            if check_t1(cl_count, k, gparams.beta, S):
                return finish(T1, levels_done + 1)

        levels_done += 1
        R *= c
