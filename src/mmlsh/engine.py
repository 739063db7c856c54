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

Each level's m passes are counted by one `count_collisions` call. The
candidate count only grows from pass to pass, so T1 holds after some pass of
a level exactly when it holds after the whole level. The search then rewinds
the level, finds the first such pass by bisection and keeps the passes up to
it alone: the result, the counts and the plan are those of a check after
every pass.

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

    It is built over one search's (|Q|, m) base buckets `q_base`, its index
    and its dataset, and keeps every query point until the search ends.
    The collision count of query point qi and dataset point `row` is the
    number of projections in which they have collided so far. A pair
    collides at most once per projection, so a count never exceeds m.
    Counts are packed into a (planes, n) uint64 array, `lanes` counts of
    `lane_bits` bits per word: qi is lane qi % lanes of plane qi // lanes,
    its lowest bit at bit (qi % lanes) * lane_bits of the word. Each lane
    starts at 2**(lane_bits-1) - l, so its top bit is set exactly when the
    count has reached l. `lane_bits` is the smallest b with l <= 2**(b-1)
    and m - l <= 2**(b-1) - 1, so the start is not negative and m
    increments end at 2**(b-1) + m - l <= 2**b - 1: no lane ever carries
    into the next. MAX_PROJECTIONS = 1024 keeps lanes within 11 bits. Lanes
    past the last query point are never incremented, so their value is
    never read. Only `count_collisions` increments the lanes;
    `qualified_rows` decodes them by shift and mask, and no other module
    touches the words.

    `cov_lo`/`cov_hi` hold each (query point, projection)'s counted
    base-bucket interval [cov_lo, cov_hi). It starts empty at the point's
    own bucket, [qb, qb), and only grows, so every interval counted into it
    holds qb. `stop` sets it to span every bucket, after which the point
    counts nothing more.

    `checkpoint` copies the counts, the qualifying pairs and the coverage,
    and `rewind` restores them: the object search rewinds a level to find
    the first pass after which T1 holds.
    """

    def __init__(self, q_base: np.ndarray, index: LshIndex, dataset: Dataset):
        q_count, m, l = len(q_base), index.m, index.params.l
        self.q_base, self.index, self.dataset = q_base, index, dataset
        self.reach_lo, self.reach_hi = reach_range(index, q_base)
        self.lane_bits = (max(l, m - l + 1) - 1).bit_length() + 1
        self.lanes = 64 // self.lane_bits
        self._start = 2 ** (self.lane_bits - 1) - l
        ones = sum(1 << self.lane_bits * lane for lane in range(self.lanes))
        self.top_bits = ones << self.lane_bits - 1  # the top bit of every lane
        self.packed_counts = np.full((-(-q_count // self.lanes), dataset.n), self._start * ones,
                                     dtype=np.uint64)
        self.qualifying_pairs = np.zeros(dataset.num_objects, dtype=np.int64)
        self.qualified_total = 0  # sum of qualifying_pairs
        self.pair_totals = q_count * dataset.object_sizes
        self.cov_lo = q_base.astype(np.int64)  # copies: coverage grows in place
        self.cov_hi = q_base.astype(np.int64)

    def qualified_rows(self, qi: int) -> np.ndarray:
        """Ascending dataset rows whose count with query point qi has reached l."""
        top = np.uint64(1 << (qi % self.lanes + 1) * self.lane_bits - 1)  # qi's lane's top bit
        return np.flatnonzero((self.packed_counts[qi // self.lanes] & top) != 0)

    @property
    def ci(self) -> np.ndarray:
        """Collision index per object: the share of its cross pairs with >= l collisions."""
        return self.qualifying_pairs / self.pair_totals

    def candidate_mask(self, gparams: GammaParams) -> np.ndarray:
        """Gamma-candidacy per object: collision index >= (1 - epsilon) * gamma."""
        return self.ci >= gparams.candidate_threshold

    def covered(self) -> np.ndarray:
        """Per query point, whether each projection is covered as far as `reach_range` reaches."""
        return np.all((self.reach_lo >= self.reach_hi)
                      | ((self.cov_lo <= self.reach_lo) & (self.cov_hi >= self.reach_hi)), axis=1)

    def stop(self, points) -> None:
        """Count nothing more for the query points at `points`: they cover every bucket."""
        self.cov_lo[points] = np.iinfo(np.int64).min
        self.cov_hi[points] = np.iinfo(np.int64).max

    def checkpoint(self) -> tuple:
        """A copy of everything counting changes, for `rewind`."""
        return (self.packed_counts.copy(), self.qualifying_pairs.copy(), self.qualified_total,
                self.cov_lo.copy(), self.cov_hi.copy())

    def rewind(self, saved: tuple) -> None:
        """Restore the counts, qualifying pairs and coverage a `checkpoint` copied."""
        counts, pairs, self.qualified_total, cov_lo, cov_hi = saved
        for now, then in ((self.packed_counts, counts), (self.qualifying_pairs, pairs),
                          (self.cov_lo, cov_lo), (self.cov_hi, cov_hi)):
            np.copyto(now, then)


def count_collisions(state: CollisionState, projections: range, R: int) -> int:
    """Count new collisions of every query point in the projections of a range at level R.

    `projections` is a contiguous range of projection ids; a range of one
    projection is one pass, and a range of several counts exactly what their
    passes would count one after another. In projection g the level-R bucket
    of query point qi is the base-bucket interval [qb*R, qb*R + R) with qb =
    state.q_base[qi, g] // R; only the part that `state.cov_lo[qi, g]`/
    `cov_hi[qi, g]` does not cover yet is counted, which enforces the
    once-per-projection rule and keeps every count within its lane. Both
    intervals hold the point's base bucket, so that part is [qb*R, cov_lo)
    and [cov_hi, qb*R + R), each empty where the coverage reaches past the
    level's bucket. Afterwards the coverage is the union of the two
    intervals: counting a pass twice, or a lower level after a higher one,
    adds nothing, and a stopped point counts nothing. Each level's interval
    holds the previous one's, so on the searches' level order the union is
    the level-R interval. A pair reaching l collisions adds one qualifying
    pair to its object. Returns the number of increments.

    Each projection's table is read by one `range_rows` call. Query points
    of one object share segments heavily, so the segments are grouped in
    numpy by (projection, plane, row range), and each group is counted by
    one `np.add.at` of an increment word holding a one in the lane of every
    point that has the segment. A point's segments in one projection are
    disjoint, so no group holds a lane twice; groups of one plane may
    overlap (from c = 3 on, two points' segments can overlap without being
    equal), and their increments then add up lane by lane. The cost is paid
    per word, not per count: the narrower the lanes, the fewer planes a
    query's points spread over, and the fewer groups one shared segment
    makes. Counts only grow and lanes never carry, so a lane reached l in
    this call exactly when its top bit differs from the call's start: the
    crossings are found once per call, whatever the number of projections.
    The object search and `baselines.point_knn_c2lsh` both count through
    this kernel.
    """
    g0, g1 = projections.start, projections.stop
    q_count = len(state.q_base)
    lo = np.floor_divide(state.q_base[:, g0:g1], R) * R
    hi = lo + R
    old_lo, old_hi = state.cov_lo[:, g0:g1], state.cov_hi[:, g0:g1]
    seg_lo, seg_hi = np.concatenate((lo, old_hi)).T, np.concatenate((old_lo, hi)).T
    tables, starts, stops = zip(*(state.index.range_rows(g, seg_lo[p], seg_hi[p])
                                  for p, g in enumerate(projections)))
    # segment p * 2|Q| + j is query point j % |Q|'s in projection g0 + p
    starts, stops = np.concatenate(starts), np.concatenate(stops)
    seg = np.flatnonzero(stops > starts)
    seg_p, point = np.divmod(seg, 2 * q_count)
    plane, lane = np.divmod(point % q_count, state.lanes)
    starts, stops = starts[seg], stops[seg]

    order = np.lexsort((stops, starts, plane, seg_p))
    keys = np.stack((seg_p, plane, starts, stops))[:, order]
    change = np.ones(len(order), dtype=bool)  # where a group starts
    change[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    first = np.flatnonzero(change)
    bits = np.left_shift(np.uint64(1), (lane * state.lane_bits).astype(np.uint64))
    incs = np.bitwise_or.reduceat(bits[order], first)
    group_p, group_plane, i0s, i1s = keys[:, first]

    before = state.packed_counts.copy()
    words = list(state.packed_counts)  # one view per plane
    for p, pl, i0, i1, inc in zip(group_p.tolist(), group_plane.tolist(), i0s.tolist(),
                                  i1s.tolist(), incs):  # uint64 scalars: add.at's fast path
        np.add.at(words[pl], tables[p][i0:i1], inc)
    crossed = np.bitwise_and(before ^ state.packed_counts, np.uint64(state.top_bits), out=before)
    gained = np.bitwise_count(crossed).sum(axis=0, dtype=np.int64)  # per row, lanes that reached l
    hit = np.flatnonzero(gained)
    np.add.at(state.qualifying_pairs, state.dataset.point_object_index[hit], gained[hit])
    state.qualified_total += int(gained.sum())
    np.minimum(old_lo, lo, out=old_lo)
    np.maximum(old_hi, hi, out=old_hi)
    return int(((i1s - i0s) * np.bitwise_count(incs)).sum())


def check_t1(cl_count: int, k: int, beta: float, S: int) -> bool:
    """T1: at least k + beta*S candidates found."""
    return cl_count >= k + beta * S


def check_t2(candidate_dists, k: int, c_radius: float) -> bool:
    """T2: at least k candidates verified within distance c*R."""
    return bool(np.count_nonzero(np.asarray(candidate_dists) <= c_radius) >= k)


def knn_objects(query: QueryObject, k: int, index: LshIndex, dataset: Dataset,
                gparams: GammaParams, plan: list | None = None) -> QueryResult:
    """Top-k nearest neighbor objects by collision counting (Algorithm core).

    Iterates levels R = 1, c, c^2, ...; each level counts collisions for
    every query point in all m projections in one `count_collisions` call;
    stops on T1 or T2 and returns the top-k candidates ranked by exact object
    distance (ties by ascending object id). T1 is the check after each
    projection pass: when it holds after a level, the level is rewound and
    `first_pass_that_holds` counts it up to the first pass after which T1
    holds, so the counts, stats and plan stop at that pass. If the level
    range is exhausted before k candidates appear, the stop condition is
    EXHAUSTED.

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
    state = CollisionState(index.hash_query(query.coords), index, dataset)
    stats = QueryStats()

    dists = np.full(S, np.nan)  # an object's exact distance, once it is verified

    def verified(ranks):
        """Fill in the distances `ranks` lack, by one batched kernel call."""
        new = ranks[np.isnan(dists[ranks])]
        if new.size:
            dists[new] = gamma_distances(query.coords, dataset, new, gparams.gamma)
        return dists[ranks]

    def finish(stop, levels):
        ranks = np.flatnonzero(state.candidate_mask(gparams))
        # ranks ascend with object id, so a stable sort breaks ties by id
        top = ranks[np.argsort(verified(ranks), kind="stable")[:k]]
        top_k = list(zip(dataset.object_ids[top].tolist(), dists[top].tolist()))
        return QueryResult(top_k=top_k, stop_condition=stop, levels_used=levels,
                           stats=stats, bound_warning=bound_warning, gamma_min_bound=bound)

    def t1_holds():
        return check_t1(int(np.count_nonzero(state.candidate_mask(gparams))), k, gparams.beta, S)

    R = 1
    levels_done = 0
    while True:
        # T2 at the start of each level: k candidates verified within c*R
        cand_ranks = np.flatnonzero(state.candidate_mask(gparams))
        if cand_ranks.size >= k and check_t2(verified(cand_ranks), k, c * R):
            return finish(T2, levels_done)

        # every (query point, projection) covered as far as it can ever reach?
        exhausted = bool(np.all(state.covered()))
        if exhausted or levels_done >= max_levels:
            enough = int(np.count_nonzero(state.candidate_mask(gparams))) >= k
            return finish(T2 if enough else EXHAUSTED, levels_done)

        start = state.checkpoint()
        inc = count_collisions(state, range(m), R)
        passes, t1 = m, t1_holds()
        if t1:  # T1 holds after some pass of this level: find the first
            state.rewind(start)
            passes, inc = first_pass_that_holds(state, m, R, t1_holds)
        stats.collision_increments += inc
        stats.alg_ops += inc
        if plan is not None:
            # counting left every point's level interval as its coverage
            ranges = np.empty((passes, q_count, 3), dtype=np.int64)
            ranges[:, :, 0] = np.arange(q_count)
            ranges[:, :, 1] = state.cov_lo[:, :passes].T
            ranges[:, :, 2] = state.cov_hi[:, :passes].T
            plan += [(g, R, ranges[g]) for g in range(passes)]
        if t1:
            return finish(T1, levels_done + 1)
        levels_done += 1
        R *= c


def first_pass_that_holds(state: CollisionState, m: int, R: int, holds) -> tuple[int, int]:
    """Count projections 0, 1, ... at level R up to the first pass after which `holds()` is true.

    `holds` must be false on the state as given and true after all m passes,
    and may only turn from false to true as counts grow, as T1 does: its
    candidate count follows the qualifying pairs, which never fall. The
    first such pass is found by bisection: a range of passes is counted in
    one call, and rewound when `holds` is true after it. Returns the number
    of passes counted, that pass's included, and their increments; the state
    is left after them, as counting them one by one would leave it.
    """
    lo, hi, inc = 0, m - 1, 0  # holds after passes [0, hi], not after [0, lo)
    while True:
        mid = (lo + hi) // 2
        before = state.checkpoint()
        got = count_collisions(state, range(lo, mid + 1), R)
        if not holds():
            lo, inc = mid + 1, inc + got
        elif mid == lo:
            return lo + 1, inc + got
        else:
            hi = mid
            state.rewind(before)
