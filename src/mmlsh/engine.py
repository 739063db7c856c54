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

A search's level intervals are fixed by its query points' base buckets, so
`CollisionState` looks up their row offsets in every projection's table once,
when it is built, and keeps what each (query point, projection) has counted
as one row range, its coverage. Levels are counted in order, so the
coverage is the last counted level's interval, and the exhaustion check and
the plans take that interval's bucket ids from the base buckets and R. Each
level's segments are grouped once, as a `GroupedLevel`, and its m passes
are applied together. The candidate count only grows from pass to pass, so
T1 holds after some pass of a level exactly when it holds after the whole
level. The search then bisects the level's passes, moving the state between
prefixes by un-applying or applying the grouped passes between them, until
it stands after the first such pass, and keeps the passes up to it alone:
the result, the counts and the plan are those of a check after every pass.

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
    never read. Only `GroupedLevel` changes the lanes; `qualified_rows`
    decodes them by shift and mask, and no other module touches the words.

    The query points' base buckets fix every level's intervals, so the row
    offsets of those intervals in each projection's table are looked up
    here, once: one `range_rows` call per projection covers every level t
    until c**t exceeds every |query base bucket| and every |occupied bucket
    id|. From that level on, a point's interval is [0, c**t) or [-c**t, 0),
    which holds every occupied bucket on its side of zero, so the offsets
    stop changing and later levels read the last tabulated one
    (`level_rows`).

    `cov_row_lo`/`cov_row_hi` hold each (query point, projection)'s counted
    coverage: the rows [cov_row_lo, cov_row_hi) of the projection's table.
    It starts empty at the rows of the point's own bucket and only grows by
    unions with level intervals, which all hold that bucket; the map from a
    bucket id to its row offset is monotone, so a union is a min and a max.
    `stop` sets the coverage to every row, [0, n), after which the point
    counts nothing more. `covered` and the plans need bucket ids: counted
    in level order, the coverage is the last counted level's interval,
    which they derive from `q_base` and R.
    """

    def __init__(self, q_base: np.ndarray, index: LshIndex, dataset: Dataset):
        q_count, m, l, c = len(q_base), index.m, index.params.l, index.params.c
        self.q_base, self.dataset = q_base, dataset
        self.reach_lo, self.reach_hi = reach_range(index, q_base)
        self.lane_bits = (max(l, m - l + 1) - 1).bit_length() + 1
        self.lanes = 64 // self.lane_bits
        self._start = 2 ** (self.lane_bits - 1) - l
        ones = sum(1 << self.lane_bits * lane for lane in range(self.lanes))
        self.top_bits = ones << self.lane_bits - 1  # the top bit of every lane
        self.packed_counts = np.full((-(-q_count // self.lanes), dataset.n), self._start * ones,
                                     dtype=np.uint64)
        self.qualifying_pairs = np.zeros(dataset.num_objects, dtype=np.int64)
        self.pair_totals = q_count * dataset.object_sizes

        self._widths = [c ** t for t in range(level_cap(c))]  # every R a search may use
        span = max(int(np.abs(q_base).max(initial=0)), int(np.abs(index.bucket_lo).max()),
                   int(np.abs(index.bucket_hi).max()))
        levels = 1 + next((t for t, R in enumerate(self._widths) if R > span),
                          len(self._widths) - 1)
        widths = np.array(self._widths[:levels], dtype=np.int64)[:, None]
        lo = np.floor_divide(q_base.T[:, None], widths) * widths  # (m, levels, |Q|) interval starts
        hi = lo + widths
        self.tables, starts, stops = zip(*(index.range_rows(g, lo[g].ravel(), hi[g].ravel())
                                          for g in range(m)))  # tables: each projection's rows
        # the bounds' row offsets, by (start or stop, level, point, projection)
        self._level_rows = np.moveaxis(np.reshape((starts, stops), (2, m, levels, q_count)), 1, 3)
        self.cov_row_lo = self._level_rows[0, 0].copy()  # level 0 starts at the point's bucket
        self.cov_row_hi = self.cov_row_lo.copy()

    def level_rows(self, R: int) -> tuple[np.ndarray, np.ndarray]:
        """(starts, stops): the (|Q|, m) row offsets of every point's level-R interval.

        R must be c**t for a level t < `level_cap(c)`, else ParameterError.
        """
        if R not in self._widths:
            raise ParameterError(f"level width R={R} is not c**t for a level t < "
                                 f"{len(self._widths)}")
        t = min(self._widths.index(R), self._level_rows.shape[1] - 1)  # past the table: its last
        return self._level_rows[0, t], self._level_rows[1, t]

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

    def covered(self, R: int) -> np.ndarray:
        """Per query point, whether its level-R intervals hold all that `reach_range` reaches.

        R = 0 stands for the empty interval [qb, qb) that a search starts from.
        """
        lo = np.floor_divide(self.q_base, R) * R if R else self.q_base
        return np.all((self.reach_lo >= self.reach_hi)
                      | ((lo <= self.reach_lo) & (lo + R >= self.reach_hi)), axis=1)

    def stop(self, points) -> None:
        """Count nothing more for the query points at `points`: they cover every row."""
        self.cov_row_lo[points] = 0
        self.cov_row_hi[points] = self.dataset.n


class GroupedLevel:
    """One level's new segments over a range of projections, grouped once, and its counted prefix.

    In projection g the level-R bucket of query point qi is the base-bucket
    interval [qb*R, qb*R + R) with qb = state.q_base[qi, g] // R, the rows
    [start, stop) of `CollisionState.level_rows`; only the part that the
    state's coverage does not hold yet is new. Both hold the rows of the
    point's base bucket, so that part is [start, cov_row_lo) and
    [cov_row_hi, stop), each empty where the coverage reaches past the
    level's bucket, and a stopped point has none.

    Query points of one object share segments heavily, so the segments are
    grouped in numpy by (projection, plane, row range), ordered by
    projection: the first p passes of the range are a prefix of the
    groups. Each group is counted by one `np.add.at` of an increment word
    holding a one in the lane of every point that has the segment. A
    point's segments in one projection are disjoint, so no group holds a
    lane twice; groups of one plane may overlap (from c = 3 on, two points'
    segments can overlap without being equal), and their increments then
    add up lane by lane. The cost is paid per word, not per count: the
    narrower the lanes, the fewer planes a query's points spread over, and
    the fewer groups one shared segment makes.

    `counted` passes of the range are in the state, none at first.
    `count_to(passes)` moves the state to another prefix and leaves it as
    counting those passes one by one would: the result, the counts, the
    qualifying pairs and the coverage. Nothing else may change the state's
    counts or coverage in these projections meanwhile.
    """

    def __init__(self, state: CollisionState, projections: range, R: int):
        self.state, self.counted = state, 0
        self._g0 = g0 = projections.start
        q_count = len(state.q_base)
        row_lo, row_hi = (rows[:, projections] for rows in state.level_rows(R))
        # the coverage before and after a pass, as (cov_row_lo, cov_row_hi)
        old = self._cov_before = [state.cov_row_lo[:, projections],
                                  state.cov_row_hi[:, projections]]  # copies
        self._cov_after = [np.minimum(old[0], row_lo), np.maximum(old[1], row_hi)]

        starts = np.concatenate((row_lo, old[1])).T.ravel()
        stops = np.concatenate((old[0], row_hi)).T.ravel()
        # segment p * 2|Q| + j is query point j % |Q|'s in projection g0 + p
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
        self._incs = np.bitwise_or.reduceat(bits[order], first)
        group_p, self._planes, self._i0s, self._i1s = keys[:, first]
        self._tables = [state.tables[g0 + p] for p in group_p.tolist()]
        self._bounds = np.searchsorted(group_p, np.arange(len(projections) + 1))  # pass -> group
        per_group = (self._i1s - self._i0s) * np.bitwise_count(self._incs)
        self._prefix_increments = np.concatenate(([0], np.cumsum(per_group)))[self._bounds]

    @property
    def increments(self) -> int:
        """The increments of the counted passes."""
        return int(self._prefix_increments[self.counted])

    def count_to(self, passes: int) -> None:
        """Leave the first `passes` passes of the range counted, and no other.

        Passes beyond the counted prefix are applied: each of their groups
        adds its increment word. Counted passes beyond `passes` are
        un-applied: each group subtracts the word it added, so no lane
        borrows. Counts move one way per call and lanes never carry or
        borrow, so a lane crossed l in this call exactly when its top bit
        differs from the call's start; each crossing adds a qualifying pair
        to the row's object, or gives one back. The applied passes' coverage
        becomes the union with the level interval, and the un-applied
        passes' goes back to the level's start.
        """
        a, b = sorted((self.counted, passes))
        if a == b:
            return
        state, forward = self.state, passes > self.counted
        move = np.add.at if forward else np.subtract.at
        groups = slice(self._bounds[a], self._bounds[b])
        before = state.packed_counts.copy()
        words = list(state.packed_counts)  # one view per plane
        for table, pl, i0, i1, inc in zip(self._tables[groups], self._planes[groups].tolist(),
                                          self._i0s[groups].tolist(), self._i1s[groups].tolist(),
                                          self._incs[groups]):  # uint64 scalars: the fast path
            move(words[pl], table[i0:i1], inc)
        top = np.uint64(state.top_bits)
        crossed = np.bitwise_and(before ^ state.packed_counts, top, out=before)
        gained = np.bitwise_count(crossed).sum(axis=0, dtype=np.int64)  # per row, crossed lanes
        if not forward:
            np.negative(gained, out=gained)
        hit = np.flatnonzero(gained)
        np.add.at(state.qualifying_pairs, state.dataset.point_object_index[hit], gained[hit])
        for cov, end in zip((state.cov_row_lo, state.cov_row_hi),
                            self._cov_after if forward else self._cov_before):
            cov[:, self._g0 + a:self._g0 + b] = end[:, a:b]
        self.counted = passes


def count_collisions(state: CollisionState, projections: range, R: int) -> int:
    """Count new collisions of every query point in the projections of a range at level R.

    `projections` is a contiguous range of projection ids; a range of one
    projection is one pass, and a range of several counts exactly what their
    passes would count one after another. Only the part of each point's
    level-R interval that its coverage does not hold yet is counted (see
    `GroupedLevel`), which enforces the once-per-projection rule and keeps
    every count within its lane. Afterwards the row coverage is the union
    of the two intervals: counting a pass twice, or a lower level after a
    higher one, adds nothing, and a stopped point counts nothing. Each
    level's interval holds the previous one's, so on the searches' level
    order the union is the level-R interval, whose bucket ids
    `CollisionState.covered` and the plans take from the base buckets. A
    pair reaching l collisions adds one qualifying pair to its object.
    Returns the number of increments. R must be c**t for a level t <
    `level_cap(c)`, else ParameterError.

    It groups the range's segments and applies every group: one
    `GroupedLevel` counted to its end. `baselines.point_knn_c2lsh`, which
    checks nothing within a level, counts each level by one call.
    """
    level = GroupedLevel(state, projections, R)
    level.count_to(len(projections))
    return level.increments


def check_t1(cl_count: int, k: int, beta: float, S: int) -> bool:
    """T1: at least k + beta*S candidates found."""
    return cl_count >= k + beta * S


def check_t2(candidate_dists, k: int, c_radius: float) -> bool:
    """T2: at least k candidates verified within distance c*R."""
    return bool(np.count_nonzero(np.asarray(candidate_dists) <= c_radius) >= k)


def knn_objects(query: QueryObject, k: int, index: LshIndex, dataset: Dataset,
                gparams: GammaParams, plan: list | None = None) -> QueryResult:
    """Top-k nearest neighbor objects by collision counting (Algorithm core).

    Iterates levels R = 1, c, c^2, ...; each level groups the segments of
    every query point in all m projections once, as a `GroupedLevel`, and
    counts them together; stops on T1 or T2 and returns the top-k
    candidates ranked by exact object distance (ties by ascending object
    id). T1 is the check after each projection pass: when it holds after a
    level, `first_pass_that_holds` bisects the level back to the first pass
    after which T1 holds, so the counts, stats and plan stop at that pass.
    If the counted levels hold all that the query points can reach, or the
    level range runs out, before k candidates appear, the stop condition is
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

    def candidates():
        return int(np.count_nonzero(state.candidate_mask(gparams)))

    R = 1
    levels_done = 0
    while True:
        # T2 at the start of each level: k candidates verified within c*R
        cand_ranks = np.flatnonzero(state.candidate_mask(gparams))
        if cand_ranks.size >= k and check_t2(verified(cand_ranks), k, c * R):
            return finish(T2, levels_done)

        # every (query point, projection) covered as far as it can ever reach?
        exhausted = bool(np.all(state.covered(R // c)))
        if exhausted or levels_done >= max_levels:
            return finish(T2 if cand_ranks.size >= k else EXHAUSTED, levels_done)

        level = GroupedLevel(state, range(m), R)
        level.count_to(m)
        t1 = check_t1(candidates(), k, gparams.beta, S)
        if t1:  # T1 holds after some pass of this level: move to the first
            first_pass_that_holds(level, candidates, k + gparams.beta * S)
        passes = level.counted
        stats.collision_increments += level.increments
        stats.alg_ops += level.increments
        if plan is not None:
            # counted in level order, a pass covers every point's level-R interval
            ranges = np.empty((passes, q_count, 3), dtype=np.int64)
            ranges[:, :, 0] = np.arange(q_count)
            ranges[:, :, 1] = np.floor_divide(state.q_base[:, :passes], R).T * R
            ranges[:, :, 2] = ranges[:, :, 1] + R
            plan += [(g, R, ranges[g]) for g in range(passes)]
        if t1:
            return finish(T1, levels_done + 1)
        levels_done += 1
        R *= c


def first_pass_that_holds(level: GroupedLevel, candidates, need: float) -> None:
    """Move a counted level to its first pass after which `candidates()` reaches `need`.

    `level` has counted all its passes, after which at least `need`
    candidates exist; before them fewer did. The candidate count follows
    the qualifying pairs, which never fall as passes are counted, so the
    passes after which it reaches `need` are a suffix of the level. The
    search bisects a bracket of passes (lo, hi], with the count short of
    `need` after lo passes and reaching it after hi, moving the state to
    the bracket's middle each step, applying or un-applying the passes
    between, then to hi. With the whole level's count, a level of m passes
    takes at most ceil(log2 m) + 2 moves. The state is left after the first
    pass that reaches `need`, as counting the passes up to it one by one
    would leave it.
    """
    lo, hi = 0, level.counted
    while hi - lo > 1:
        mid = (lo + hi) // 2
        level.count_to(mid)
        if candidates() >= need:
            hi = mid
        else:
            lo = mid
    level.count_to(hi)
