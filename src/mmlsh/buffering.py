"""Buffer-conscious query scheduling over a deterministic modeled disk.

Three strategies decide the order in which a level's hash buckets are pulled
through a fixed-capacity buffer and which resident bucket to evict on a miss:

* NS1 — query points execute left to right by bucket position (the one-split
  case of `split_queries`), LRU eviction.
* NS2 — each distinct useful bucket is read once and serves every query that
  needs it (minimal IO, extra per-bucket matching work).
* MMLSH — NS1-style ordering refined by query splitting (each query's bucket
  range is cut into segments that are interleaved globally by position) and
  a buffer-conscious replacement policy.

That policy, `_MmlshEvictor`, seeds each admitted bucket's expected
demand from the offline `FrequencyProfile`, counts it down on every use, and
evicts by recency, distance from the query position and remaining demand
(`evict_mmlsh`). Recency rests on one fact. At an eviction a resident is old
when its insert tick is below b = clock - len(resident). An access adds one
tick and at most one resident, and an eviction removes one resident, so b is
higher at every eviction than at the one before: a resident that is old
stays old while it is resident. The policy therefore keeps the young
residents in insert order and moves each into one lazy (demand, key) heap
when it turns old, and an eviction reads its victim off the top of that
heap without scanning the residents.

NS1 and MMLSH share one visiting order: `split_queries` orders a whole
plan with numpy and returns its distinct keys, each with its first and last
access and use count, and its visited segments. A range of width w is
cut into n = min(splits, w) segments whose edges are the rounded multiples
of w / n, computed in numpy for the whole plan at once. Segments are visited
by (pass, start); a pass's rows are in query-index order, and ties at equal
starts are broken by row. NS2 reads every plan at once: `schedule_ns2`
returns the batch's distinct keys in reading order, each with the plan it is
billed to. Both functions read one layout of their passes (`_Layout`),
which names each occupied bucket of each (g, R) pass by one int64 key, the
same in every plan, ascending by (g, R, bucket id); NS2 sorts its distinct
keys stably by level, which gives its (R, g, bucket id) reading order. What
the keys read of an index (its occupied ids, bucket sizes and MMLSH
admission demands) is worked out once per index (`_KeySpace`). The
points of one query object share buckets, so most rows repeat the row
before them; the layout folds each such run into its first row
(`fold_repeats`), and both functions order or read that row once. The fold
runs through the ordering: `split_queries` expands only each segment's
first copy into keys and bills the other copies by arithmetic, so a plan
that fits the buffer costs its distinct keys, not its repeated accesses.

All IO is modeled, never measured: a miss costs one seek plus size/rate read
time. Ticks advance once per access, hits included, so replays are exact.
Every access, and the evictions a miss causes, is billed once: to the
buffer's `io_stats` and to the `QueryStats` of the query it serves.
`access_bucket` bills one access. `bill_hits` bills hits key by key, each
key's hits at once, and leaves the clock to its caller. Hits admit and evict
nothing, so between two misses they change only the clock, the hit counts,
the recency order and the MMLSH demands:

* reinserting each key once, in last-use order, leaves the recency order
  that reinserting it at every hit leaves;
* a demand d below 2**53 loses each use exactly, so u clamped single
  decrements equal max(0, d - u);
* an old resident's heap entries from all but its last hit would be stale,
  and a stale entry never picks a victim, so one entry per key suffices.

A kept trace (`BufferState.trace`) logs misses only, one (tick, key,
evicted keys) entry each: misses are the only accesses that change what is
resident, and the hits are the ticks in between.
"""

from __future__ import annotations

import heapq
import math
import weakref
import zipfile
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ProfileFileError
from .lsh import level_cap, replacing

NS1 = "NS1"
NS2 = "NS2"
MMLSH = "MMLSH"

POINT_ID_BYTES = 4  # bucket size on disk = entry count * point-id width


@dataclass
class CostModel:
    """HDD timing model: average seek latency and sequential read rate."""

    seek_ms: float = 8.5
    read_rate_mb_per_ms: float = 0.156

    def __post_init__(self):
        # a NaN fails both comparisons
        if not all(0 < v < math.inf for v in (self.seek_ms, self.read_rate_mb_per_ms)):
            raise ValueError("cost model constants must be finite and positive")

    def read_ms(self, size_bytes: int) -> float:
        return size_bytes / (self.read_rate_mb_per_ms * 1e6)

    def miss_ms(self, size_bytes: int) -> float:
        return self.seek_ms + self.read_ms(size_bytes)


@dataclass
class QueryStats:
    """Modeled cost of one query, or of every access a buffer served.

    A miss is one seek, so seeks equal `buffer_misses`, and the buckets read
    are hits + misses. `collision_increments` and `alg_ops` come from the
    search; the IO fields from `access_bucket`; `alg_ms` is `alg_ops` times
    the per-operation cost, set by the reporter (`bench._row` for reports).
    """

    buffer_hits: int = 0
    buffer_misses: int = 0
    bytes_read: int = 0
    evictions: int = 0
    io_ms: float = 0.0
    collision_increments: int = 0
    alg_ops: int = 0
    alg_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.alg_ms + self.io_ms


class _Entry:
    __slots__ = ("size_bytes", "insert_tick", "est_frequency")

    def __init__(self, size_bytes, insert_tick, est_frequency=1.0):
        self.size_bytes = size_bytes
        self.insert_tick = insert_tick
        self.est_frequency = est_frequency


class BufferState:
    """Resident bucket set with recency/frequency metadata and IO accounting.

    A replay's keys are the int64 buffer keys of `_Layout`, one per
    (projection, level, base bucket id): each level's buckets are distinct
    cacheable units. LRU reads nothing of a key; MMLSH decodes it. The
    resident dict preserves insertion order, which doubles as the LRU order
    because every hit reinserts its key.
    """

    def __init__(self, capacity_bytes: int, cost: CostModel | None = None, trace=None):
        if not 1 <= capacity_bytes < math.inf:  # a NaN fails both comparisons
            raise ValueError(f"capacity must be finite and at least 1 byte, "
                             f"got {capacity_bytes!r}")
        self.capacity_bytes = int(capacity_bytes)
        self.cost = cost or CostModel()
        self.resident: dict[int, _Entry] = {}
        self.used_bytes = 0
        self.clock = 0
        self.io_stats = QueryStats()
        self.trace = trace  # optional list collecting (tick, key, evicted keys) per miss

    def _evict(self, key):
        entry = self.resident.pop(key)
        self.used_bytes -= entry.size_bytes
        return entry


_HEAP_SLACK = 4  # rebuild the eviction heap once it holds this many entries per resident


def evict_lru(buffer: BufferState, _current_bucket=None):
    """Evict the resident bucket with the oldest last use (NS1 policy)."""
    if not buffer.resident:
        raise RuntimeError("cannot evict from an empty buffer")
    key = next(iter(buffer.resident))  # insertion order == recency order
    buffer._evict(key)
    return key


class _MmlshEvictor:
    """The MMLSH replacement policy for one replay on one buffer.

    A resident's `est_frequency` is its remaining demand: the profile's
    estimate on admission, less one per use, the admitting one included,
    never below 0.

    It reads a key's projection g, level R = c**t and bucket id off the
    index (`bucket`), and an admitted key's demand off the index's demand
    table for the profile (`_KeySpace.demand`), both built once per index
    and profile. `evict_mmlsh` wants the old residents in (demand,
    key) order, and a resident that is old at one eviction is old at every
    later one (see the module docstring). So each resident is in one of two
    places:

    young: (insert tick, key) in admission order, which is tick order, for
      the residents not yet old at the last eviction; entries of keys since
      evicted or re-admitted are skipped when they come up.
    heap: lazy min-heap of (est_frequency, key, insert_tick) with a live
      entry for every old resident. An entry is live while its key is
      resident with that tick and that frequency; stale ones are dropped
      when popped, and the heap is rebuilt from the old residents once it
      holds more than _HEAP_SLACK entries per resident.

    `age(b)` moves the young residents inserted before tick b into the heap,
    reading their demand then. So a use of a young resident pushes nothing,
    and a use that lowers an old one's demand pushes one fresh entry. Both
    structures are built from `buffer.resident` at the first eviction: the
    buffer may have served another strategy before, and a replay that never
    evicts builds nothing.
    """

    def __init__(self, profile: "FrequencyProfile", index):
        space = _key_space(index)
        self.c, self.L, self.K, self.occupied = space.c, space.L, space.K, space.occupied
        self.demand = space.demand(profile)
        self.resident: dict | None = None  # the buffer's, once the first eviction builds
        self.young: deque | None = None
        self.heap: list = []
        self.bound = -math.inf  # b at the last eviction

    def __call__(self, buffer, current_bucket):
        if self.young is None:
            self.resident = buffer.resident
            self.young = deque(sorted((e.insert_tick, key) for key, e in self.resident.items()))
        return evict_mmlsh(buffer, current_bucket, self)

    def bucket(self, key):
        """The (g, t, bucket id) that a key names (see `_Layout`)."""
        group, rank = divmod(key, self.K)
        g, t = divmod(group, self.L)
        return g, t, self.occupied[g][0].item(rank)

    def age(self, bound):
        """Move every young resident inserted before tick `bound` into the heap."""
        self.bound = bound
        young, resident, heap = self.young, self.resident, self.heap
        while young and young[0][0] < bound:
            tick, key = young.popleft()
            entry = resident.get(key)
            if entry is not None and entry.insert_tick == tick:  # not evicted or re-admitted
                heapq.heappush(heap, (entry.est_frequency, key, tick))

    def trim(self):
        if len(self.heap) > _HEAP_SLACK * len(self.resident):
            bound = self.bound
            self.heap = [(e.est_frequency, key, e.insert_tick)
                         for key, e in self.resident.items() if e.insert_tick < bound]
            heapq.heapify(self.heap)

    def admit(self, key, entry):
        group, rank = divmod(key, self.K)
        entry.est_frequency = self.demand.item(group // self.L, rank)
        if self.young is not None:
            self.young.append((entry.insert_tick, key))

    def use(self, key, entry, uses=1):
        """Count `uses` hits off a resident's demand.

        One subtraction equals `uses` clamped single decrements: a demand
        below 2**53 (see `FrequencyProfile`) loses each whole use exactly.
        """
        if entry.est_frequency != 0.0:  # 0 stays 0: nothing to push
            entry.est_frequency = max(0.0, entry.est_frequency - uses)
            if entry.insert_tick < self.bound:
                heapq.heappush(self.heap, (entry.est_frequency, key, entry.insert_tick))
                self.trim()


def evict_mmlsh(buffer: BufferState, current_bucket, policy: _MmlshEvictor):
    """Evict one resident by the three MMLSH criteria; returns its key.

    current_bucket is the key of the (projection, level R, bucket id) being
    fetched. Criterion 1 protects the residents inserted within the last
    len(resident) ticks, criterion 2 those within 2R bucket ids of it (a
    resident of another (projection, level) pass, whose key // K differs,
    is infinitely far); among the rest the lowest estimated frequency goes
    (criterion 3), ties broken by larger distance, then by lower key, that
    is by (projection, level, bucket id). When no resident passes both
    filters the distance filter is dropped first, then the recency filter.

    policy is the `_MmlshEvictor` over `buffer.resident`. Once it has aged
    its young residents to this eviction's bound, its heap holds every old
    resident, so the first two tiers are read off the heap alone: live
    entries are popped in (frequency, key) order up to the first one of
    another pass. No later resident of another pass can win, since those
    all share distance infinity; and at equal frequency that entry beats
    every current-pass resident, so a current-pass resident that beats it
    has a lower frequency and was popped before it. All popped entries but
    the victim's go back. A heap without a live entry means nothing is old;
    the last tier then takes the best of every resident.
    """
    resident = buffer.resident
    if not resident:
        raise RuntimeError("cannot evict from an empty buffer")
    K, (g, t, pos) = policy.K, policy.bucket(current_bucket)
    ids, current = policy.occupied[g][0], current_bucket // K  # its (g, R) pass
    policy.age(buffer.clock - len(resident))
    heap = policy.heap
    popped = []  # (frequency, -distance, key, insert tick) of the live entries popped
    while heap:
        freq, key, tick = heapq.heappop(heap)
        entry = resident.get(key)
        if entry is None or entry.insert_tick != tick or entry.est_frequency != freq:
            continue  # stale: evicted, re-inserted or its frequency dropped since
        if key // K != current:
            popped.append((freq, -math.inf, key, tick))
            break
        popped.append((freq, -abs(ids.item(key % K) - pos), key, tick))
    if popped:
        # far and old (tier 0) if any, else old (tier 1)
        victim = min([c for c in popped if -c[1] > 2 * policy.c ** t] or popped)[2]
        for freq, _neg_dist, key, tick in popped:
            if key != victim:
                heapq.heappush(heap, (freq, key, tick))
    else:  # nothing is old: the last tier, over every resident
        victim = min((e.est_frequency,
                      -abs(ids.item(key % K) - pos) if key // K == current else -math.inf,
                      key) for key, e in resident.items())[2]
    buffer._evict(victim)
    policy.trim()
    return victim


def access_bucket(key, size_bytes: int, buffer: BufferState, evict=evict_lru,
                  stats: QueryStats | None = None) -> tuple[bool, float]:
    """Pull one bucket through the buffer; returns (hit, modeled ms).

    Hits cost nothing. Misses call `evict(buffer, key)` until the bucket
    fits, then charge one seek plus the transfer time. Buckets larger than
    the whole buffer bypass it and pay full IO on every access. An MMLSH
    policy also hears of every resident use: `admit` on insert, `use` on a
    hit. The access and the evictions it causes are billed to
    `buffer.io_stats` and, when given, to the query's `stats`; a kept trace
    gets an entry for a miss.
    """
    buffer.clock += 1
    resident = buffer.resident
    entry = resident.pop(key, None)
    if entry is not None:
        resident[key] = entry  # reinsert: insertion order stays recency order
        if isinstance(evict, _MmlshEvictor):
            evict.use(key, entry)
        buffer.io_stats.buffer_hits += 1
        if stats is not None:
            stats.buffer_hits += 1
        return True, 0.0

    evicted = []
    if size_bytes <= buffer.capacity_bytes:  # larger buckets are never resident
        while buffer.used_bytes + size_bytes > buffer.capacity_bytes:
            evicted.append(evict(buffer, key))
        entry = resident[key] = _Entry(size_bytes, buffer.clock)
        buffer.used_bytes += size_bytes
        if isinstance(evict, _MmlshEvictor):
            evict.admit(key, entry)
    ms = buffer.cost.miss_ms(size_bytes)
    for record in (buffer.io_stats, stats):
        if record is not None:
            record.buffer_misses += 1
            record.bytes_read += size_bytes
            record.evictions += len(evicted)
            record.io_ms += ms
    if buffer.trace is not None:
        buffer.trace.append((buffer.clock, key, tuple(evicted)))
    return False, ms


def bill_hits(uses, buffer: BufferState, evict=evict_lru,
              stats: QueryStats | None = None) -> None:
    """Bill hits on resident buckets key by key; the clock is the caller's.

    `uses` holds (key, hit count) pairs in last-use order. Each key is
    reinserted once, in that order, an MMLSH policy hears a key's n > 0 hits
    in one `use`, and the hits are added to `buffer.io_stats` and, when
    given, to `stats`. With the clock moved past them, that is what
    `access_bucket` on each hit in turn does (see the module docstring),
    provided every key is resident, which is not checked.
    """
    resident = buffer.resident
    policy = evict if isinstance(evict, _MmlshEvictor) else None
    hits = 0
    for key, n in uses:
        entry = resident[key] = resident.pop(key)
        if n and policy is not None:
            policy.use(key, entry, n)
        hits += n
    buffer.io_stats.buffer_hits += hits
    if stats is not None:
        stats.buffer_hits += hits


@dataclass
class SchedulerConfig:
    """Strategy selection, MMLSH's query splits and the frequency profile it needs."""

    strategy: str = NS1
    query_splits: int = 10
    profile: "FrequencyProfile | None" = None

    def __post_init__(self):
        if self.strategy not in (NS1, NS2, MMLSH):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.query_splits < 1:
            raise ParameterError(f"query_splits must be >= 1, got {self.query_splits!r}")
        if self.query_splits >= 2 ** 63:  # split_queries cuts ranges in int64
            raise ParameterError(f"query_splits must be < 2**63, got {self.query_splits!r}")
        if self.strategy == MMLSH and self.profile is None:
            raise ValueError("MMLSH needs a frequency profile")


def schedule_ns2(plans, index):
    """NS2's batch: each distinct occupied bucket of each (R, g) pass, read once.

    plans[p] is plan p's list of (g, R, ranges) passes, as `split_queries`
    takes one. The (g, R) passes of every plan form one batched pass,
    whose rows are taken plan by plan, each plan's in plan order. The
    batched passes are read in ascending (R, g) order, and each reads the
    occupied buckets its rows cover once, ascending, each billed to the
    plan of the first row that covers it. Every row, empty or not, costs
    its plan one membership check per bucket its batched pass reads.
    Returns four lists: the keys in reading order, their sizes in bytes,
    the plan each key is billed to and each plan's checks.

    NS2 reads the layout `split_queries` reads (`_Layout`). A copy of a
    row covers nothing that the row before it did not cover first, so it
    owns nothing, and only the kept rows' keys are expanded. The layout
    keeps the rows of one (g, R) pass plan by plan, so one `np.unique`
    gives the keys, ascending by (g, R, bucket id), and, at each key's first
    occurrence, the row of the plan it is billed to. One stable argsort by
    level turns that into the reading order. The checks are counted from
    every row: each pass's length times the keys its (g, R) group, key // K,
    reads.
    """
    passes = [entry for plan in plans for entry in plan]
    alg_ops = np.zeros(len(plans), dtype=np.int64)
    if not passes:
        return [], [], [], alg_ops.tolist()
    layout = _Layout(passes, index)
    pass_plan = np.repeat(np.arange(len(plans)), list(map(len, plans)))
    key_lo, widths = layout.keys(layout.lo, layout.hi, layout.kept_pass)
    keys, first = np.unique(expand_ranges(key_lo, widths), return_index=True)
    owners = pass_plan[layout.kept_pass[np.searchsorted(np.cumsum(widths), first, side="right")]]
    group_keys = np.bincount(keys // layout.K, minlength=layout.pass_group.max() + 1)
    np.add.at(alg_ops, pass_plan, layout.lengths * group_keys[layout.pass_group])
    order = np.argsort(keys // layout.K % layout.L, kind="stable")  # (R, g, bucket id)
    return (keys[order].tolist(), layout.sizes(keys)[order].tolist(), owners[order].tolist(),
            alg_ops.tolist())


def fold_repeats(rows, passes):
    """The non-empty (qi, lo, hi) rows, each run of repeated rows folded into its first.

    A row is empty when hi <= lo; passes[r] is row r's pass. Among the
    non-empty rows, one whose pass and (lo, hi) equal the row before it is
    a copy of that row. Returns the index of each run's first row,
    ascending, and the run's length: the row's copies, itself included.
    """
    kept = np.flatnonzero(rows[:, 2] > rows[:, 1])
    lo, hi, kept_pass = rows[kept, 1], rows[kept, 2], passes[kept]
    new = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]) | (kept_pass[1:] != kept_pass[:-1])
    heads = np.flatnonzero(np.r_[len(kept) > 0, new])
    return kept[heads], np.diff(np.r_[heads, len(kept)])


def expand_ranges(starts, lengths):
    """The integers of each range [starts[r], starts[r] + lengths[r]), one range after another.

    lengths must be >= 0. Entry j of range r's stretch, which starts at
    ends[r] - lengths[r], is starts[r] plus that offset.
    """
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(lengths.sum())


@dataclass
class PlanOrder:
    """A plan's accesses in visiting order, grouped by key (see `split_queries`).

    keys holds the plan's distinct keys (see `_Layout`), ascending, in an
    int64 array, and sizes their sizes in bytes. Key k is accessed uses[k]
    times, first at access first[k] and last at access last[k], counting
    accesses from 0; `len` gives the number of accesses.
    The accesses are stored folded: the visited segments that hold an
    occupied bucket, in visiting order, segment s as its widths[s] keys
    visited in turn copies[s] times. `visits` holds each segment's keys
    once, as indices into keys, one segment after another.
    segments is the number of segments the plan's ranges were cut into,
    counting those that hold no occupied bucket and each copy of a
    repeated row's.
    """

    keys: np.ndarray
    sizes: list
    first: np.ndarray
    last: np.ndarray
    uses: np.ndarray
    visits: np.ndarray
    widths: np.ndarray
    copies: np.ndarray
    segments: int

    def __len__(self) -> int:
        return int(self.uses.sum())

    def accesses(self) -> np.ndarray:
        """Each access's key, as an index into `keys`, in visiting order."""
        starts = np.cumsum(self.widths) - self.widths  # each segment's place in `visits`
        return self.visits[expand_ranges(np.repeat(starts, self.copies),
                                         np.repeat(self.widths, self.copies))]


def split_queries(plan, splits: int, index) -> PlanOrder:
    """A plan's occupied buckets in visiting order: query ranges split and interleaved.

    plan is a list of (g, R, ranges) passes, where `ranges` is an int64
    array with one row (qi, lo, hi) per query index: the level-R buckets
    [lo, hi) of projection g that query point qi needs. Only the occupied
    buckets, `index.occupied_buckets(g)`, are accessed. A range of width
    w = hi - lo is cut into n = min(splits, w) contiguous segments that
    exactly tile it: its edges are lo plus the multiples of w / n, rounded
    as `np.round(np.linspace(0, w, n + 1))` rounds them, and hi. The passes
    are visited in plan order; within a pass the segments are visited by
    start position, ties by row, and each segment's buckets left to right,
    so one split gives NS1's order. A pass's rows are in query-index order,
    so ties at equal starts fall in query-index order.

    A run of repeated rows is ordered once. `fold_repeats` drops the empty
    rows and folds each run of consecutive copies within a pass into its
    first row. Two neighbouring copies are cut at the same starts, and in
    a tie at any of them no other row's segment falls between theirs, so
    visiting each ordered segment once per copy gives the unfolded plan's
    order. `segments` counts every copy.

    The fold runs through the ordering: only each segment's first copy is
    expanded into keys, and its copies are billed by arithmetic. A
    segment of width w with c copies whose first access is B reaches its
    j-th key first at B + j and last at B + (c - 1) * w + j, and gives it
    c uses; its copies are visited back to back, so a key's first access
    is that of its first segment and its last that of its last.

    The whole plan is ordered in one numpy pass over the layout that
    `schedule_ns2` reads too (`_Layout`). Its passes are laid out
    projection by projection, so one `searchsorted` per projection maps the
    segment bounds to keys; one stable lexsort on (pass, start) orders the
    segments; and one stable argsort of the first copies' keys groups them
    by key.
    """
    if splits < 1:
        raise ValueError("splits must be >= 1")
    none = np.empty(0, dtype=np.int64)
    layout = _Layout(plan, index) if plan else None
    if layout is None or not len(layout.lo):  # no segment, so no access
        return PlanOrder(none, [], none, none, none, none, none, none, 0)
    seg_pass, start, end, copies = layout.kept_pass, layout.lo, layout.hi, layout.copies
    if splits > 1:
        # segment j of n starts at lo + round(j * (width / n)), with np.linspace's float64
        # step and half-to-even rounding, and ends where j + 1 starts; the last ends at hi
        nseg = np.minimum(end - start, splits)
        seg_row = np.repeat(np.arange(len(start)), nseg)
        step = ((end - start) / nseg)[seg_row]
        cuts = start[seg_row] + np.round(expand_ranges(0, nseg) * step).astype(np.int64)
        seg_end = np.r_[cuts[1:], 0]
        seg_end[np.cumsum(nseg) - 1] = end
        seg_pass, start, end, copies = seg_pass[seg_row], cuts, seg_end, copies[seg_row]
    key_lo, widths = layout.keys(start, end, seg_pass)
    segments = int(copies.sum())
    # The visiting order: by pass, then start. A pass's segments lie in row order, which
    # is query-index order, and lexsort is stable, so ties fall in query-index order.
    order = np.lexsort((start, seg_pass))
    order = order[widths[order] > 0]  # the segments that hold an occupied bucket
    key_lo, widths, copies = key_lo[order], widths[order], copies[order]
    span = widths * copies  # the accesses of a segment's copies
    begin = np.cumsum(span) - span  # each segment's first access
    elements = expand_ranges(key_lo, widths)  # each segment's first copy
    by_key = np.argsort(elements, kind="stable")  # each key's elements together, in order
    grouped = elements[by_key]
    heads = np.flatnonzero(np.diff(grouped, prepend=-1))  # keys are >= 0
    counts = np.diff(np.r_[heads, len(grouped)])
    keys = grouped[heads]
    first = expand_ranges(begin, widths)[by_key[heads]]
    last = expand_ranges(begin + span - widths, widths)[by_key[heads + counts - 1]]
    uses = np.add.reduceat(np.repeat(copies, widths)[by_key], heads)
    visits = np.empty_like(by_key)
    visits[by_key] = np.repeat(np.arange(len(keys)), counts)
    return PlanOrder(keys, layout.sizes(keys).tolist(), first, last, uses, visits, widths, copies,
                     segments)


class _KeySpace:
    """What an index's buffer keys read (see `_Layout`), worked out once per index.

    c, L and K of the keys; `occupied`, every `occupied_buckets(g)`; and
    `sizes`, the (m, K) int64 table of each bucket's size in bytes, so
    `sizes[g, r]` is that of the bucket of rank r in projection g (0 past
    g's last rank). `demand(profile)` gives the MMLSH admission demands,
    one table per profile.
    """

    def __init__(self, index):
        self.c = c = index.params.c
        self.L = level_cap(c)
        self.occupied = [index.occupied_buckets(g) for g in range(index.m)]
        self.K = max(len(ids) for ids, _counts in self.occupied)
        self.sizes = np.zeros((index.m, self.K), dtype=np.int64)
        for row, (_ids, counts) in zip(self.sizes, self.occupied):
            row[:len(counts)] = POINT_ID_BYTES * counts
        self._demands = weakref.WeakKeyDictionary()

    def demand(self, profile: "FrequencyProfile") -> np.ndarray:
        """The float64 table of max(0, `profile.frequency(g, id)` - 1) by (g, rank of id).

        One row per projection that both the index and the profile have,
        with 0 past g's last rank; built on the first call for `profile`.
        """
        table = self._demands.get(profile)
        if table is None:
            table = np.zeros((min(len(self.occupied), len(profile.means)), self.K))
            for g, (row, (ids, _counts)) in enumerate(zip(table, self.occupied)):
                row[:len(ids)] = np.maximum(0.0, profile.frequency(g, ids) - 1.0)
            self._demands[profile] = table
        return table


_KEY_SPACES = weakref.WeakKeyDictionary()  # index -> its _KeySpace; an index never changes


def _key_space(index) -> _KeySpace:
    """The `_KeySpace` of `index`, built on the first call for it."""
    space = _KEY_SPACES.get(index)
    if space is None:
        space = _KEY_SPACES[index] = _KeySpace(index)
    return space


class _Layout:
    """A list of (g, R, rows) passes laid out once for both schedulers.

    A bucket's key is one int64, the same in every plan and every replay:
    (g * L + t) * K + r for the bucket of rank r among
    `index.occupied_buckets(g)` at level R = c**t, where L = `level_cap(c)`
    and K is the largest occupied-bucket count of any projection. So keys
    ascend as (g, R, bucket id) triples do, which is the order MMLSH breaks
    its ties in, and key // K numbers a key's (g, R) group. Keys stay in
    int64: m <= 1024, L <= 62 and K <= n < 2**31, so every key is below
    2**47.

    `pass_group` holds each pass's group g * L + t and `lengths` its row
    count. The rows are laid out projection by projection: a stable
    argsort of g puts the passes of one projection together, each pass's
    rows in order and the passes in list order. `fold_repeats` then keeps
    the first row of each run of repeated rows: `lo`, `hi`, `kept_pass` and
    `copies` hold each kept row's bounds, pass and run length, in layout
    order.
    """

    def __init__(self, passes, index):
        gs, Rs, arrays = zip(*passes)
        self.space = space = _key_space(index)
        self.L, self.K = space.L, space.K
        # c**t for every t < L fits int64 (see `level_cap`)
        self.pass_group = np.array(gs) * self.L + np.searchsorted(space.c ** np.arange(self.L), Rs)
        self.projections, self.g_rank = np.unique(gs, return_inverse=True)
        by_g = np.argsort(self.g_rank, kind="stable")  # the passes of one g run together
        self.lengths = lengths = np.fromiter(map(len, arrays), np.int64, len(arrays))
        rows = np.concatenate([arrays[p] for p in by_g.tolist()])
        row_pass = np.repeat(by_g, lengths[by_g])
        kept, self.copies = fold_repeats(rows, row_pass)
        self.lo, self.hi, self.kept_pass = rows[kept, 1], rows[kept, 2], row_pass[kept]
        self.occupied = [space.occupied[g] for g in self.projections.tolist()]

    def keys(self, start, end, seg_pass):
        """The key of the first occupied bucket of each [start, end), and their count.

        seg_pass[s] is bound s's pass; the bounds must run projection by
        projection, as the laid-out rows do, for one `searchsorted` per
        projection.
        """
        positions = np.stack((start, end))
        edges = self.g_rank[seg_pass].searchsorted(np.arange(len(self.occupied) + 1)).tolist()
        for (ids, _counts), a, b in zip(self.occupied, edges, edges[1:]):
            positions[:, a:b] = ids.searchsorted(positions[:, a:b])
        return positions[0] + self.pass_group[seg_pass] * self.K, positions[1] - positions[0]

    def sizes(self, keys):
        """The size in bytes of each key of `keys`, in an int64 array."""
        return self.space.sizes[keys // (self.L * self.K), keys % self.K]


class FrequencyProfile:
    """Per-projection regional estimate of bucket access frequencies.

    Built offline from the level-1 footprint of random point queries: each
    projection's occupied bucket span is cut into equal-width regions and
    every bucket inherits its region's mean access count. Means must be
    finite, >= 0 and below 2**53, and each projection's edges finite and
    non-decreasing, with ceilings that fit int64: a NaN demand would never
    compare equal to itself in the eviction heap, and below 2**53 a demand
    loses each use exactly however many uses are billed at once
    (`_MmlshEvictor.use`). `region_of` puts bucket s in region r when
    ceil(edges[r]) <= s < ceil(edges[r + 1]), in integers, as
    `build_frequency_profile` counts it.
    """

    def __init__(self, edges: np.ndarray, means: np.ndarray):
        if (edges.ndim != 2 or means.ndim != 2 or edges.shape[0] != means.shape[0]
                or edges.shape[1] != means.shape[1] + 1):
            raise ValueError("edges must have one more column than means")
        if not (np.isfinite(means).all() and (means >= 0).all() and (means < 2.0**53).all()):
            raise ValueError("means must be finite and >= 0, and below 2**53")
        cuts = np.ceil(edges)
        if not (np.isfinite(edges).all() and (np.diff(edges, axis=1) >= 0).all()
                and (cuts >= -2.0**63).all() and (cuts < 2.0**63).all()):
            raise ValueError("edges must be finite and non-decreasing in each row, "
                             "with ceilings that fit int64")
        self.edges = edges
        self.means = means
        self.regions = means.shape[1]
        self.cuts = cuts.astype(np.int64)  # integer cuts: exact beyond 2**53

    def region_of(self, g: int, buckets):
        """The region of projection g that holds each bucket id of `buckets`, an int or an array."""
        return np.clip(self.cuts[g].searchsorted(buckets, side="right") - 1, 0, self.regions - 1)

    def frequency(self, g: int, buckets):
        """The mean of the region of each bucket id of `buckets` (see `region_of`)."""
        return self.means[g, self.region_of(g, buckets)]

    def save(self, path):
        """Write the profile to `path` itself: `np.savez` given a name would append .npz."""
        with replacing(path) as fh:
            np.savez(fh, edges=self.edges, means=self.means)

    @classmethod
    def load(cls, path):
        """Read a saved profile; a file that is not one raises ProfileFileError."""
        try:
            with np.load(path) as data:
                return cls(edges=data["edges"], means=data["means"])
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
            raise ProfileFileError(f"{path}: not a frequency profile ({exc})") from exc


def profile_footprint(index, dataset, num_queries: int, seed: int) -> np.ndarray:
    """Level-1 base buckets hit by random point queries, shape (num, m).

    Queries are sampled uniformly from the dataset's coordinate bounding box.
    """
    rng = np.random.default_rng(seed)
    # the float32 extremes, widened, are those of the widened coordinates, which are not copied
    lo = dataset.coords.min(axis=0).astype(np.float64)
    hi = dataset.coords.max(axis=0).astype(np.float64)
    queries = rng.uniform(lo, hi, size=(num_queries, dataset.dimension))
    return index.hash_query(queries)


def build_frequency_profile(index, dataset, num_queries: int = 1000,
                            regions_per_projection: int = 10, seed: int = 0) -> FrequencyProfile:
    """Estimate per-region bucket frequencies from random profiling queries.

    The mean for a region is total landings in the region divided by the
    number of integer bucket slots the region spans; landings outside the
    occupied bucket range of a projection are ignored. Integer slot s lies
    in region r when edges[r] <= s < edges[r + 1], that is, when
    ceil(edges[r]) <= s < ceil(edges[r + 1]); so both counts come from the
    region bounds alone, and nothing is sized by the bucket span.
    """
    if regions_per_projection < 1:
        raise ValueError("need at least one region")
    landings = np.sort(profile_footprint(index, dataset, num_queries, seed).T, axis=1)
    m = index.m
    edges = np.empty((m, regions_per_projection + 1))
    means = np.zeros((m, regions_per_projection))
    for g in range(m):
        lo, hi = int(index.bucket_lo[g]), int(index.bucket_hi[g])
        edges[g] = np.linspace(lo, hi + 1, regions_per_projection + 1)
        cuts = np.ceil(edges[g]).astype(np.int64)
        totals = np.diff(np.searchsorted(landings[g], cuts))
        width = np.diff(cuts)
        nonzero = width > 0
        means[g, nonzero] = totals[nonzero] / width[nonzero]
    return FrequencyProfile(edges=edges, means=means)
