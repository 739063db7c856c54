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

All IO is modeled, never measured: a miss costs one seek plus size/rate read
time. Ticks advance once per access, so a recorded trace replays exactly.
Every access, and the evictions a miss causes, is billed once: to the
buffer's `io_stats` and to the `QueryStats` of the query it serves.
`access_bucket` bills one access. `bill_hits` bills a run of hits at once,
with the result of one `access_bucket` call per hit. Hits admit and evict
nothing, so a run changes only the clock, the hit counts, the recency order
and the MMLSH demands:

* reinserting each key once, in last-use order, leaves the recency order
  that reinserting it at every hit leaves;
* a demand d below 2**53 loses each use exactly, so u clamped single
  decrements equal max(0, d - u);
* an old resident's heap entries from all but its last hit would be stale,
  and a stale entry never picks a victim, so one entry per key suffices.
"""

from __future__ import annotations

import heapq
import math
import zipfile
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ProfileFileError
from .lsh import replacing

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
        if self.seek_ms <= 0 or self.read_rate_mb_per_ms <= 0:
            raise ValueError("cost model constants must be positive")

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

    Keys are (projection, level, base bucket id) triples; each level's buckets
    are distinct cacheable units. The resident dict preserves insertion order,
    which doubles as the LRU order because every hit reinserts its key.
    """

    def __init__(self, capacity_bytes: int, cost: CostModel | None = None, trace=None):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.cost = cost or CostModel()
        self.resident: dict[tuple, _Entry] = {}
        self.used_bytes = 0
        self.clock = 0
        self.io_stats = QueryStats()
        self.trace = trace  # optional list collecting (tick, key, hit, evicted)

    def __contains__(self, key):
        return key in self.resident

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

    `evict_mmlsh` wants the old residents in (demand, key) order, and a
    resident that is old at one eviction is old at every later one (see the
    module docstring). So each resident is in one of two places:

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

    def __init__(self, profile: "FrequencyProfile"):
        self.profile = profile
        self.resident: dict | None = None  # the buffer's, once the first eviction builds
        self.young: deque | None = None
        self.heap: list = []
        self.bound = -math.inf  # b at the last eviction

    def __call__(self, buffer, current_bucket):
        if self.young is None:
            self.resident = buffer.resident
            self.young = deque(sorted((e.insert_tick, key) for key, e in self.resident.items()))
        return evict_mmlsh(buffer, current_bucket, self)

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
        entry.est_frequency = max(0.0, self.profile.frequency(key[0], key[2]) - 1.0)
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

    current_bucket is the (projection, level R, bucket id) being fetched.
    Criterion 1 protects the residents inserted within the last
    len(resident) ticks, criterion 2 those within 2R buckets of it (a
    resident of another (projection, level) pass is infinitely far); among
    the rest the lowest estimated frequency goes (criterion 3), ties broken
    by larger distance, then by lower key. When no resident passes both
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
    g, level, pos = current_bucket
    policy.age(buffer.clock - len(resident))
    heap = policy.heap
    popped = []  # (frequency, -distance, key, insert tick) of the live entries popped
    while heap:
        freq, key, tick = heapq.heappop(heap)
        entry = resident.get(key)
        if entry is None or entry.insert_tick != tick or entry.est_frequency != freq:
            continue  # stale: evicted, re-inserted or its frequency dropped since
        if key[0] != g or key[1] != level:
            popped.append((freq, -math.inf, key, tick))
            break
        popped.append((freq, -abs(key[2] - pos), key, tick))
    if popped:
        # far and old (tier 0) if any, else old (tier 1)
        victim = min([c for c in popped if -c[1] > 2 * level] or popped)[2]
        for freq, _neg_dist, key, tick in popped:
            if key != victim:
                heapq.heappush(heap, (freq, key, tick))
    else:  # nothing is old: the last tier, over every resident
        victim = min((e.est_frequency,
                      -abs(key[2] - pos) if key[0] == g and key[1] == level else -math.inf,
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
    `buffer.io_stats` and, when given, to the query's `stats`.
    """
    buffer.clock += 1
    resident = buffer.resident
    entry = resident.pop(key, None)
    hit = entry is not None
    evicted = []
    if hit:
        resident[key] = entry  # reinsert: insertion order stays recency order
    elif size_bytes <= buffer.capacity_bytes:  # larger buckets are never resident
        while buffer.used_bytes + size_bytes > buffer.capacity_bytes:
            evicted.append(evict(buffer, key))
        entry = resident[key] = _Entry(size_bytes, buffer.clock)
        buffer.used_bytes += size_bytes
    if entry is not None and isinstance(evict, _MmlshEvictor):
        (evict.use if hit else evict.admit)(key, entry)
    if hit:
        buffer.io_stats.buffer_hits += 1
        if stats is not None:
            stats.buffer_hits += 1
        if buffer.trace is not None:
            buffer.trace.append((buffer.clock, key, "hit", None))
        return True, 0.0

    ms = buffer.cost.miss_ms(size_bytes)
    for record in (buffer.io_stats, stats):
        if record is not None:
            record.buffer_misses += 1
            record.bytes_read += size_bytes
            record.evictions += len(evicted)
            record.io_ms += ms
    if buffer.trace is not None:
        buffer.trace.append((buffer.clock, key, "miss", tuple(evicted) or None))
    return False, ms


def bill_hits(run, keys, buffer: BufferState, evict=evict_lru,
              stats: QueryStats | None = None) -> None:
    """Bill a run of accesses to resident buckets in one step.

    `run` holds the accesses in order as tokens, and `keys` maps each token
    to its bucket's key (the replay's tokens are positions into a pass's
    occupied ids, which hash faster than key tuples). The call does what
    `access_bucket` on each access in turn does when every bucket is
    resident; that is not checked. A hit neither admits nor evicts, so the
    run adds one tick and one hit per access, moves each key to the recency
    end once, in last-use order, and tells an MMLSH policy each key's uses
    at once. A kept trace gets one tuple per access.
    """
    tick = buffer.clock
    count = len(run)
    buffer.clock = tick + count
    buffer.io_stats.buffer_hits += count
    if stats is not None:
        stats.buffer_hits += count
    if buffer.trace is not None:
        buffer.trace.extend((t, keys[a], "hit", None) for t, a in enumerate(run, tick + 1))
    resident = buffer.resident
    if isinstance(evict, _MmlshEvictor):
        uses = {}
        for a in run:  # in last-use order, with each token's use count
            uses[a] = uses.pop(a, 0) + 1
        for a, n in uses.items():
            key = keys[a]
            entry = resident[key] = resident.pop(key)
            evict.use(key, entry, n)
    else:
        for a in reversed(dict.fromkeys(reversed(run))):  # in last-use order
            key = keys[a]
            resident[key] = resident.pop(key)


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
            raise ValueError("query_splits must be >= 1")
        if self.strategy == MMLSH and self.profile is None:
            raise ValueError("MMLSH needs a frequency profile")


def schedule_ns2(ranges):
    """Distinct useful buckets in ascending order, each with its first consumer.

    ranges is a (k, 3) int64 array of rows (qi, lo, hi), each the buckets
    [lo, hi) that query qi needs; a row with hi <= lo needs none. Returns
    two int64 arrays: the distinct buckets the rows cover, ascending, and
    for each the qi of the first row, in row order, that covers it. The
    rows expand into one array of buckets in row order, so a bucket's first
    occurrence there, which `np.unique` returns, lies in its first row.
    """
    lo, hi = ranges[:, 1], ranges[:, 2]
    widths = np.maximum(hi - lo, 0)
    ends = np.cumsum(widths)
    # entry j of row r's stretch, which starts at ends[r] - widths[r], is bucket lo[r] + that offset
    expanded = np.repeat(lo - (ends - widths), widths) + np.arange(widths.sum())
    buckets, first = np.unique(expanded, return_index=True)
    return buckets, ranges[np.searchsorted(ends, first, side="right"), 0]


def split_queries(ranges, splits: int, ids):
    """A pass's occupied buckets in visiting order: query ranges split and interleaved.

    ranges is a pass's (query_index, lo, hi) bucket intervals, one per
    query index; ids is the pass's occupied bucket ids in ascending order.
    Each range is cut into min(splits, hi - lo) contiguous segments that
    exactly tile it (`_split_offsets`); the segments of all ranges are
    visited by start position, ties by query index, and each segment's
    buckets left to right, so one split gives NS1's order. Each segment is
    keyed once, by (start, query index, i0, i1) with ids[i0:i1] its
    occupied buckets; when no range is wider than `splits`, every segment
    is one bucket and the positions themselves are the keys. Returns
    (order, segments): positions into ids in visiting order, and the number
    of segments cut, empty ones included.
    """
    if splits < 1:
        raise ValueError("splits must be >= 1")
    order = []
    segments = 0
    for _qi, lo, hi in ranges:
        width = hi - lo
        if width > splits:
            break
        if width > 0:
            segments += width
            i0 = bisect_left(ids, lo)
            order += range(i0, bisect_left(ids, hi, i0))
    else:  # ids ascend, so start order is position order; ties repeat one position
        order.sort()
        return order, segments
    keyed = []
    cuts = {}  # width -> its segments, looked up once per distinct width
    for qi, lo, hi in ranges:
        width = hi - lo
        if width > 0:
            pairs = cuts.get(width)
            if pairs is None:
                pairs = cuts[width] = _split_offsets(width, splits)
            i0 = bisect_left(ids, lo)
            for start, end in pairs:
                i1 = bisect_left(ids, lo + end, i0)
                keyed.append((lo + start, qi, i0, i1))
                i0 = i1
    keyed.sort()
    order = []
    for _start, _qi, i0, i1 in keyed:
        order += range(i0, i1)
    return order, len(keyed)


@lru_cache(maxsize=256)
def _split_offsets(width: int, splits: int) -> tuple:
    """(start, end) of each segment of a width-`width` range, relative to its start.

    A plan's ranges within one pass share the width R, so each
    (width, splits) pair is computed once.
    """
    nseg = min(splits, width)
    edges = np.round(np.linspace(0, width, nseg + 1)).astype(int).tolist()
    return tuple(zip(edges, edges[1:]))


class FrequencyProfile:
    """Per-projection regional estimate of bucket access frequencies.

    Built offline from the level-1 footprint of random point queries: each
    projection's occupied bucket span is cut into equal-width regions and
    every bucket inherits its region's mean access count. Means must be
    finite, >= 0 and below 2**53, and each projection's edges finite and
    non-decreasing: a NaN demand would never compare equal to itself in the
    eviction heap, and below 2**53 a demand loses each use exactly however
    many uses are billed at once (`_MmlshEvictor.use`).
    """

    def __init__(self, edges: np.ndarray, means: np.ndarray):
        if (edges.ndim != 2 or means.ndim != 2 or edges.shape[0] != means.shape[0]
                or edges.shape[1] != means.shape[1] + 1):
            raise ValueError("edges must have one more column than means")
        if not (np.isfinite(means).all() and (means >= 0).all() and (means < 2.0**53).all()):
            raise ValueError("means must be finite and >= 0, and below 2**53")
        if not (np.isfinite(edges).all() and (np.diff(edges, axis=1) >= 0).all()):
            raise ValueError("edges must be finite and non-decreasing in each row")
        self.edges = edges
        self.means = means
        self.regions = means.shape[1]
        # per-projection Python lists: one lookup per MMLSH miss, no numpy call
        self._edge_lists = edges.tolist()
        self._mean_lists = means.tolist()

    def region_of(self, g: int, bucket: int) -> int:
        # float(bucket) rounds as numpy's float64 conversion does, so this
        # equals searchsorted(edges[g], bucket, side="right") - 1
        r = bisect_right(self._edge_lists[g], float(bucket)) - 1
        return min(max(r, 0), self.regions - 1)

    def frequency(self, g: int, bucket: int) -> float:
        return self._mean_lists[g][self.region_of(g, bucket)]

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
    coords = dataset.coords.astype(np.float64)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
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
