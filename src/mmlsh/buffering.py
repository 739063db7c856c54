"""Buffer-conscious query scheduling over a deterministic modeled disk.

Three strategies decide the order in which a level's hash buckets are pulled
through a fixed-capacity buffer and which resident bucket to evict on a miss:

* NS1 — query points execute left to right by bucket position, LRU eviction.
* NS2 — each distinct useful bucket is read once and serves every query that
  needs it (minimal IO, extra per-bucket matching work).
* MMLSH — NS1-style ordering refined by query splitting (each query's bucket
  range is cut into segments that are interleaved globally by position) and a
  three-criteria eviction rule: prefer residents that were not inserted very
  recently, that sit far from the current query position, and among those the
  one with the lowest estimated remaining frequency.

All IO is modeled, never measured: a miss costs one seek plus size/rate read
time. Ticks advance once per access, so a recorded trace replays exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

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
class IoStats:
    seeks: int = 0
    bytes_read: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    evictions: int = 0
    io_ms: float = 0.0


class _Entry:
    __slots__ = ("size_bytes", "insert_tick", "last_use_tick", "est_frequency")

    def __init__(self, size_bytes, insert_tick, est_frequency):
        self.size_bytes = size_bytes
        self.insert_tick = insert_tick
        self.last_use_tick = insert_tick
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
        self.io_stats = IoStats()
        self.trace = trace  # optional list collecting (tick, key, hit, evicted)

    def __contains__(self, key):
        return key in self.resident

    def _evict(self, key):
        entry = self.resident.pop(key)
        self.used_bytes -= entry.size_bytes
        self.io_stats.evictions += 1
        return entry

    def note_use(self, key):
        """Decrement the remaining-demand estimate after a scheduled use."""
        entry = self.resident.get(key)
        if entry is not None:
            entry.est_frequency = max(0.0, entry.est_frequency - 1.0)


def evict_lru(buffer: BufferState):
    """Evict the resident bucket with the oldest last use (NS1 policy)."""
    if not buffer.resident:
        raise RuntimeError("cannot evict from an empty buffer")
    key = next(iter(buffer.resident))  # insertion order == recency order
    buffer._evict(key)
    return key


def evict_mmlsh(buffer: BufferState, current_bucket, config: "SchedulerConfig",
                profile: "FrequencyProfile | None" = None):
    """Three-criteria eviction for the MMLSH strategy.

    current_bucket is the (projection, level, bucket id) being fetched.
    Residents inserted within the recency window are protected (criterion 1)
    and residents near the current query position are protected (criterion 2);
    among the rest the lowest estimated frequency goes (criterion 3), ties
    broken by larger distance from the query, then by lower key. When no
    resident passes both filters the distance filter is dropped first, then
    the recency filter, so eviction always succeeds.
    """
    if not buffer.resident:
        raise RuntimeError("cannot evict from an empty buffer")
    g, level, pos = current_bucket
    window = config.recency_window if config.recency_window is not None else len(buffer.resident)
    threshold = config.distance_threshold if config.distance_threshold is not None else 2 * level
    now = buffer.clock

    def distance(key):
        kg, klevel, kbucket = key
        if kg != g or klevel != level:
            return math.inf  # other passes: maximally far from the current query
        return abs(kbucket - pos)

    best = [None, None, None]  # per relaxation tier: (freq, -dist, key)
    for key, entry in buffer.resident.items():
        cand = (entry.est_frequency, -distance(key), key)
        old = now - entry.insert_tick > window
        far = distance(key) > threshold
        tiers = (old and far, old, True)
        for tier, ok in enumerate(tiers):
            if ok and (best[tier] is None or cand < best[tier]):
                best[tier] = cand
    chosen = next(b for b in best if b is not None)
    key = chosen[2]
    buffer._evict(key)
    return key


def access_bucket(key, size_bytes: int, buffer: BufferState, evict=evict_lru) -> tuple[bool, float]:
    """Pull one bucket through the buffer; returns (hit, modeled ms).

    Hits cost nothing. Misses evict under the supplied policy until the bucket
    fits, then charge one seek plus the transfer time. Buckets larger than the
    whole buffer bypass it and pay full IO on every access.
    """
    buffer.clock += 1
    cost = buffer.cost
    if size_bytes > buffer.capacity_bytes:
        ms = cost.miss_ms(size_bytes)
        buffer.io_stats.buffer_misses += 1
        buffer.io_stats.seeks += 1
        buffer.io_stats.bytes_read += size_bytes
        buffer.io_stats.io_ms += ms
        if buffer.trace is not None:
            buffer.trace.append((buffer.clock, key, "miss", None))
        return False, ms

    entry = buffer.resident.get(key)
    if entry is not None:
        entry.last_use_tick = buffer.clock
        # refresh recency order for LRU
        buffer.resident.pop(key)
        buffer.resident[key] = entry
        buffer.io_stats.buffer_hits += 1
        if buffer.trace is not None:
            buffer.trace.append((buffer.clock, key, "hit", None))
        return True, 0.0

    evicted = []
    while buffer.used_bytes + size_bytes > buffer.capacity_bytes:
        evicted.append(evict(buffer))
    est = 1.0
    if isinstance(evict, _MmlshEvictor) and evict.profile is not None:
        est = evict.profile.frequency(key[0], key[2])
    buffer.resident[key] = _Entry(size_bytes, buffer.clock, est)
    buffer.used_bytes += size_bytes
    ms = cost.miss_ms(size_bytes)
    buffer.io_stats.buffer_misses += 1
    buffer.io_stats.seeks += 1
    buffer.io_stats.bytes_read += size_bytes
    buffer.io_stats.io_ms += ms
    if buffer.trace is not None:
        buffer.trace.append((buffer.clock, key, "miss", tuple(evicted) or None))
    return False, ms


class _MmlshEvictor:
    """Binds the MMLSH eviction rule to the bucket currently being fetched."""

    def __init__(self, config, profile):
        self.config = config
        self.profile = profile
        self.current_bucket = None

    def __call__(self, buffer):
        return evict_mmlsh(buffer, self.current_bucket, self.config, self.profile)


@dataclass
class SchedulerConfig:
    """Strategy selection plus the MMLSH knobs.

    recency_window / distance_threshold of None mean the documented defaults:
    the resident bucket count and twice the per-query bucket span (2R).
    """

    strategy: str = NS1
    query_splits: int = 10
    recency_window: int | None = None
    distance_threshold: int | None = None
    profile: "FrequencyProfile | None" = None

    def __post_init__(self):
        if self.strategy not in (NS1, NS2, MMLSH):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.query_splits < 1:
            raise ValueError("query_splits must be >= 1")


def schedule_ns1(ranges):
    """Order whole query ranges left to right; ties keep query order.

    ranges is a list of (query_index, lo, hi) bucket intervals.
    """
    return sorted(ranges, key=lambda r: (r[1], r[0]))


def schedule_ns2(ranges):
    """Distinct useful buckets in ascending order, each with its consumers."""
    need = {}
    for qi, lo, hi in ranges:
        for bucket in range(lo, hi):
            need.setdefault(bucket, []).append(qi)
    return [(bucket, need[bucket]) for bucket in sorted(need)]


def split_queries(ranges, splits: int):
    """Cut each query range into contiguous segments, interleaved by position.

    Returns (query_index, seg_lo, seg_hi) triples sorted by segment start
    (ties by query index, then segment order). Segments of one query exactly
    tile its original range; more splits than buckets degenerates to one
    segment per bucket.
    """
    if splits < 1:
        raise ValueError("splits must be >= 1")
    segments = []
    for qi, lo, hi in ranges:
        width = hi - lo
        if width <= 0:
            continue
        offsets = _split_offsets(width, splits)
        segments.extend((qi, lo + a, lo + b) for a, b in zip(offsets, offsets[1:]))
    segments.sort(key=itemgetter(1, 0, 2))
    return segments


@lru_cache(maxsize=256)
def _split_offsets(width: int, splits: int) -> tuple:
    """Segment edges of a width-`width` range relative to its start.

    A plan's ranges within one pass share the width R, so each
    (width, splits) pair is computed once.
    """
    nseg = min(splits, width)
    return tuple(np.round(np.linspace(0, width, nseg + 1)).astype(int).tolist())


class FrequencyProfile:
    """Per-projection regional estimate of bucket access frequencies.

    Built offline from the level-1 footprint of random point queries: each
    projection's occupied bucket span is cut into equal-width regions and
    every bucket inherits its region's mean access count.
    """

    def __init__(self, edges: np.ndarray, means: np.ndarray):
        if edges.shape[0] != means.shape[0] or edges.shape[1] != means.shape[1] + 1:
            raise ValueError("edges must have one more column than means")
        self.edges = edges
        self.means = means
        self.regions = means.shape[1]

    def region_of(self, g: int, bucket: int) -> int:
        r = int(np.searchsorted(self.edges[g], bucket, side="right")) - 1
        return min(max(r, 0), self.regions - 1)

    def frequency(self, g: int, bucket: int) -> float:
        return float(self.means[g, self.region_of(g, bucket)])

    def save(self, path):
        np.savez(path, edges=self.edges, means=self.means)

    @classmethod
    def load(cls, path):
        data = np.load(path)
        return cls(edges=data["edges"], means=data["means"])


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


def write_trace(trace, path) -> None:
    """Dump a recorded access trace as `tick,projection,level,bucket,hit|miss,evicted`."""
    with open(path, "w") as fh:
        for tick, key, outcome, evicted in trace:
            ev = "" if not evicted else ";".join(f"{k[0]}:{k[1]}:{k[2]}" for k in evicted)
            fh.write(f"{tick},{key[0]},{key[1]},{key[2]},{outcome},{ev}\n")
