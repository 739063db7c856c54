import copy
import math
from bisect import bisect_left, bisect_right
from collections import Counter, OrderedDict
from operator import itemgetter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmlsh
from mmlsh import bench, buffering
from mmlsh.buffering import (_HEAP_SLACK, MMLSH, NS1, NS2, POINT_ID_BYTES, BufferState,
                             CostModel, FrequencyProfile, QueryStats, SchedulerConfig, _Entry,
                             _MmlshEvictor, access_bucket, build_frequency_profile, evict_lru,
                             profile_footprint, schedule_ns2, split_queries)
from mmlsh.errors import ParameterError
from mmlsh.lsh import MAX_PROJECTIONS, level_cap


def schedule_ns1(ranges):
    """Oracle: NS1 orders whole query ranges left to right; ties keep query order.

    ranges is a list of (query_index, lo, hi) bucket intervals.
    """
    return sorted(ranges, key=lambda r: (r[1], r[0]))


def uniform_profile(projections):
    """A profile that seeds every bucket's demand with 1, so admission leaves 0."""
    return FrequencyProfile(edges=np.array([[0.0, 1.0]] * projections),
                            means=np.ones((projections, 1)))


# What may follow a row: its copy; an empty row, then its copy; or a row of its start and
# another end, then its copy. The copy folds into the row in the first two cases only.
FOLD_CASES = {"repeat": lambda lo, hi: [],
              "repeat past an empty row": lambda lo, hi: [(lo, lo)],
              "repeat past the same start": lambda lo, hi: [(lo, hi + 1)]}


def splice_repeats(pairs):
    """(qi, lo, hi) rows, qi the row number, of ((lo, hi), case) pairs.

    Each row is followed by the rows its case of FOLD_CASES puts between it
    and its copy, then the copy, or by nothing when the case is None.
    """
    bounds = []
    for (lo, hi), case in pairs:
        bounds.append((lo, hi))
        if case is not None:
            bounds += FOLD_CASES[case](lo, hi) + [(lo, hi)]
    return [(qi, lo, hi) for qi, (lo, hi) in enumerate(bounds)]


def fold_cases(rows):
    """The non-empty rows among (qi, lo, hi) `rows` that are each case of FOLD_CASES."""
    bounds = [(lo, hi) for _qi, lo, hi in rows]
    seen = Counter()
    for i, (lo, hi) in enumerate(bounds):
        if hi > lo and bounds[i - 1:i] == [(lo, hi)]:
            seen["repeat"] += 1
        elif hi > lo and i > 1 and bounds[i - 2] == (lo, hi):
            mid_lo, mid_hi = bounds[i - 1]
            seen["repeat past an empty row"] += mid_hi <= mid_lo
            seen["repeat past the same start"] += mid_lo == lo < mid_hi != hi
    return seen


class ReferenceLru:
    """Independent byte-capacity LRU used as an oracle for BufferState."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.used = 0

    def access(self, key, size):
        if size > self.capacity:
            return False
        if key in self.entries:
            self.entries.move_to_end(key)
            return True
        while self.used + size > self.capacity:
            _, old = self.entries.popitem(last=False)
            self.used -= old
        self.entries[key] = size
        self.used += size
        return False


class OccupiedIndex:
    """Stands in for an LshIndex in a replay: c, m and each projection's occupied ids and counts."""

    def __init__(self, occupied, c=2):
        self.occupied = occupied  # projection 0..m-1 -> (ascending ids, entry counts)
        self.m = len(occupied)
        self.params = SimpleNamespace(c=c)

    def occupied_buckets(self, g):
        ids, counts = self.occupied[g]
        return np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64)


class BufferKeys:
    """Oracle: an index's buffer keys, from `occupied_buckets` alone.

    The key of bucket id b of projection g at level R = c**t is
    (g * L + t) * K + r, with L = `level_cap(c)`, K the largest
    occupied-bucket count of any projection and r the rank of b among g's
    occupied ids.
    """

    def __init__(self, index):
        self.c, self.levels = index.params.c, level_cap(index.params.c)
        self.ids = [index.occupied_buckets(g)[0].tolist() for g in range(index.m)]
        self.rank = [{b: r for r, b in enumerate(ids)} for ids in self.ids]
        self.ranks = max(map(len, self.ids))

    def key(self, g, R, bucket):
        t = [self.c ** t for t in range(self.levels)].index(R)
        return (g * self.levels + t) * self.ranks + self.rank[g][bucket]

    def decode(self, key):
        """The (g, R, bucket id) of a key."""
        group, r = divmod(key, self.ranks)
        g, t = divmod(group, self.levels)
        return g, self.c ** t, self.ids[g][r]


class TestCostModel:
    def test_default_miss_arithmetic(self):
        cost = CostModel()
        # 0.312 MB at 0.156 MB/ms is 2 ms of transfer on top of one 8.5 ms seek
        assert cost.miss_ms(312_000) == pytest.approx(10.5)
        assert cost.read_ms(156_000) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostModel(seek_ms=0.0)

    def test_rejects_a_nan_constant(self):
        # NaN passes a `<= 0` check and would make every io_ms NaN
        with pytest.raises(ValueError, match="finite"):
            CostModel(seek_ms=math.nan)


class TestLruBuffer:
    def test_rejects_a_capacity_below_one_byte(self):
        # 0.5 passes a positive check, then truncates to a 0-byte buffer
        with pytest.raises(ValueError, match="at least 1 byte"):
            BufferState(0.5)

    def test_rejects_an_infinite_capacity(self):
        # int(inf) would raise OverflowError
        with pytest.raises(ValueError, match="finite"):
            BufferState(math.inf)
        assert BufferState(2**1100).capacity_bytes == 2**1100  # finite, past float range

    def test_hit_miss_evict_triple(self):
        buf = BufferState(capacity_bytes=100)
        assert access_bucket(("a",), 60, buf)[0] is False
        assert access_bucket(("a",), 60, buf)[0] is True
        assert access_bucket(("b",), 60, buf)[0] is False  # evicts a
        assert ("a",) not in buf.resident
        assert access_bucket(("a",), 60, buf)[0] is False

    def test_hit_refreshes_recency(self):
        buf = BufferState(capacity_bytes=100)
        access_bucket(("a",), 40, buf)
        access_bucket(("b",), 40, buf)
        access_bucket(("a",), 40, buf)  # a becomes most recent
        access_bucket(("c",), 40, buf)  # must evict b, not a
        assert ("a",) in buf.resident and ("b",) not in buf.resident

    def test_access_billed_to_buffer_and_query(self):
        buf = BufferState(capacity_bytes=100)
        first, second = QueryStats(), QueryStats()
        access_bucket(("a",), 60, buf, stats=first)
        access_bucket(("a",), 60, buf, stats=second)
        access_bucket(("b",), 60, buf, stats=second)  # evicts a
        access_bucket(("big",), 500, buf)             # bypasses, billed to the buffer only
        miss = buf.cost.miss_ms(60)
        assert first == QueryStats(buffer_misses=1, bytes_read=60, io_ms=miss)
        assert second == QueryStats(buffer_hits=1, buffer_misses=1, bytes_read=60,
                                    evictions=1, io_ms=miss)
        assert buf.io_stats == QueryStats(buffer_hits=1, buffer_misses=3, bytes_read=620,
                                          evictions=1, io_ms=miss + miss + buf.cost.miss_ms(500))
        assert buf.io_stats.total_ms == buf.io_stats.io_ms

    def test_oversized_bucket_bypasses(self):
        buf = BufferState(capacity_bytes=100)
        hit, ms = access_bucket(("big",), 500, buf)
        assert hit is False and ms == buf.cost.miss_ms(500)
        assert ("big",) not in buf.resident and buf.used_bytes == 0

    def test_matches_reference_lru_on_random_trace(self):
        rng = np.random.default_rng(17)
        buf = BufferState(capacity_bytes=1000)
        ref = ReferenceLru(1000)
        keys = [(int(k),) for k in rng.integers(0, 30, size=2000)]
        sizes = {k: int(50 + 40 * (k[0] % 7)) for k in set(keys)}
        for key in keys:
            hit, _ = access_bucket(key, sizes[key], buf, evict_lru)
            assert hit == ref.access(key, sizes[key])
        assert buf.used_bytes == ref.used

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_lru_stack_property(self, data):
        """A hit at capacity C is a hit at every larger C while no bucket bypasses the smaller.

        LRU keeps, per capacity, the longest run of most recently used keys
        that fits (Mattson, Gecsei, Slutz and Traiger, 1970), and a longer
        buffer keeps a longer run.
        """
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
        capacities = sorted(data.draw(st.lists(st.integers(max(sizes), sum(sizes) + 1),
                                               min_size=2, max_size=4, unique=True)))
        keys = data.draw(st.lists(st.integers(0, len(sizes) - 1), max_size=80))
        hits = []
        for capacity in capacities:
            buf = BufferState(capacity)
            hits.append([access_bucket((k,), sizes[k], buf, evict_lru)[0] for k in keys])
        for small, large in zip(hits, hits[1:]):
            assert all(big or not little for little, big in zip(small, large))

    def test_a_bucket_that_bypasses_the_smaller_buffer_breaks_the_stack_property(self):
        """B (11 B) bypasses a 10 B buffer and keeps A resident, but evicts A from an 11 B one."""
        accesses = [(("A",), 5), (("B",), 11), (("A",), 5)]

        def hits(capacity):
            buf = BufferState(capacity)
            return [access_bucket(key, size, buf, evict_lru)[0] for key, size in accesses]

        assert hits(10) == [False, False, True] and hits(11) == [False, False, False]

    def test_occupancy_invariant(self):
        rng = np.random.default_rng(23)
        buf = BufferState(capacity_bytes=777)
        for k in rng.integers(0, 40, size=1000):
            access_bucket((int(k),), int(rng.integers(10, 200)), buf)
            assert buf.used_bytes == sum(e.size_bytes for e in buf.resident.values())
            assert buf.used_bytes <= buf.capacity_bytes


# two projections of one-entry buckets -4..15: a bucket's rank is its id + 4
EVICT_INDEX = OccupiedIndex({g: (list(range(-4, 16)), [1] * 20) for g in range(2)})
bucket_key = BufferKeys(EVICT_INDEX).key


def _seed_buffer(entries, capacity=10_000):
    """entries: list of ((g, R, bucket), size, insert_tick, est_frequency)."""
    buf = BufferState(capacity_bytes=capacity)
    for bucket, size, tick, freq in entries:
        buf.clock = tick
        access_bucket(bucket_key(*bucket), size, buf)
        buf.resident[bucket_key(*bucket)].est_frequency = freq
    return buf


def _evict_mmlsh(buf, current_bucket, index=EVICT_INDEX):
    evictor = _MmlshEvictor(uniform_profile(index.m), index)
    return evictor(buf, BufferKeys(index).key(*current_bucket))


class TestMmlshEviction:
    """Level 1: residents within 2 bucket ids are near; window = resident count."""

    def test_prefers_lowest_frequency_among_old_and_far(self):
        buf = _seed_buffer([
            ((0, 1, 0), 10, 0, 5.0),   # far (distance 4), old
            ((0, 1, 5), 10, 0, 0.0),   # near (distance 1): protected
            ((1, 1, 3), 10, 0, 2.0),   # other projection: infinitely far, old
        ])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == bucket_key(1, 1, 3)

    def test_frequency_tie_breaks_by_larger_distance(self):
        buf = _seed_buffer([
            ((0, 1, 0), 10, 0, 1.0),   # distance 4
            ((0, 1, 8), 10, 0, 1.0),   # distance 4
            ((0, 1, 12), 10, 0, 1.0),  # distance 8
        ])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == bucket_key(0, 1, 12)

    def test_distance_tie_breaks_by_lower_key(self):
        buf = _seed_buffer([
            ((0, 1, 0), 10, 0, 1.0),   # distance 4
            ((0, 1, 8), 10, 0, 1.0),   # distance 4
        ])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == bucket_key(0, 1, 0)

    def test_a_tie_between_other_passes_evicts_the_lower_projection_first(self):
        # both old, of other passes than (0, 1), so equally far, and of demand 0: the lower
        # key goes, and keys ascend by projection before level, so (0, 2) before (1, 1)
        buf = _seed_buffer([
            ((1, 1, 3), 10, 0, 0.0),
            ((0, 2, 3), 10, 0, 0.0),
        ])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 3)) == bucket_key(0, 2, 3)

    def test_distance_is_measured_in_bucket_ids_not_ranks(self):
        # ranks 0, 1, 2 and 3; from id 10, id 0 is 10 ids away but one rank
        index = OccupiedIndex({0: ([0, 10, 11, 12], [1] * 4)})
        ids_key = BufferKeys(index).key
        buf = BufferState(capacity_bytes=10_000)
        for bucket, freq in ((0, 1.0), (12, 0.0)):  # the nearer one has the lower demand
            access_bucket(ids_key(0, 1, bucket), 10, buf)
            buf.resident[ids_key(0, 1, bucket)].est_frequency = freq
        buf.clock = 100
        # id 12 is within 2R = 2 ids of id 10, and protected; id 0 is far
        assert _evict_mmlsh(buf, (0, 1, 10), index) == ids_key(0, 1, 0)

    def test_relaxes_distance_then_recency(self):
        # all residents near the query: distance filter must be dropped
        buf = _seed_buffer([
            ((0, 1, 4), 10, 0, 3.0),
            ((0, 1, 5), 10, 0, 1.0),
        ])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == bucket_key(0, 1, 5)
        # all residents recent: recency filter must be dropped too
        buf = _seed_buffer([((0, 1, 4), 10, 99, 3.0), ((0, 1, 5), 10, 99, 1.0)])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == bucket_key(0, 1, 5)

    def test_index_of_an_lru_filled_buffer_follows_insert_order(self):
        buf = BufferState(capacity_bytes=20)
        access_bucket(bucket_key(0, 1, 5), 10, buf)  # tick 1
        buf.clock = 9
        access_bucket(bucket_key(0, 1, 0), 10, buf)  # tick 10
        access_bucket(bucket_key(0, 1, 5), 10, buf)  # a hit: resident order is now use order
        # at tick 12 the window is 2, so only (0, 1, 5) is old; both are far
        access_bucket(bucket_key(1, 1, 0), 10, buf, _MmlshEvictor(uniform_profile(2), EVICT_INDEX))
        assert bucket_key(0, 1, 5) not in buf.resident and bucket_key(0, 1, 0) in buf.resident

    def test_profile_seeds_estimated_frequency(self):
        edges = np.array([[0.0, 10.0]])
        means = np.array([[7.5]])
        profile = FrequencyProfile(edges=edges, means=means)
        evictor = _MmlshEvictor(profile, EVICT_INDEX)
        buf = BufferState(capacity_bytes=100)
        # seeded to 7.5, less the admitting use
        access_bucket(bucket_key(0, 1, 3), 10, buf, evictor)
        assert buf.resident[bucket_key(0, 1, 3)].est_frequency == 6.5
        access_bucket(bucket_key(0, 1, 3), 10, buf, evictor)
        assert buf.resident[bucket_key(0, 1, 3)].est_frequency == 5.5


def reference_evict_mmlsh(buffer, current_bucket, keys, tiers: Counter | None = None):
    """Oracle: the three-criteria rule applied by scanning every resident.

    `keys` is the index's `BufferKeys`. When given, `tiers` counts the
    relaxation tier that chose each victim.
    """
    if not buffer.resident:
        raise RuntimeError("cannot evict from an empty buffer")
    g, level, pos = keys.decode(current_bucket)
    window = len(buffer.resident)
    threshold = 2 * level
    now = buffer.clock

    def distance(key):
        kg, klevel, kbucket = keys.decode(key)
        if kg != g or klevel != level:
            return math.inf  # other passes: maximally far from the current query
        return abs(kbucket - pos)

    best = [None, None, None]  # per relaxation tier: (freq, -dist, (g, R, bucket), key)
    for key, entry in buffer.resident.items():
        cand = (entry.est_frequency, -distance(key), keys.decode(key), key)
        old = now - entry.insert_tick > window
        far = distance(key) > threshold
        for tier, ok in enumerate((old and far, old, True)):
            if ok and (best[tier] is None or cand < best[tier]):
                best[tier] = cand
    tier = next(t for t, b in enumerate(best) if b is not None)
    if tiers is not None:
        tiers[tier] += 1
    key = best[tier][3]
    buffer._evict(key)
    return key


class ReferenceEvictor(_MmlshEvictor):
    """The MMLSH policy with the full-scan oracle in place of `evict_mmlsh`."""

    def __init__(self, profile, index, tiers):
        super().__init__(profile, index)
        self.keys = BufferKeys(index)
        self.tiers = tiers

    def __call__(self, buffer, current_bucket):
        return reference_evict_mmlsh(buffer, current_bucket, self.keys, self.tiers)


def replay_accesses(make_evictor, accesses, sizes, capacity, lru_prefix, mmlsh_cut):
    """Drive `access_bucket` as successive `bench.replay_plans` calls on one buffer do.

    accesses[:lru_prefix] replay under `evict_lru`; the rest replay under
    MMLSH as two replays, split at `mmlsh_cut`, each with a fresh policy from
    `make_evictor()`. Returns (trace, io_stats).
    """
    trace = []
    buf = BufferState(capacity_bytes=capacity, trace=trace)
    replays = [(evict_lru, accesses[:lru_prefix]),
               (make_evictor(), accesses[lru_prefix:mmlsh_cut]),
               (make_evictor(), accesses[mmlsh_cut:])]
    for evict, keys in replays:
        for key in keys:
            access_bucket(key, sizes[key], buf, evict)
    return trace, buf.io_stats


@st.composite
def access_runs(draw):
    """Key sweeps over a pass's buckets, as replay makes them, with jumps between passes.

    Each projection has `span` occupied ids from a drawn base, 1 to 4 ids
    apart, so a distance in ranks is not one in ids plus a constant, and
    the drawn profile's edges span each projection's own ids.
    """
    projections = draw(st.integers(1, 3))
    levels = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3, unique=True))
    span = draw(st.integers(1, 40))  # up to 39 ranks apart, more than any threshold
    base = draw(st.sampled_from([0, -7, 2**40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [(base + np.cumsum(np.r_[0, rng.integers(1, 5, size=span - 1)])).tolist()
           for _ in range(projections)]
    index = OccupiedIndex({g: (g_ids, [1] * span) for g, g_ids in enumerate(ids)})
    keys = BufferKeys(index)
    accesses = []
    for _ in range(draw(st.integers(1, 40))):
        g, level = int(rng.integers(projections)), int(rng.choice(levels))
        rank = int(rng.integers(span))
        for _ in range(int(rng.integers(1, 12))):
            accesses.append(keys.key(g, level, ids[g][rank]))
            rank = (rank + int(rng.integers(0, 3))) % span
    sizes = {key: int(rng.integers(1, 61)) for key in sorted(set(accesses))}
    capacity = draw(st.integers(1, 300))
    profile = uniform_profile(projections)
    if draw(st.booleans()):
        regions = draw(st.integers(1, 4))
        edges = np.array([np.linspace(g_ids[0], g_ids[-1] + 1, regions + 1) for g_ids in ids])
        means = np.array(draw(st.lists(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
                     min_size=regions, max_size=regions),
            min_size=projections, max_size=projections)))
        profile = FrequencyProfile(edges=edges, means=means)
    lru_prefix = draw(st.one_of(st.just(0), st.integers(0, len(accesses))))
    mmlsh_cut = draw(st.one_of(st.just(len(accesses)), st.integers(lru_prefix, len(accesses))))
    return index, accesses, sizes, capacity, profile, lru_prefix, mmlsh_cut


class TestMmlshEvictionOracle:
    def test_trace_equals_full_scan(self):
        tiers = Counter()

        @settings(max_examples=300, deadline=None)
        @given(run=access_runs())
        def check(run):
            index, accesses, sizes, capacity, profile, lru_prefix, mmlsh_cut = run
            got = replay_accesses(lambda: _MmlshEvictor(profile, index), accesses, sizes,
                                  capacity, lru_prefix, mmlsh_cut)
            want = replay_accesses(lambda: ReferenceEvictor(profile, index, tiers), accesses,
                                   sizes, capacity, lru_prefix, mmlsh_cut)
            assert got == want

        check()
        # each relaxation tier (old and far, old, any) chose some victim
        assert all(tiers[tier] > 0 for tier in range(3)), tiers

    def test_the_age_bound_rises_at_every_eviction(self, monkeypatch):
        # the fact the policy rests on: a resident that is old stays old
        bounds = []
        real = buffering.evict_mmlsh

        def recording(buffer, current_bucket, policy):
            bounds.append(buffer.clock - len(buffer.resident))
            return real(buffer, current_bucket, policy)
        monkeypatch.setattr(buffering, "evict_mmlsh", recording)
        evictions = 0

        @settings(max_examples=300, deadline=None)
        @given(run=access_runs())
        def check(run):
            nonlocal evictions
            index, accesses, sizes, capacity, profile, lru_prefix, mmlsh_cut = run
            bounds.clear()
            replay_accesses(lambda: _MmlshEvictor(profile, index), accesses, sizes, capacity,
                            lru_prefix, mmlsh_cut)
            assert all(a < b for a, b in zip(bounds, bounds[1:])), bounds
            evictions += len(bounds)

        check()
        assert evictions > 1_000

    def test_heap_stays_within_a_multiple_of_the_residents(self):
        rng = np.random.default_rng(5)
        index = OccupiedIndex({g: (list(range(40)), [1] * 40) for g in range(3)})
        keys = [BufferKeys(index).key(int(g), int(level), int(b)) for g, level, b in zip(
            rng.integers(0, 3, 20_000), rng.choice([1, 2, 4], 20_000),
            rng.integers(0, 40, 20_000))]  # few enough keys that old residents get hits
        sizes = {key: int(rng.integers(1, 40)) for key in sorted(set(keys))}
        profile = FrequencyProfile(edges=np.array([np.linspace(0, 40, 11)] * 3),
                                   means=rng.uniform(0, 30, size=(3, 10)))
        evictor = _MmlshEvictor(profile, index)
        buf = BufferState(capacity_bytes=2_000)
        fullest = 0.0  # most heap entries per resident
        for key in keys:
            access_bucket(key, sizes[key], buf, evictor)
            if evictor.young is None:
                continue
            heap = evictor.heap
            assert len(heap) <= _HEAP_SLACK * len(buf.resident)
            fullest = max(fullest, len(heap) / len(buf.resident))
            entries = set(heap)
            old = [(e.est_frequency, k, e.insert_tick) for k, e in buf.resident.items()
                   if e.insert_tick < evictor.bound]
            assert entries.issuperset(old)  # every old resident has a live entry
            young = [(tick, k) for tick, k in evictor.young
                     if k in buf.resident and buf.resident[k].insert_tick == tick]
            assert young == sorted((e.insert_tick, k) for k, e in buf.resident.items()
                                   if e.insert_tick >= evictor.bound)
        assert buf.io_stats.evictions > 10_000
        assert fullest > _HEAP_SLACK - 1  # stale entries pile up until a rebuild clears them

    def test_only_a_use_that_lowers_an_old_demand_pushes(self):
        # demand 5 - 1 = 4 on projection 0, 49 on projection 1
        profile = FrequencyProfile(edges=np.array([[0.0, 100.0]] * 2),
                                   means=np.array([[5.0], [50.0]]))
        evictor = _MmlshEvictor(profile, EVICT_INDEX)
        buf = BufferState(capacity_bytes=40)
        for bucket in [(1, 1, 0), (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 2), (0, 1, 2),
                       (0, 1, 3)]:
            access_bucket(bucket_key(*bucket), 10, buf, evictor)
        # at tick 7 the bound is 7 - 4 = 3: ticks 1 and 2 are old, the far (0, 1, 0) goes
        assert buf.io_stats.evictions == 1 and bucket_key(0, 1, 0) not in buf.resident
        assert evictor.bound == 3
        heap = evictor.heap
        size = len(heap)
        access_bucket(bucket_key(0, 1, 3), 10, buf, evictor)  # a hit on a young resident
        assert buf.resident[bucket_key(0, 1, 3)].est_frequency == 3.0
        assert len(heap) == size
        access_bucket(bucket_key(1, 1, 0), 10, buf, evictor)  # a hit on the old resident
        assert len(heap) == size + 1
        assert (48.0, bucket_key(1, 1, 0), 1) in heap
        access_bucket(bucket_key(0, 1, 1), 10, buf, evictor)  # back to pass (0, 1), on a young one
        assert len(heap) == size + 1


def oracle_replay_plans(strategy, plans, index, buffer, stats_list, scheduler):
    """Oracle: `bench.replay_plans` with one `access_bucket` call per access.

    Each pass is ordered on its own, by the reference orders: NS1's whole
    ranges, or MMLSH's segments, each of which costs one algorithm operation.
    """
    if strategy == NS2:
        oracle_replay_ns2(plans, index, buffer, stats_list)
        return
    evict = _MmlshEvictor(scheduler.profile, index) if strategy == MMLSH else evict_lru
    keys = BufferKeys(index)
    for stats, plan in zip(stats_list, plans):
        for g, R, ranges in plan:
            ranges = ranges.tolist()
            ids, counts = index.occupied_buckets(g)
            ids, sizes = ids.tolist(), (counts * POINT_ID_BYTES).tolist()
            if strategy == MMLSH:
                segs = reference_split_queries(ranges, scheduler.query_splits)
                stats.alg_ops += len(segs)
            else:
                segs = schedule_ns1(ranges)
            for p in visit_order(segs, ids):
                access_bucket(keys.key(g, R, ids[p]), sizes[p], buffer, evict, stats)


def oracle_schedule_ns2(ranges):
    """Oracle: the distinct buckets of (qi, lo, hi) ranges, ascending, each with its consumers."""
    need = {}
    for qi, lo, hi in ranges:
        for bucket in range(lo, hi):
            need.setdefault(bucket, []).append(qi)
    return [(bucket, need[bucket]) for bucket in sorted(need)]


def oracle_ns2_batch(plans, index):
    """Oracle: `schedule_ns2` with a dict of consumers per bucket, range by range.

    Returns the keys in reading order, their sizes, each key's first
    consumer and each plan's membership checks.
    """
    passes = {}
    for query_idx, plan in enumerate(plans):
        for g, R, ranges in plan:
            passes.setdefault((R, g), []).extend(
                (query_idx, lo, hi) for _qi, lo, hi in ranges.tolist())
    bucket_keys = BufferKeys(index)
    keys, sizes, owners, alg_ops = [], [], [], [0] * len(plans)
    for (R, g) in sorted(passes):
        ranges = passes[(R, g)]
        ids, counts = index.occupied_buckets(g)
        ids, counts = ids.tolist(), counts.tolist()
        schedule = oracle_schedule_ns2([(qi, bisect_left(ids, lo), bisect_left(ids, hi))
                                        for qi, lo, hi in ranges])
        for i, consumers in schedule:
            keys.append(bucket_keys.key(g, R, ids[i]))
            sizes.append(counts[i] * POINT_ID_BYTES)
            owners.append(consumers[0])
        for query_idx, _lo, _hi in ranges:
            alg_ops[query_idx] += len(schedule)
    return keys, sizes, owners, alg_ops


def oracle_replay_ns2(plans, index, buffer, stats_list):
    """Oracle: the NS2 batch of `oracle_ns2_batch`, one `access_bucket` call per key."""
    keys, sizes, owners, alg_ops = oracle_ns2_batch(plans, index)
    for key, size, owner in zip(keys, sizes, owners):
        access_bucket(key, size, buffer, evict_lru, stats_list[owner])
    for stats, ops in zip(stats_list, alg_ops):
        stats.alg_ops += ops


@st.composite
def pass_plans(draw):
    """Query plans over sparse occupied buckets, a drawn or uniform profile, and a buffer size.

    A pass's ranges overlap, so it revisits keys, interleaved under MMLSH's
    split order, and passes repeat within and across queries, so later ones
    find keys resident. Some ranges are empty (hi <= lo) and some lie beyond
    the occupied ids. Most rows are followed by a case of FOLD_CASES. Each
    pass's ranges are an int64 array of (qi, lo, hi) rows, as the searches
    record them. Bucket sizes vary, and the capacity runs from the smallest
    bucket to the whole working set, so small buffers evict often and some
    buckets bypass them.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    projections = draw(st.integers(1, 3))
    span = draw(st.integers(1, 40))
    occupied = {}
    for g in range(projections):
        ids = sorted(set(rng.integers(0, span, size=int(rng.integers(1, span + 1))).tolist()))
        occupied[g] = (ids, rng.integers(1, 16, size=len(ids)).tolist())
    plans = []
    for _ in range(draw(st.integers(1, 6))):
        plan = []
        for _ in range(int(rng.integers(1, 8))):
            g, R = int(rng.integers(projections)), int(rng.choice([1, 2, 4]))
            starts = rng.integers(-2, span + 2, size=int(rng.integers(1, 5))).tolist()
            cases = [(None, *FOLD_CASES)[c] for c in rng.integers(0, 4, size=len(starts)).tolist()]
            bounds = [(lo, lo + int(rng.integers(-2, 13))) for lo in starts]
            plan.append((g, R, np.array(splice_repeats(zip(bounds, cases)), dtype=np.int64)))
        plans.append(plan)
    sizes = {(g, R, b): POINT_ID_BYTES * count
             for plan in plans for g, R, ranges in plan
             for b, count in zip(*occupied[g])
             if any(lo <= b < hi for _qi, lo, hi in ranges)}
    smallest = POINT_ID_BYTES * min(min(counts) for _ids, counts in occupied.values())
    capacity = draw(st.integers(smallest, max(smallest, sum(sizes.values()))))
    profile = uniform_profile(projections)
    if draw(st.booleans()):
        regions = draw(st.integers(1, 4))
        means = draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 7.25]),
                                       min_size=regions, max_size=regions),
                              min_size=projections, max_size=projections))
        profile = FrequencyProfile(edges=np.array([np.linspace(0, span, regions + 1)] * projections),
                                   means=np.array(means))
    lru_prefix = draw(st.integers(0, len(plans)))
    cut = draw(st.integers(lru_prefix, len(plans)))
    splits = draw(st.sampled_from([1, 2, 3, 10]))
    return OccupiedIndex(occupied), plans, capacity, profile, lru_prefix, cut, splits


def hit_gaps(trace, clock):
    """The hits before each miss of a miss-only trace, and after the last: its tick gaps."""
    ticks = [0, *(tick for tick, _key, _evicted in trace), clock + 1]
    return [b - a - 1 for a, b in zip(ticks, ticks[1:])]


def replay_in_calls(replay, strategy, run):
    """Replay plans[:lru_prefix] under NS1, then the rest under `strategy` in two calls.

    All calls share one traced buffer, as the benchmark's plan-by-plan
    replays do. Returns everything a replay leaves behind.
    """
    index, plans, capacity, profile, lru_prefix, cut, splits = run
    buffer = BufferState(capacity, trace=[])
    stats = [QueryStats() for _ in plans]
    for s, lo, hi in ((NS1, 0, lru_prefix), (strategy, lru_prefix, cut),
                      (strategy, cut, len(plans))):
        replay(s, plans[lo:hi], index, buffer, stats[lo:hi], SchedulerConfig(s, splits, profile))
    residents = [(key, e.size_bytes, e.insert_tick, e.est_frequency)
                 for key, e in buffer.resident.items()]
    return buffer.trace, buffer.io_stats, stats, residents, buffer.clock


class TestBulkHitReplay:
    def test_replay_equals_one_access_bucket_call_per_access(self):
        seen = Counter()

        @settings(max_examples=400, deadline=None)
        @given(run=pass_plans(), strategy=st.sampled_from([NS1, MMLSH]))
        def check(run, strategy):
            got = replay_in_calls(bench.replay_plans, strategy, run)
            want = replay_in_calls(oracle_replay_plans, strategy, run)
            assert got == want
            trace, io, _stats, _residents, clock = got
            index, capacity = run[0], run[2]
            sizes = {(g, b): POINT_ID_BYTES * count
                     for g, (ids, counts) in index.occupied.items() for b, count in zip(ids, counts)}
            decode = BufferKeys(index).decode
            seen[strategy, bool((run[3].means != 1).any())] += 1  # drawn or uniform demand
            seen["evictions"] += io.evictions
            seen["bypasses"] += sum(sizes[g, b] > capacity
                                    for g, _R, b in (decode(key) for _t, key, _e in trace))
            # pairs of successive hits: a gap of h hits between misses holds h - 1
            seen["hit runs"] += sum(max(0, h - 1) for h in hit_gaps(trace, clock))
            for plan in run[1]:
                for _g, _R, ranges in plan:
                    seen.update(fold_cases(ranges.tolist()))

        check()
        # NS1 and MMLSH with drawn and uniform demands ran, evicting, bypassing and hitting in
        # runs, over rows that repeat the row before them, or the one before that
        assert all(seen[s, p] > 0 for s in (NS1, MMLSH) for p in (False, True)), seen
        assert all(seen[name] > 1_000 for name in ("evictions", "bypasses", "hit runs")), seen
        assert all(seen[case] > 500 for case in FOLD_CASES), seen

    @settings(max_examples=500, deadline=None)
    @given(demand=st.one_of(st.floats(0, 2**53, exclude_max=True),
                            st.fractions(0, 1000, max_denominator=500).map(float),
                            st.integers(0, 2**53 - 1).map(float)),
           uses=st.integers(1, 3000))
    def test_one_subtraction_equals_single_clamped_decrements(self, demand, uses):
        bulk, single = _Entry(1, 0, demand), _Entry(1, 0, demand)
        policy = _MmlshEvictor(uniform_profile(2), EVICT_INDEX)
        policy.use(0, bulk, uses)
        for _ in range(uses):
            policy.use(0, single)
        assert bulk.est_frequency == single.est_frequency == max(0.0, demand - uses)



def plan_bound(index, plan):
    """The bytes a plan can add to a buffer: those of its distinct (g, R, bucket) keys."""
    sizes = {}
    for g, R, ranges in plan:
        for _qi, lo, hi in ranges.tolist():
            sizes.update(((g, R, b), POINT_ID_BYTES * count)
                         for b, count in zip(*index.occupied[g]) if lo <= b < hi)
    return sum(sizes.values())


@st.composite
def fitting_plans(draw):
    """`pass_plans` with a capacity that holds the first plan's bound, and often every plan's.

    With every bound held, no plan evicts and each one replays in bulk.
    Below that, the later plans that no longer fit replay stepwise on the
    buffer the bulk plans left.
    """
    index, plans, _capacity, profile, lru_prefix, cut, splits = draw(pass_plans())
    # a buffer holds at least 1 B, and a plan of empty ranges has no keys
    total = max(1, sum(plan_bound(index, plan) for plan in plans))
    capacity = draw(st.one_of(st.integers(total, total + 60),
                              st.integers(max(1, plan_bound(index, plans[0])), total)))
    return index, plans, capacity, profile, lru_prefix, cut, splits


@st.composite
def evict_then_fitting_plans(draw):
    """An evicting plan, then small plans whose bound often fits the bytes it leaves free.

    Projection 0 holds large buckets, projection 1 a few one-entry ones. A
    warm plan, under NS1 or MMLSH, reads all of projection 1, then rereads
    a prefix of projection 0: the rereads are hits, whose ticks make what
    the plan read old by the first eviction. The evicting plan sweeps every
    bucket of projection 0 through a buffer that cannot hold them, and
    builds the MMLSH policy. A profile that gives projection 1 a high
    demand keeps its buckets resident through the evictions, old ones
    among them, so the small plans that revisit projection 1 hit them.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.integers(2, 30))
    large = sorted(rng.choice(span, size=int(rng.integers(2, span + 1)), replace=False).tolist())
    small = sorted(set(rng.integers(0, 6, size=int(rng.integers(1, 4))).tolist()))
    counts = rng.integers(1, 16, size=len(large)).tolist()
    occupied = {0: (large, counts), 1: (small, [1] * len(small))}

    def small_pass():
        starts = rng.integers(-1, 6, size=int(rng.integers(1, 4))).tolist()
        return (1, 1, np.array([(qi, lo, lo + int(rng.integers(0, 8)))
                                for qi, lo in enumerate(starts)], dtype=np.int64))
    sweep = [(0, 0, span)] + [(qi, lo, lo + int(rng.integers(1, 8)))
                              for qi, lo in enumerate(rng.integers(0, span, size=3).tolist(), 1)]
    evicting = [(0, 1, np.array(sweep, dtype=np.int64))]
    if draw(st.booleans()):
        evicting.append(small_pass())
    sizes = [POINT_ID_BYTES * count for count in counts]
    # the sweep evicts; a buffer that holds half of it keeps more old residents
    capacity = draw(st.one_of(st.integers(max(max(sizes), sum(sizes) // 2), sum(sizes) - 1),
                              st.integers(max(sizes), sum(sizes) - 1)))
    # the reread prefix mostly fits beside projection 1
    fit = int(np.searchsorted(np.cumsum(sizes), capacity - POINT_ID_BYTES * len(small),
                              side="right"))
    prefix = large[int(rng.integers(0, max(1, fit)))] + 1
    rereads = (0, 1, np.array([(qi, 0, prefix) for qi in range(int(rng.integers(1, 6)))],
                              dtype=np.int64))
    warm = (1, 1, np.array([(0, 0, 6)], dtype=np.int64))
    plans = [[warm, rereads], evicting] + [
        [small_pass() for _ in range(int(rng.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 5)))]
    means = [[draw(st.sampled_from([0.0, 1.0, 2.5]))],
             [draw(st.sampled_from([1.0, 7.25, 50.0]))]]
    profile = FrequencyProfile(edges=np.array([[0.0, span]] * 2), means=np.array(means))
    lru_prefix = draw(st.integers(0, 1))  # the warm plan under NS1, or under MMLSH
    return (OccupiedIndex(occupied), plans, capacity, profile, lru_prefix, len(plans),
            draw(st.sampled_from([1, 2, 3, 10])))


def counting(monkeypatch, owner, name, calls):
    """Wrap owner.name so that `calls[name]` counts its calls."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def counting_paths(monkeypatch, calls):
    """Count the plans `bench.replay_plans` orders and each path bills, and `bill_hits` calls."""
    for name in ("split_queries", "_replay_plan_bulk", "_replay_plan_stepwise", "bill_hits"):
        counting(monkeypatch, bench, name, calls)


class TestNoEvictReplay:
    """Plans whose bound fits the free bytes replay in bulk, as one call per access would."""

    def test_bulk_replay_equals_one_access_bucket_call_per_access(self, monkeypatch):
        seen = Counter()
        calls = Counter()
        counting_paths(monkeypatch, calls)

        # a fixed example set: the coverage counts below depend on the draws
        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(run=fitting_plans(), strategy=st.sampled_from([NS1, MMLSH]))
        def check(run, strategy):
            calls.clear()
            got = replay_in_calls(bench.replay_plans, strategy, run)
            bulk, stepwise = calls["_replay_plan_bulk"], calls["_replay_plan_stepwise"]
            plans = len(run[1])
            assert calls["split_queries"] == bulk + stepwise == plans  # each plan ordered once
            assert calls["bill_hits"] >= plans  # a bulk plan bills its hits in one call
            want = replay_in_calls(oracle_replay_plans, strategy, run)
            assert got == want
            trace, io, clock = got[0], got[1], got[4]
            seen[strategy, bool((run[3].means != 1).any())] += bulk  # drawn or uniform demand
            seen["bulk"] += bulk
            seen["NS1 prefix"] += bool(bulk and run[4] > 0)
            seen["bulk, then stepwise"] += bool(bulk and stepwise)
            seen["evictions after bulk"] += bool(bulk and io.evictions)
            seen["hits"] += sum(hit_gaps(trace, clock))

        check()
        # both strategies with drawn and uniform demands replayed in bulk, on their own, after
        # an NS1 prefix and before plans that evict
        assert all(seen[s, p] > 50 for s in (NS1, MMLSH) for p in (False, True)), seen
        assert seen["bulk"] > 600 and seen["hits"] > 5_000, seen
        assert all(seen[name] > 10 for name in ("NS1 prefix", "bulk, then stepwise",
                                                "evictions after bulk")), seen

    def replay_counted(self, monkeypatch, strategy, index, plans, capacity, splits=3):
        """One `replay_plans` call per plan on one buffer, against the oracle.

        Each plan is ordered once, whichever path bills it. Returns the
        number of plans billed stepwise rather than in bulk.
        """
        calls = Counter()
        counting_paths(monkeypatch, calls)
        run = (index, plans, capacity, uniform_profile(len(index.occupied)), 0, 0, splits)
        got = replay_in_calls(bench.replay_plans, strategy, run)
        monkeypatch.undo()
        assert got == replay_in_calls(oracle_replay_plans, strategy, run)
        assert calls["split_queries"] == len(plans)
        assert calls["_replay_plan_bulk"] + calls["_replay_plan_stepwise"] == len(plans)
        return calls["_replay_plan_stepwise"]

    INDEX = OccupiedIndex({0: ([0, 2, 3, 7], [3, 1, 4, 2]), 1: ([-5, 1], [2, 6])})
    PLANS = [[(0, 1, np.array([[0, 0, 4], [1, 2, 9]])), (1, 2, np.array([[0, -6, 2]]))],
             [(0, 1, np.array([[0, 3, 8]])), (0, 2, np.array([[0, 0, 8], [1, 2, 3]]))]]

    @pytest.mark.parametrize("strategy", [NS1, MMLSH])
    def test_a_plan_one_byte_over_the_free_bytes_replays_pass_by_pass(self, monkeypatch,
                                                                      strategy):
        first, second = self.PLANS
        used = POINT_ID_BYTES * (3 + 1 + 4 + 2 + 2 + 6)  # the first plan reads every bucket
        bound = plan_bound(self.INDEX, second)
        assert bound == POINT_ID_BYTES * ((4 + 2) + (3 + 1 + 4 + 2))  # ids 3, 7, then all four
        # the second plan takes the bulk path when its bound fits the free bytes exactly
        assert self.replay_counted(monkeypatch, strategy, self.INDEX, self.PLANS,
                                   used + bound) == 0
        assert self.replay_counted(monkeypatch, strategy, self.INDEX, self.PLANS,
                                   used + bound - 1) == 1

    @pytest.mark.parametrize("strategy", [NS1, MMLSH])
    def test_a_plan_whose_keys_fit_is_billed_in_bulk_however_large_its_projection(
            self, monkeypatch, strategy):
        index = OccupiedIndex({0: ([0, 5, 9], [50, 50, 1])})
        plan = [(0, 1, np.array([[0, 9, 10], [1, 7, 10]])), (0, 2, np.array([[0, 8, 10]]))]
        # its two keys take 8 B; n * 4 B per (g, R) pass would be 2 * 404 B
        assert plan_bound(index, plan) == 2 * POINT_ID_BYTES < 100 < 2 * POINT_ID_BYTES * 101
        assert self.replay_counted(monkeypatch, strategy, index, [plan], 100) == 0

    def test_mmlsh_bills_in_bulk_after_an_eviction(self, monkeypatch):
        index = OccupiedIndex({0: ([0, 1, 2], [10, 10, 10]), 1: ([4], [1])})
        evicting = [(0, 1, np.array([[0, 0, 3]]))]  # 120 B of buckets through a 100 B buffer
        small = [(1, 1, np.array([[0, 4, 5]]))]  # 4 B: fits the 20 B left free
        assert plan_bound(index, evicting) > 100 and plan_bound(index, small) <= 100 - 80
        plans = [evicting, small]  # in one call
        # the eviction builds the MMLSH policy; the small plan still replays in bulk, as
        # under NS1, which builds no policy
        assert self.replay_counted(monkeypatch, MMLSH, index, plans, 100, splits=1) == 1
        assert self.replay_counted(monkeypatch, NS1, index, plans, 100) == 1

    def test_bulk_after_an_evicting_mmlsh_plan_equals_the_oracle(self, monkeypatch):
        seen = Counter()
        calls = Counter()
        counting_paths(monkeypatch, calls)
        bulk = bench._replay_plan_bulk

        def observed(order, buffer, evict, stats):
            if isinstance(evict, _MmlshEvictor) and evict.young is not None:
                seen["bulk after the policy was built"] += 1
                seen["old residents hit in bulk"] += any(
                    key in buffer.resident and buffer.resident[key].insert_tick < evict.bound
                    for key in order.keys.tolist())
            return bulk(order, buffer, evict, stats)
        monkeypatch.setattr(bench, "_replay_plan_bulk", observed)

        @settings(max_examples=400, deadline=None)
        @given(run=evict_then_fitting_plans())
        def check(run):
            calls.clear()
            got = replay_in_calls(bench.replay_plans, MMLSH, run)
            assert calls["split_queries"] == len(run[1])
            assert got == replay_in_calls(oracle_replay_plans, MMLSH, run)
            trace, io, clock = got[0], got[1], got[4]
            assert io.evictions > 0
            gaps = hit_gaps(trace, clock)
            seen["hits"] += sum(gaps)
            seen["hit runs"] += sum(max(0, h - 1) for h in gaps)

        check()
        # small plans were billed in bulk after an eviction built the policy, some of them
        # hitting residents that were old at that eviction
        assert seen["bulk after the policy was built"] > 300, seen
        assert seen["old residents hit in bulk"] > 20, seen
        assert seen["hits"] > 1_000 and seen["hit runs"] > 500, seen

    @pytest.mark.parametrize("strategy", [NS1, MMLSH])
    def test_bulk_leaves_the_state_of_a_call_per_access(self, strategy):
        """Residents, ticks, demands, the clock and the live policy entries, plan by plan.

        After the warm and evicting plans, every later plan that fits the
        free bytes is billed in bulk on one copy of the buffer and its
        policy, and by one `access_bucket` call per access on another.
        """
        seen = Counter()

        def live(policy):
            resident = policy.resident
            heap = {(f, k, t) for f, k, t in policy.heap if k in resident
                    and (resident[k].insert_tick, resident[k].est_frequency) == (t, f)}
            young = [(t, k) for t, k in policy.young
                     if k in resident and resident[k].insert_tick == t]
            return heap, young, policy.bound

        def state(buffer, evict):
            residents = [(key, e.size_bytes, e.insert_tick, e.est_frequency)
                         for key, e in buffer.resident.items()]
            built = isinstance(evict, _MmlshEvictor) and evict.young is not None
            return residents, buffer.clock, buffer.io_stats, live(evict) if built else None

        @settings(max_examples=200, deadline=None)
        @given(run=evict_then_fitting_plans())
        def check(run):
            index, plans, capacity, profile, _lru_prefix, _cut, splits = run
            buffer = BufferState(capacity)
            evict = _MmlshEvictor(profile, index) if strategy == MMLSH else evict_lru
            splits = splits if strategy == MMLSH else 1
            for p, plan in enumerate(plans):
                order = split_queries(plan, splits, index)
                bulk = p > 1 and sum(order.sizes) <= capacity - buffer.used_bytes
                if bulk:
                    want_buffer, want_evict = copy.deepcopy((buffer, evict))
                    bench._replay_plan_bulk(order, buffer, evict, QueryStats())
                    seen["bulk"] += 1
                    seen["old hits"] += isinstance(evict, _MmlshEvictor) and any(
                        buffer.resident[k].insert_tick < evict.bound for k in order.keys.tolist())
                else:
                    want_buffer, want_evict = buffer, evict
                tick = want_buffer.clock
                for at, k in enumerate(order.accesses().tolist()):
                    want_buffer.clock = tick + at
                    access_bucket(order.keys.item(k), order.sizes[k], want_buffer, want_evict)
                want_buffer.clock = tick + len(order)
                if bulk:
                    assert state(buffer, evict) == state(want_buffer, want_evict)

        check()
        assert seen["bulk"] > 200, seen
        if strategy == MMLSH:
            assert seen["old hits"] > 10, seen

    @pytest.mark.parametrize("strategy", [NS1, MMLSH])
    def test_a_plan_of_empty_ranges_bills_nothing(self, monkeypatch, strategy):
        plans = [[], [(0, 1, np.array([[0, 3, 3], [1, 5, 2]])), (1, 4, np.array([[0, 1, 0]]))]]
        assert self.replay_counted(monkeypatch, strategy, self.INDEX, plans, 10_000) == 0
        buffer = BufferState(10_000, trace=[])
        stats = [QueryStats() for _ in plans]
        bench.replay_plans(strategy, plans, self.INDEX, buffer, stats,
                           SchedulerConfig(strategy, 3, uniform_profile(2)))
        assert (buffer.clock, buffer.trace, buffer.resident) == (0, [], {})
        assert stats == [QueryStats(), QueryStats()] and buffer.io_stats == QueryStats()


class TestNs2BatchReplay:
    def test_ns2_replay_equals_the_dict_schedule(self):
        seen = Counter()

        @settings(max_examples=400, deadline=None)
        @given(run=pass_plans())
        def check(run):
            got = replay_in_calls(bench.replay_plans, NS2, run)
            want = replay_in_calls(oracle_replay_plans, NS2, run)
            assert got == want
            index, plans, lru_prefix = run[0], run[1], run[4]
            passes = [[(g, R) for g, R, _ranges in plan] for plan in plans]
            seen["repeat in a plan"] += any(len(set(p)) < len(p) for p in passes)
            seen["repeat across plans"] += len(set().union(*map(set, passes))) < sum(
                len(set(p)) for p in passes)
            for plan in plans:
                for g, _R, ranges in plan:
                    ids = index.occupied[g][0]
                    for _qi, lo, hi in ranges.tolist():
                        seen["empty"] += hi <= lo
                        seen["outside"] += lo < hi and (hi <= ids[0] or lo > ids[-1])
                    seen.update(fold_cases(ranges.tolist()))
            seen["NS1 prefix"] += lru_prefix > 0
            seen["evictions"] += got[1].evictions

        check()
        # the batch met repeated passes, empty and outlying ranges, rows that repeat the row
        # before them, or the one before that, an NS1 prefix and evictions
        assert all(seen[name] > 50 for name in ("repeat in a plan", "repeat across plans", "empty",
                                                "outside", "NS1 prefix", "evictions",
                                                *FOLD_CASES)), seen


def reference_split_queries(ranges, splits: int):
    """Oracle: cut each range into contiguous segments, interleaved by position.

    Returns every (query_index, seg_lo, seg_hi) segment, empty or not, sorted
    by segment start (ties by query index, then segment order). Segments of
    one query exactly tile its range; more splits than buckets degenerates
    to one segment per bucket.
    """
    segments = []
    for qi, lo, hi in ranges:
        width = hi - lo
        if width <= 0:
            continue
        nseg = min(splits, width)
        offsets = np.round(np.linspace(0, width, nseg + 1)).astype(int).tolist()
        offsets[-1] = width  # float64 misses widths above 2**53
        segments.extend((qi, lo + a, lo + b) for a, b in zip(offsets, offsets[1:]))
    segments.sort(key=itemgetter(1, 0, 2))
    return segments


def visit_order(segments, ids):
    """Positions into the ascending `ids` of the occupied buckets each segment holds, in turn."""
    return [p for _qi, lo, hi in segments
            for p in range(bisect_left(ids, lo), bisect_left(ids, hi))]


def one_pass_order(ranges, splits, ids):
    """`split_queries` on a one-pass plan over the ascending `ids`.

    Returns the positions into ids of the accesses, in visiting order, and
    the number of segments.
    """
    index = OccupiedIndex({0: (ids, [1] * len(ids))})
    order = split_queries([(0, 1, np.array(ranges, dtype=np.int64).reshape(-1, 3))], splits, index)
    decode = BufferKeys(index).decode
    return ([ids.index(decode(key)[2]) for key in order.keys[order.accesses()].tolist()],
            order.segments)


@st.composite
def split_cases(draw):
    """A multi-pass plan over several projections' sparse occupied ids, far from 0 or not.

    (g, R) passes repeat, a pass has one range per query index, some
    ranges are empty and many miss the occupied ids, ids and widths reach
    2**40 and more from 0, and some widths exceed 2**53, where float64
    rounds the step of the cut. Some ids sit within 60 of a range's end,
    where the last cut of a range that wide falls. Many rows are followed
    by a case of FOLD_CASES.
    """
    base = draw(st.sampled_from([0, -37, -(2**40), 2**40 + 5]))
    near = st.integers(base - 60, base + 60)
    projections = draw(st.integers(1, 3))
    widths = st.one_of(st.integers(-3, 40), st.integers(2**40 - 3, 2**40 + 3),
                       st.integers(3**36 - 3, 3**36 + 3))
    row = st.tuples(near, widths).map(lambda start: (start[0], start[0] + start[1]))
    pairs = st.lists(st.tuples(row, st.sampled_from([None, *FOLD_CASES])), max_size=8)
    passes = [(g, R, splice_repeats(pass_pairs)) for g, R, pass_pairs in draw(st.lists(
        st.tuples(st.integers(0, projections - 1), st.sampled_from([1, 2, 4]), pairs),
        max_size=6))]
    occupied = {}
    for g in range(projections):
        ends = [hi for pg, _R, rows in passes if pg == g for _qi, _lo, hi in rows]
        by_end = [st.builds(int.__add__, st.sampled_from(ends), st.integers(-60, 60))] if ends else []
        ids = draw(st.lists(st.one_of(near, st.integers(base - 2**41, base + 2**41), *by_end),
                            max_size=40, unique=True))
        occupied[g] = (sorted(ids), draw(st.lists(st.integers(1, 9), min_size=len(ids),
                                                  max_size=len(ids))))
    plan = [(g, R, np.array(rows, dtype=np.int64).reshape(-1, 3)) for g, R, rows in passes]
    return OccupiedIndex(occupied), plan, draw(st.sampled_from([1, 2, 3, 10, 25]))


@st.composite
def keyed_plans(draw):
    """A stand-in index whose ids reach negatives and +-2**62, with c = 2 or 3, and a plan.

    The plan has one pass per drawn (g, t), of one row that covers a drawn
    run of g's occupied ids at level R = c**t. Returns the index, the plan
    and the (g, R, id) triples the plan covers.
    """
    c = draw(st.sampled_from([2, 3]))
    ids = st.one_of(st.integers(-50, 50), st.integers(-(2**40), 2**40),
                    st.integers(-(2**62), -(2**62) + 50), st.integers(2**62 - 51, 2**62 - 1))
    occupied = {g: sorted(draw(st.lists(ids, min_size=1, max_size=30, unique=True)))
                for g in range(draw(st.integers(1, 4)))}
    plan, covered = [], set()
    for g, t in draw(st.lists(st.tuples(st.integers(0, len(occupied) - 1),
                                        st.integers(0, level_cap(c) - 1)), min_size=1, max_size=8)):
        g_ids = occupied[g]
        a, b = sorted(draw(st.lists(st.integers(0, len(g_ids)), min_size=2, max_size=2)))
        bounds = [*g_ids, g_ids[-1] + 1]
        plan.append((g, c ** t, np.array([[0, bounds[a], bounds[b]]], dtype=np.int64)))
        covered.update((g, c ** t, bucket) for bucket in g_ids[a:b])
    index = OccupiedIndex({g: (g_ids, [1] * len(g_ids)) for g, g_ids in occupied.items()}, c)
    return index, plan, covered


class TestBufferKeys:
    @settings(max_examples=300, deadline=None)
    @given(case=keyed_plans())
    def test_keys_ascend_as_triples_decode_and_stay_below_2_47(self, case):
        index, plan, covered = case
        c, levels = index.params.c, level_cap(index.params.c)
        ids = [index.occupied_buckets(g)[0].tolist() for g in range(index.m)]
        ranks = max(map(len, ids))

        def decode(key):
            group, r = divmod(key, ranks)
            g, t = divmod(group, levels)
            return g, c ** t, ids[g][r]

        keys = split_queries(plan, 1, index).keys.tolist()
        # ascending keys decode to the covered triples in ascending order
        assert [decode(key) for key in keys] == sorted(covered)
        assert all(0 <= key < 2**47 for key in keys)
        policy = _MmlshEvictor(uniform_profile(index.m), index)
        level = {c ** t: t for t in range(levels)}
        assert [policy.bucket(key) for key in keys] == [
            (g, level[R], bucket) for g, R, bucket in map(decode, keys)]
        ns2_keys = schedule_ns2([plan], index)[0]
        assert [decode(key) for key in ns2_keys] == sorted(covered, key=itemgetter(1, 0, 2))

    def test_the_largest_key_is_below_2_47(self):
        # m <= MAX_PROJECTIONS, at most level_cap(2) levels and K <= n < 2**31
        assert all(level_cap(c) <= level_cap(2) == 62 for c in range(2, 100))
        assert MAX_PROJECTIONS * level_cap(2) * (2**31 - 1) - 1 < 2**47


class TestScheduling:
    RANGES = [(0, 5, 8), (1, 6, 9)]

    @pytest.mark.parametrize("splits, message", [
        (0, "query_splits must be >= 1, got 0"),
        (2 ** 63, f"query_splits must be < 2**63, got {2 ** 63}"),
    ])
    def test_split_counts_below_1_or_past_int64_are_refused(self, splits, message):
        with pytest.raises(ParameterError) as exc:
            SchedulerConfig(NS1, splits)
        assert str(exc.value) == message
        assert SchedulerConfig(NS1, 2 ** 63 - 1).query_splits == 2 ** 63 - 1

    def test_ns1_orders_whole_ranges(self):
        ids = list(range(20))
        assert one_pass_order(self.RANGES, 1, ids) == ([5, 6, 7, 6, 7, 8], 2)
        assert one_pass_order([(0, 9, 12), (1, 2, 5)], 1, ids) == ([2, 3, 4, 9, 10, 11], 2)

    # each of RANGES as a plan of one (g, R) = (0, 1) pass, over one-entry buckets 0..19
    NS2_INDEX = OccupiedIndex({0: (list(range(20)), [1] * 20)})
    NS2_PLANS = [[(0, 1, np.array([row], dtype=np.int64))] for row in RANGES]

    def test_ns2_each_bucket_once_with_consumers(self):
        keys, sizes, owners, alg_ops = schedule_ns2(self.NS2_PLANS, self.NS2_INDEX)
        want = [(5, [0]), (6, [0, 1]), (7, [0, 1]), (8, [1])]
        assert keys == [BufferKeys(self.NS2_INDEX).key(0, 1, b) for b, _ in want]
        assert sizes == [POINT_ID_BYTES] * len(want)
        assert owners == [consumers[0] for _, consumers in want]
        assert alg_ops == [len(want)] * 2  # each plan's one range checks every bucket read
        assert (keys, sizes, owners, alg_ops) == oracle_ns2_batch(self.NS2_PLANS, self.NS2_INDEX)

    def test_ns2_reads_fewer_buckets_than_ns1_on_overlap(self):
        ns1_accesses = sum(hi - lo for _, lo, hi in self.RANGES)
        assert len(schedule_ns2(self.NS2_PLANS, self.NS2_INDEX)[0]) < ns1_accesses

    @settings(max_examples=300, deadline=None)
    @given(run=pass_plans())
    def test_ns2_equals_the_dict_schedule(self, run):
        index, plans = run[0], run[1]
        assert schedule_ns2(plans, index) == oracle_ns2_batch(plans, index)

    @settings(max_examples=300, deadline=None)
    @given(run=pass_plans())
    def test_ns2_reads_the_keys_of_the_plans_one_split_orders(self, run):
        # both schedulers key buckets through one layout; NS2 reads the union of the plans'
        # keys once, in ascending (R, g, bucket), each billed to the first plan holding it
        index, plans = run[0], run[1]
        decode = BufferKeys(index).decode
        size_of, owner_of = {}, {}
        for p, plan in enumerate(plans):
            order = split_queries(plan, 1, index)
            for key, size in zip(order.keys.tolist(), order.sizes):
                assert size_of.setdefault(key, size) == size
                owner_of.setdefault(key, p)
        want = sorted(size_of, key=lambda key: itemgetter(1, 0, 2)(decode(key)))
        keys, sizes, owners, _alg_ops = schedule_ns2(plans, index)
        assert keys == want
        assert sizes == [size_of[key] for key in want]
        assert owners == [owner_of[key] for key in want]

    def test_split_segments_tile_each_range(self):
        # widths above 2**53 that float64 does not hold: float(3**36) is 3**36 + 15
        ranges = [(0, 0, 17), (1, 40, 43), (2, 5, 6), (3, -3**36, 0), (4, 7, 7 + 5**23),
                  (5, 2, 2 + 7**19), (6, 0, 2**53 + 1)]
        for splits in (1, 3, 10, 25):
            segs = reference_split_queries(ranges, splits)
            for qi, lo, hi in ranges:
                mine = sorted((s for s in segs if s[0] == qi), key=lambda s: s[1])
                assert mine[0][1] == lo and mine[-1][2] == hi
                assert all(a[2] == b[1] for a, b in zip(mine, mine[1:]))  # no gaps
                # the production cuts: ids on both sides of every edge land in the
                # reference's segments, which two copies of the range interleave
                pair = [(0, lo, hi), (1, lo, hi)]
                ids = sorted({edge + d for _qi, a, b in mine for edge in (a, b) for d in (-1, 0)})
                reference = reference_split_queries(pair, splits)
                assert one_pass_order(pair, splits, ids) == (visit_order(reference, ids),
                                                             len(reference))

    def test_split_queries_stays_inside_a_range_wider_than_2_53(self):
        # the range's last segment ends at 0, not at 15, so bucket 3 is not visited
        ranges = [(0, -3**36, 0)]
        for splits in (1, 10):
            assert one_pass_order(ranges, splits, [-5, 3]) == ([0], splits)

    def test_split_edges_follow_linspace(self):
        # ranges of one width share their offsets; the edges must still be
        # the rounded linspace cut of every range
        ranges = [(0, 0, 8), (1, 5, 13), (2, -16, -8), (3, 3, 6), (4, 7, 7)]
        for splits in (1, 3, 5, 20):
            expected = []
            for qi, lo, hi in ranges:
                if hi > lo:
                    nseg = min(splits, hi - lo)
                    edges = lo + np.round(np.linspace(0, hi - lo, nseg + 1)).astype(int)
                    expected += [(qi, int(a), int(b)) for a, b in zip(edges, edges[1:])]
            expected.sort(key=lambda seg: (seg[1], seg[0], seg[2]))
            assert reference_split_queries(ranges, splits) == expected

    def test_split_one_equals_ns1_plan(self):
        ranges = [(0, 3, 9), (1, 1, 7), (2, 5, 11), (3, 4, 4)]
        ids = [-2, 1, 2, 5, 6, 8, 10, 30]
        order, segments = one_pass_order(ranges, 1, ids)
        assert order == visit_order(schedule_ns1(ranges), ids)
        assert segments == 3  # one per non-empty range

    def test_split_interleaves_by_position(self):
        segs = reference_split_queries([(0, 0, 100), (1, 0, 100)], 4)
        starts = [s[1] for s in segs]
        assert starts == sorted(starts)
        # neighboring segments alternate owners instead of finishing query 0 first
        assert [s[0] for s in segs[:4]] == [0, 1, 0, 1]
        # copies of a range with another range of their start between them are not merged
        ranges, ids = [(0, 0, 8), (1, 0, 4), (2, 0, 8)], list(range(10))
        assert one_pass_order(ranges, 1, ids) == ([*range(8), *range(4), *range(8)], 3)
        assert one_pass_order(ranges, 2, ids) == ([0, 1, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3,
                                                   4, 5, 6, 7, 4, 5, 6, 7], 6)

    def test_same_bucket_multiset_ns1_vs_split(self):
        ranges = [(0, 2, 19), (1, 7, 30), (2, 0, 11)]
        ns1 = [(qi, b) for qi, lo, hi in schedule_ns1(ranges) for b in range(lo, hi)]
        split = [(qi, b) for qi, lo, hi in reference_split_queries(ranges, 10)
                 for b in range(lo, hi)]
        assert sorted(ns1) == sorted(split)

    def test_split_order_equals_walking_the_reference_segments(self):
        seen = Counter()

        @settings(max_examples=500, deadline=None)
        @given(case=split_cases())
        def check(case):
            index, plan, splits = case
            keys = BufferKeys(index)
            want, walked, segments = [], [], 0  # the reference segments, walked pass by pass
            for g, R, ranges in plan:
                reference = reference_split_queries(ranges.tolist(), splits)
                ids = index.occupied[g][0]
                walked += [[keys.key(g, R, ids[p]) for p in visit_order([seg], ids)]
                           for seg in reference]
                segments += len(reference)
                seen["empty"] += int((ranges[:, 2] <= ranges[:, 1]).sum())
                seen.update(fold_cases(ranges.tolist()))
                seen["far"] += any(abs(b) >= 2**40 for b in ids)
                seen["wide end"] += splits > 1 and any(
                    hi - lo > 2**53 and bisect_left(ids, hi - 60) < bisect_left(ids, hi + 61)
                    for _qi, lo, hi in ranges.tolist())
            walked = [seg for seg in walked if seg]  # the segments that hold an occupied id
            want = [key for seg in walked for key in seg]
            order = split_queries(plan, splits, index)
            assert order.keys[order.accesses()].tolist() == want
            assert len(order) == len(want)
            assert order.segments == segments  # empty segments count too
            # the folded segments, each copy walked in turn, are the reference's segments
            starts = np.cumsum(order.widths) - order.widths
            folded = [order.keys[order.visits[a:a + w]].tolist()
                      for a, w in zip(starts.tolist(), order.widths.tolist())]
            assert [seg for seg, c in zip(folded, order.copies.tolist())
                    for _ in range(c)] == walked
            seen["folded copies"] += int((order.copies > 1).sum())
            # what the billing reads: each key's size, use count and first and last access
            distinct = order.keys.tolist()
            assert distinct == sorted(set(want))
            assert order.uses.tolist() == [want.count(key) for key in distinct]
            assert order.first.tolist() == [want.index(key) for key in distinct]
            assert order.last.tolist() == [len(want) - 1 - want[::-1].index(key)
                                           for key in distinct]
            sizes = {(g, b): POINT_ID_BYTES * c
                     for g, (ids, counts) in index.occupied.items() for b, c in zip(ids, counts)}
            assert order.sizes == [sizes[g, b] for g, _R, b in map(keys.decode, distinct)]
            passes = [(g, R) for g, R, _ranges in plan]
            seen["repeated pass"] += len(set(passes)) < len(passes)
            seen["projections"] += len({g for g, _R in passes}) > 1
            seen["misses every id"] += bool(plan) and not want and segments > 0

        check()
        # plans repeated passes, spanned projections, met empty ranges and ranges that miss
        # every occupied id, ids at least 2**40 from 0, ids by the last cut of a split range
        # wider than 2**53, and rows that repeat the row before them, or the one before that
        assert all(seen[name] > 20 for name in ("repeated pass", "projections", "empty",
                                                "misses every id", "far", "wide end")), seen
        assert seen["folded copies"] > 100, seen
        assert all(seen[case] > 100 for case in FOLD_CASES), seen

    # each plan pass by pass as (g, R, rows), over OCCUPIED: a plan without passes, one of
    # passes without rows, and the point search's one-row passes, repeated and empty ones too
    OCCUPIED = OccupiedIndex({0: ([1, 3, 4, 9], [1, 2, 1, 3]), 1: ([2, 5], [4, 1])})
    EDGE_PLANS = {"no passes": [],
                  "no rows": [(0, 1, []), (1, 2, []), (0, 1, [])],
                  "one-row passes": [(0, 1, [(0, 0, 5)]), (0, 1, [(0, 0, 5)]), (1, 1, [(0, 2, 6)]),
                                     (0, 2, [(0, 3, 10)]), (1, 1, [(0, 6, 6)]),
                                     (0, 1, [(0, 0, 5)]), (1, 1, [(0, 5, 6)])]}

    @pytest.mark.parametrize("name", EDGE_PLANS)
    def test_plans_without_rows_or_of_one_row_passes_equal_the_oracles(self, name):
        plan = [(g, R, np.array(rows, dtype=np.int64).reshape(-1, 3))
                for g, R, rows in self.EDGE_PLANS[name]]
        index = self.OCCUPIED
        key = BufferKeys(index).key
        for splits in (1, 3):
            want = [key(g, R, index.occupied[g][0][p]) for g, R, ranges in plan
                    for p in visit_order(reference_split_queries(ranges.tolist(), splits),
                                         index.occupied[g][0])]
            order = split_queries(plan, splits, index)
            assert order.keys[order.accesses()].tolist() == want
            assert order.segments == sum(len(reference_split_queries(ranges.tolist(), splits))
                                         for _g, _R, ranges in plan)
        plans = [plan, plan[:2], []]
        assert schedule_ns2(plans, index) == oracle_ns2_batch(plans, index)
        if name != "one-row passes":  # nothing to read, so no access and no check
            assert not order.keys.size and order.segments == 0
            assert not len(order) and not order.visits.size
            assert schedule_ns2(plans, index) == ([], [], [], [0, 0, 0])

    def test_split_rejects_zero_splits(self):
        index = OccupiedIndex({0: ([1, 2], [1, 1])})
        with pytest.raises(ValueError):
            split_queries([(0, 1, np.array([[0, 0, 4]]))], 0, index)


def bisect_region(edges, bucket):
    """Oracle: the region r of a bucket id, ceil(edges[r]) <= id < ceil(edges[r + 1]), in ints.

    Ids below the first cut fall in region 0 and ids past the last in the
    last region.
    """
    cuts = [math.ceil(edge) for edge in edges.tolist()]
    return min(max(bisect_right(cuts, bucket) - 1, 0), len(cuts) - 2)


def reference_profile(index, dataset, num_queries, regions, seed):
    """Oracle: per-slot landing counts over the whole span, summed per region."""
    footprint = profile_footprint(index, dataset, num_queries, seed)
    edges = np.empty((index.m, regions + 1))
    means = np.zeros((index.m, regions))
    for g in range(index.m):
        lo, hi = int(index.bucket_lo[g]), int(index.bucket_hi[g])
        edges[g] = np.linspace(lo, hi + 1, regions + 1)
        hits = footprint[:, g]
        hits = hits[(hits >= lo) & (hits <= hi)]
        counts = np.bincount(hits - lo, minlength=hi - lo + 1)
        slots = np.arange(lo, hi + 1)
        region = np.clip(np.searchsorted(edges[g], slots, side="right") - 1, 0, regions - 1)
        totals = np.bincount(region, weights=counts, minlength=regions)
        width = np.bincount(region, minlength=regions)
        nonzero = width > 0
        means[g, nonzero] = totals[nonzero] / width[nonzero]
    return edges, means


class TestFrequencyProfile:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), objects=st.integers(1, 6), per_object=st.integers(1, 5),
           d=st.integers(1, 4), spread=st.sampled_from([0.01, 0.5, 5.0, 60.0]),
           regions=st.integers(1, 15), num_queries=st.integers(1, 300))
    def test_equals_per_slot_oracle(self, seed, objects, per_object, d, spread, regions,
                                    num_queries):
        ds = mmlsh.synth_dataset(S=objects, points_per_object=per_object, d=d,
                                 cluster_spread=spread, seed=seed)
        params = mmlsh.derive_params(0.3, 0.5, 2, 2.184)
        params = mmlsh.LshParams(**{**params.__dict__, "m": 4, "l": 2})
        idx = mmlsh.build_index(ds, params, seed=seed)
        profile = build_frequency_profile(idx, ds, num_queries=num_queries,
                                          regions_per_projection=regions, seed=seed)
        edges, means = reference_profile(idx, ds, num_queries, regions, seed)
        assert np.array_equal(profile.edges, edges)
        assert np.array_equal(profile.means, means)

    def test_queries_are_drawn_from_the_widened_coordinates_box(self, small_dataset,
                                                                 small_index, monkeypatch):
        """The same draws as from the box of the coordinates widened to float64."""
        asked = []
        hash_query = small_index.hash_query
        monkeypatch.setattr(small_index, "hash_query", lambda q: asked.append(q) or hash_query(q))
        footprint = profile_footprint(small_index, small_dataset, 300, seed=9)
        coords = small_dataset.coords.astype(np.float64)
        want = np.random.default_rng(9).uniform(coords.min(axis=0), coords.max(axis=0),
                                                size=(300, small_dataset.dimension))
        assert len(asked) == 1 and asked[0].tobytes() == want.tobytes()
        assert np.array_equal(footprint, hash_query(want))

    def test_single_region_is_global_mean(self, small_dataset, small_index):
        profile = build_frequency_profile(small_index, small_dataset, num_queries=500,
                                          regions_per_projection=1, seed=4)
        footprint = profile_footprint(small_index, small_dataset, 500, seed=4)
        for g in range(small_index.m):
            lo, hi = int(small_index.bucket_lo[g]), int(small_index.bucket_hi[g])
            hits = footprint[:, g]
            in_range = int(np.count_nonzero((hits >= lo) & (hits <= hi)))
            assert profile.means[g, 0] == pytest.approx(in_range / (hi - lo + 1))

    def test_regions_partition_occupied_span(self, small_dataset, small_index):
        profile = build_frequency_profile(small_index, small_dataset, num_queries=200,
                                          regions_per_projection=10, seed=4)
        for g in range(small_index.m):
            assert profile.edges[g, 0] == small_index.bucket_lo[g]
            assert profile.edges[g, -1] == small_index.bucket_hi[g] + 1
            assert np.all(np.diff(profile.edges[g]) > 0)

    def test_region_lookup_clamps(self):
        profile = FrequencyProfile(edges=np.array([[0.0, 5.0, 10.0]]),
                                   means=np.array([[1.0, 9.0]]))
        assert profile.frequency(0, -100) == 1.0
        assert profile.frequency(0, 2) == 1.0
        assert profile.frequency(0, 7) == 9.0
        assert profile.frequency(0, 100) == 9.0

    @pytest.mark.parametrize("edges, means, message", [
        ([[0.0, 5.0, 10.0]], [[np.nan, 1.0]], "means must be finite"),
        ([[0.0, 5.0, 10.0]], [[np.inf, 1.0]], "means must be finite"),
        ([[0.0, 5.0, 10.0]], [[1.0, -0.5]], "means must be finite and >= 0"),
        ([[0.0, np.nan, 10.0]], [[1.0, 1.0]], "edges must be finite"),
        ([[0.0, 5.0, np.inf]], [[1.0, 1.0]], "edges must be finite"),
        ([[0.0, 5.0, 4.0]], [[1.0, 1.0]], "non-decreasing"),
        ([[0.0, 5.0, 10.0]], [[2.0**53, 1.0]], r"below 2\*\*53"),
        ([[0.0, 5.0, 2.0**63]], [[1.0, 1.0]], "ceilings that fit int64"),
        ([[-(2.0**64), 5.0, 10.0]], [[1.0, 1.0]], "ceilings that fit int64"),
    ])
    def test_malformed_profile_is_refused(self, edges, means, message):
        with pytest.raises(ValueError, match=message):
            FrequencyProfile(edges=np.array(edges), means=np.array(means))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lookup_equals_numpy_searchsorted(self, data):
        """The build's region, by the integer cuts ceil(edges), also beyond 2**53 and on the edges.

        Beyond 2**53 a bucket id rounds to float64, so a float comparison
        with the edges could put it in another region than the build does.
        """
        base = data.draw(st.sampled_from([0, -7, 2**53 - 4, 2**53 + 1, 2**62 - 40, -(2**62)]))
        projections = data.draw(st.integers(1, 3))
        regions = data.draw(st.integers(1, 5))
        near = st.integers(base - 40, base + 40)
        edges = np.sort(np.array(data.draw(st.lists(
            st.lists(near, min_size=regions + 1, max_size=regions + 1),
            min_size=projections, max_size=projections)), dtype=np.float64), axis=1)
        means = np.arange(projections * regions, dtype=np.float64).reshape(projections, regions)
        profile = FrequencyProfile(edges=edges, means=means)
        on_edges = st.sampled_from([int(e) for e in edges.ravel()])
        for bucket in data.draw(st.lists(st.one_of(near, on_edges), min_size=1, max_size=20)):
            g = data.draw(st.integers(0, projections - 1))
            r = int(np.searchsorted(np.ceil(edges[g]).astype(np.int64), bucket, side="right")) - 1
            r = min(max(r, 0), regions - 1)
            assert profile.region_of(g, bucket) == r
            assert profile.frequency(g, bucket) == float(means[g, r])

    def test_lookup_beyond_2_53_puts_a_bucket_where_the_build_counts_it(self):
        edges = np.linspace(2**60, 2**60 + 40960, 11)
        profile = FrequencyProfile(edges=edges[None], means=np.arange(10.0)[None])
        cut = int(np.ceil(edges[1]))  # the build counts cut - 1 in region 0 and cut in region 1
        assert float(cut - 1) == edges[1]  # a float comparison would put cut - 1 in region 1
        assert [profile.region_of(0, b) for b in (cut - 1, cut)] == [0, 1]
        assert profile.frequency(0, cut - 1) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_demand_table_holds_each_occupied_buckets_admission_demand(self, data):
        """max(0, frequency - 1) at each id's (g, rank), and 0 past g's last rank.

        Ids lie on and beside the integer cuts, also beyond 2**53, where a
        float comparison could put an id in another region.
        """
        base = data.draw(st.sampled_from([0, -7, 2**53 - 4, 2**53 + 1, 2**62 - 40, -(2**62)]))
        projections = data.draw(st.integers(1, 3))
        regions = data.draw(st.integers(1, 5))
        near = st.integers(base - 40, base + 40)
        edges = np.sort(np.array(data.draw(st.lists(
            st.lists(near, min_size=regions + 1, max_size=regions + 1),
            min_size=projections, max_size=projections)), dtype=np.float64), axis=1)
        means = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.25]), min_size=regions,
                     max_size=regions), min_size=projections, max_size=projections)))
        profile = FrequencyProfile(edges=edges, means=means)
        by_cuts = st.sampled_from(sorted({math.ceil(edge) + d for edge in edges.ravel().tolist()
                                          for d in (-1, 0)}))
        occupied = [sorted(data.draw(st.sets(st.one_of(near, by_cuts), min_size=1, max_size=30)))
                    for _ in range(projections)]
        index = OccupiedIndex({g: (ids, [1] * len(ids)) for g, ids in enumerate(occupied)})
        table = _MmlshEvictor(profile, index).demand
        assert table.shape == (projections, max(map(len, occupied))) and table.dtype == np.float64
        for g, ids in enumerate(occupied):
            want = [max(0.0, float(means[g, bisect_region(edges[g], b)]) - 1.0) for b in ids]
            assert table[g, :len(ids)].tolist() == want
            assert want == [max(0.0, float(profile.frequency(g, b)) - 1.0) for b in ids]
            assert not table[g, len(ids):].any()

    def test_key_space_and_demand_table_are_built_once_per_index_and_profile(self, monkeypatch):
        calls = Counter()
        counting(monkeypatch, OccupiedIndex, "occupied_buckets", calls)
        index, profile = OccupiedIndex({0: ([1, 4], [1, 1]), 1: ([2], [3])}), uniform_profile(2)
        plan = [(0, 1, np.array([[0, 0, 5]])), (1, 2, np.array([[0, 2, 3]]))]
        for _ in range(3):
            split_queries(plan, 3, index)
            schedule_ns2([plan], index)
        table = _MmlshEvictor(profile, index).demand
        assert calls["occupied_buckets"] == index.m  # read once, for the index's key space
        assert _MmlshEvictor(profile, index).demand is table
        assert _MmlshEvictor(uniform_profile(2), index).demand is not table
        other = OccupiedIndex(index.occupied)
        assert _MmlshEvictor(profile, other).demand is not table
        assert calls["occupied_buckets"] == 2 * index.m

    def test_save_load_roundtrip(self, small_dataset, small_index, tmp_path):
        profile = build_frequency_profile(small_index, small_dataset, num_queries=100, seed=1)
        path = tmp_path / "profile.npz"
        profile.save(path)
        loaded = FrequencyProfile.load(path)
        assert np.array_equal(loaded.edges, profile.edges)
        assert np.array_equal(loaded.means, profile.means)


class TestTrace:
    def test_trace_records_misses_and_evictions(self):
        trace = []
        buf = BufferState(capacity_bytes=100, trace=trace)
        access_bucket((0, 1, 2), 60, buf)
        access_bucket((0, 1, 2), 60, buf)  # a hit: the tick between two misses
        access_bucket((0, 1, 3), 60, buf)  # evicts (0,1,2)
        assert trace == [(1, (0, 1, 2), ()), (3, (0, 1, 3), ((0, 1, 2),))]
        assert hit_gaps(trace, buf.clock) == [0, 1, 0]

    def test_io_ms_reconstructable_from_trace(self):
        trace = []
        buf = BufferState(capacity_bytes=300, trace=trace)
        rng = np.random.default_rng(3)
        sizes = {}
        for k in rng.integers(0, 12, size=200):
            key = (0, 1, int(k))
            sizes[key] = 20 + 10 * int(k)
            access_bucket(key, sizes[key], buf)
        replayed = sum(buf.cost.miss_ms(sizes[key]) for _tick, key, _evicted in trace)
        assert replayed == pytest.approx(buf.io_stats.io_ms)
