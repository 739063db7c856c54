import math
from bisect import bisect_left
from collections import Counter, OrderedDict
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmlsh
from mmlsh import bench, buffering
from mmlsh.buffering import (_HEAP_SLACK, MMLSH, NS1, NS2, POINT_ID_BYTES, BufferState,
                             CostModel, FrequencyProfile, QueryStats, SchedulerConfig, _Entry,
                             _MmlshEvictor, access_bucket, build_frequency_profile, evict_lru,
                             profile_footprint, schedule_ns1, schedule_ns2, split_queries)


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


class TestCostModel:
    def test_default_miss_arithmetic(self):
        cost = CostModel()
        # 0.312 MB at 0.156 MB/ms is 2 ms of transfer on top of one 8.5 ms seek
        assert cost.miss_ms(312_000) == pytest.approx(10.5)
        assert cost.read_ms(156_000) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostModel(seek_ms=0.0)


class TestLruBuffer:
    def test_hit_miss_evict_triple(self):
        buf = BufferState(capacity_bytes=100)
        assert access_bucket(("a",), 60, buf)[0] is False
        assert access_bucket(("a",), 60, buf)[0] is True
        assert access_bucket(("b",), 60, buf)[0] is False  # evicts a
        assert ("a",) not in buf
        assert access_bucket(("a",), 60, buf)[0] is False

    def test_hit_refreshes_recency(self):
        buf = BufferState(capacity_bytes=100)
        access_bucket(("a",), 40, buf)
        access_bucket(("b",), 40, buf)
        access_bucket(("a",), 40, buf)  # a becomes most recent
        access_bucket(("c",), 40, buf)  # must evict b, not a
        assert ("a",) in buf and ("b",) not in buf

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
        assert ("big",) not in buf and buf.used_bytes == 0

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

    def test_occupancy_invariant(self):
        rng = np.random.default_rng(23)
        buf = BufferState(capacity_bytes=777)
        for k in rng.integers(0, 40, size=1000):
            access_bucket((int(k),), int(rng.integers(10, 200)), buf)
            assert buf.used_bytes == sum(e.size_bytes for e in buf.resident.values())
            assert buf.used_bytes <= buf.capacity_bytes


def _seed_buffer(entries, capacity=10_000):
    """entries: list of (key, size, insert_tick, est_frequency)."""
    buf = BufferState(capacity_bytes=capacity)
    for key, size, tick, freq in entries:
        buf.clock = tick
        access_bucket(key, size, buf)
        buf.resident[key].est_frequency = freq
    return buf


def _evict_mmlsh(buf, current_bucket):
    return _MmlshEvictor()(buf, current_bucket)


class TestMmlshEviction:
    """Level 1: residents within 2 buckets are near; window = resident count."""

    def test_prefers_lowest_frequency_among_old_and_far(self):
        buf = _seed_buffer([
            ((0, 1, 0), 10, 0, 5.0),   # far (distance 4), old
            ((0, 1, 5), 10, 0, 0.0),   # near (distance 1): protected
            ((1, 1, 3), 10, 0, 2.0),   # other projection: infinitely far, old
        ])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == (1, 1, 3)

    def test_frequency_tie_breaks_by_larger_distance(self):
        buf = _seed_buffer([
            ((0, 1, 0), 10, 0, 1.0),   # distance 4
            ((0, 1, 8), 10, 0, 1.0),   # distance 4
            ((0, 1, 12), 10, 0, 1.0),  # distance 8
        ])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == (0, 1, 12)

    def test_distance_tie_breaks_by_lower_key(self):
        buf = _seed_buffer([
            ((0, 1, 0), 10, 0, 1.0),   # distance 4
            ((0, 1, 8), 10, 0, 1.0),   # distance 4
        ])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == (0, 1, 0)

    def test_relaxes_distance_then_recency(self):
        # all residents near the query: distance filter must be dropped
        buf = _seed_buffer([
            ((0, 1, 4), 10, 0, 3.0),
            ((0, 1, 5), 10, 0, 1.0),
        ])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == (0, 1, 5)
        # all residents recent: recency filter must be dropped too
        buf = _seed_buffer([((0, 1, 4), 10, 99, 3.0), ((0, 1, 5), 10, 99, 1.0)])
        buf.clock = 100
        assert _evict_mmlsh(buf, (0, 1, 4)) == (0, 1, 5)

    def test_index_of_an_lru_filled_buffer_follows_insert_order(self):
        buf = BufferState(capacity_bytes=20)
        access_bucket((0, 1, 5), 10, buf)  # tick 1
        buf.clock = 9
        access_bucket((0, 1, 0), 10, buf)  # tick 10
        access_bucket((0, 1, 5), 10, buf)  # a hit: resident order is now use order
        # at tick 12 the window is 2, so only (0, 1, 5) is old; both are far
        access_bucket((1, 1, 0), 10, buf, _MmlshEvictor())
        assert (0, 1, 5) not in buf and (0, 1, 0) in buf

    def test_profile_seeds_estimated_frequency(self):
        edges = np.array([[0.0, 10.0]])
        means = np.array([[7.5]])
        profile = FrequencyProfile(edges=edges, means=means)
        evictor = _MmlshEvictor(profile)
        buf = BufferState(capacity_bytes=100)
        access_bucket((0, 1, 3), 10, buf, evictor)  # seeded to 7.5, less the admitting use
        assert buf.resident[(0, 1, 3)].est_frequency == 6.5
        access_bucket((0, 1, 3), 10, buf, evictor)
        assert buf.resident[(0, 1, 3)].est_frequency == 5.5


def reference_evict_mmlsh(buffer, current_bucket, tiers: Counter | None = None):
    """Oracle: the three-criteria rule applied by scanning every resident.

    When given, `tiers` counts the relaxation tier that chose each victim.
    """
    if not buffer.resident:
        raise RuntimeError("cannot evict from an empty buffer")
    g, level, pos = current_bucket
    window = len(buffer.resident)
    threshold = 2 * level
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
        for tier, ok in enumerate((old and far, old, True)):
            if ok and (best[tier] is None or cand < best[tier]):
                best[tier] = cand
    tier = next(t for t, b in enumerate(best) if b is not None)
    if tiers is not None:
        tiers[tier] += 1
    key = best[tier][2]
    buffer._evict(key)
    return key


class ReferenceEvictor(_MmlshEvictor):
    """The MMLSH policy with the full-scan oracle in place of `evict_mmlsh`."""

    def __init__(self, profile, tiers):
        super().__init__(profile)
        self.tiers = tiers

    def __call__(self, buffer, current_bucket):
        return reference_evict_mmlsh(buffer, current_bucket, self.tiers)


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
    projections = draw(st.integers(1, 3))
    levels = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3, unique=True))
    span = draw(st.integers(1, 40))  # ids 0..span-1: up to 39 apart, more than any threshold
    # sweeps over a pass's buckets, as replay makes them, with jumps between passes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    accesses = []
    for _ in range(draw(st.integers(1, 40))):
        g, level = int(rng.integers(projections)), int(rng.choice(levels))
        bucket = int(rng.integers(span))
        for _ in range(int(rng.integers(1, 12))):
            accesses.append((g, level, bucket))
            bucket = (bucket + int(rng.integers(0, 3))) % span
    sizes = {key: int(rng.integers(1, 61)) for key in sorted(set(accesses))}
    capacity = draw(st.integers(1, 300))
    profile = None
    if draw(st.booleans()):
        regions = draw(st.integers(1, 4))
        edges = np.array([np.linspace(0, span, regions + 1)] * projections)
        means = np.array(draw(st.lists(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
                     min_size=regions, max_size=regions),
            min_size=projections, max_size=projections)))
        profile = FrequencyProfile(edges=edges, means=means)
    lru_prefix = draw(st.one_of(st.just(0), st.integers(0, len(accesses))))
    mmlsh_cut = draw(st.one_of(st.just(len(accesses)), st.integers(lru_prefix, len(accesses))))
    return accesses, sizes, capacity, profile, lru_prefix, mmlsh_cut


class TestMmlshEvictionOracle:
    def test_trace_equals_full_scan(self):
        tiers = Counter()

        @settings(max_examples=300, deadline=None)
        @given(run=access_runs())
        def check(run):
            accesses, sizes, capacity, profile, lru_prefix, mmlsh_cut = run
            got = replay_accesses(lambda: _MmlshEvictor(profile), accesses, sizes, capacity,
                                  lru_prefix, mmlsh_cut)
            want = replay_accesses(lambda: ReferenceEvictor(profile, tiers), accesses, sizes,
                                   capacity, lru_prefix, mmlsh_cut)
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
            accesses, sizes, capacity, profile, lru_prefix, mmlsh_cut = run
            bounds.clear()
            replay_accesses(lambda: _MmlshEvictor(profile), accesses, sizes, capacity,
                            lru_prefix, mmlsh_cut)
            assert all(a < b for a, b in zip(bounds, bounds[1:])), bounds
            evictions += len(bounds)

        check()
        assert evictions > 1_000

    def test_heap_stays_within_a_multiple_of_the_residents(self):
        rng = np.random.default_rng(5)
        keys = [(int(g), int(level), int(b)) for g, level, b in zip(
            rng.integers(0, 3, 20_000), rng.choice([1, 2, 4], 20_000),
            rng.integers(0, 40, 20_000))]  # few enough keys that old residents get hits
        sizes = {key: int(rng.integers(1, 40)) for key in set(keys)}
        profile = FrequencyProfile(edges=np.array([np.linspace(0, 40, 11)] * 3),
                                   means=rng.uniform(0, 30, size=(3, 10)))
        evictor = _MmlshEvictor(profile)
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
                     if k in buf and buf.resident[k].insert_tick == tick]
            assert young == sorted((e.insert_tick, k) for k, e in buf.resident.items()
                                   if e.insert_tick >= evictor.bound)
        assert buf.io_stats.evictions > 10_000
        assert fullest > _HEAP_SLACK - 1  # stale entries pile up until a rebuild clears them

    def test_only_a_use_that_lowers_an_old_demand_pushes(self):
        # demand 5 - 1 = 4 on projection 0, 49 on projection 1
        profile = FrequencyProfile(edges=np.array([[0.0, 100.0]] * 2),
                                   means=np.array([[5.0], [50.0]]))
        evictor = _MmlshEvictor(profile)
        buf = BufferState(capacity_bytes=40)
        for key in [(1, 1, 0), (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 2), (0, 1, 2),
                    (0, 1, 3)]:
            access_bucket(key, 10, buf, evictor)
        # at tick 7 the bound is 7 - 4 = 3: ticks 1 and 2 are old, the far (0, 1, 0) goes
        assert buf.io_stats.evictions == 1 and (0, 1, 0) not in buf
        assert evictor.bound == 3
        heap = evictor.heap
        size = len(heap)
        access_bucket((0, 1, 3), 10, buf, evictor)  # a hit on a young resident
        assert buf.resident[(0, 1, 3)].est_frequency == 3.0
        assert len(heap) == size
        access_bucket((1, 1, 0), 10, buf, evictor)  # a hit on the old resident
        assert len(heap) == size + 1
        assert (48.0, (1, 1, 0), 1) in heap
        access_bucket((0, 1, 1), 10, buf, evictor)  # back to pass (0, 1), on a young one
        assert len(heap) == size + 1


class OccupiedIndex:
    """Stands in for an LshIndex in a replay: each projection's occupied ids and counts."""

    def __init__(self, occupied):
        self.occupied = occupied  # projection -> (ascending ids, entry counts)

    def occupied_buckets(self, g):
        ids, counts = self.occupied[g]
        return np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64)


def oracle_replay_plans(strategy, plans, index, buffer, stats_list, scheduler):
    """Oracle: `bench.replay_plans` with one `access_bucket` call per access."""
    if strategy == NS2:
        oracle_replay_ns2(plans, index, buffer, stats_list)
        return
    evict = _MmlshEvictor(scheduler.profile) if strategy == MMLSH else evict_lru
    for stats, plan in zip(stats_list, plans):
        for g, R, ranges in plan:
            ranges = ranges.tolist()
            ids, counts = index.occupied_buckets(g)
            ids, sizes = ids.tolist(), (counts * POINT_ID_BYTES).tolist()
            if strategy == MMLSH:
                order, segments = split_queries(ranges, scheduler.query_splits, ids)
                stats.alg_ops += segments
            else:
                order = visit_order(schedule_ns1(ranges), ids)
            for p in order:
                access_bucket((g, R, ids[p]), sizes[p], buffer, evict, stats)


def oracle_schedule_ns2(ranges):
    """Oracle: the distinct buckets of (qi, lo, hi) ranges, ascending, each with its consumers."""
    need = {}
    for qi, lo, hi in ranges:
        for bucket in range(lo, hi):
            need.setdefault(bucket, []).append(qi)
    return [(bucket, need[bucket]) for bucket in sorted(need)]


def oracle_replay_ns2(plans, index, buffer, stats_list):
    """Oracle: the NS2 batch with a dict of consumers per bucket, range by range."""
    passes = {}
    for query_idx, plan in enumerate(plans):
        for g, R, ranges in plan:
            passes.setdefault((R, g), []).extend(
                (query_idx, lo, hi) for _qi, lo, hi in ranges.tolist())
    for (R, g) in sorted(passes):
        ranges = passes[(R, g)]
        ids, counts = index.occupied_buckets(g)
        ids, sizes = ids.tolist(), (counts * POINT_ID_BYTES).tolist()
        schedule = oracle_schedule_ns2(bench._slices(ids, ranges))
        for i, consumers in schedule:
            access_bucket((g, R, ids[i]), sizes[i], buffer, evict_lru, stats_list[consumers[0]])
        for query_idx, _lo, _hi in ranges:
            stats_list[query_idx].alg_ops += len(schedule)


@st.composite
def pass_plans(draw):
    """Query plans over sparse occupied buckets, a profile or none, and a buffer size.

    A pass's ranges overlap, so it revisits keys, interleaved under MMLSH's
    split order, and passes repeat within and across queries, so later ones
    find keys resident. Some ranges are empty (hi <= lo) and some lie beyond
    the occupied ids. Each pass's ranges are an int64 array of (qi, lo, hi)
    rows, as the searches record them. Bucket sizes vary, and the capacity
    runs from the smallest bucket to the whole working set, so small buffers
    evict often and some buckets bypass them.
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
            plan.append((g, R, np.array([(qi, lo, lo + int(rng.integers(-2, 13)))
                                         for qi, lo in enumerate(starts)], dtype=np.int64)))
        plans.append(plan)
    sizes = {(g, R, b): POINT_ID_BYTES * count
             for plan in plans for g, R, ranges in plan
             for b, count in zip(*occupied[g])
             if any(lo <= b < hi for _qi, lo, hi in ranges)}
    smallest = POINT_ID_BYTES * min(min(counts) for _ids, counts in occupied.values())
    capacity = draw(st.integers(smallest, max(smallest, sum(sizes.values()))))
    profile = None
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
            trace, io, _stats, _residents, _clock = got
            index, capacity = run[0], run[2]
            sizes = {(g, b): POINT_ID_BYTES * count
                     for g, (ids, counts) in index.occupied.items() for b, count in zip(ids, counts)}
            seen[strategy, run[3] is not None] += 1
            seen["evictions"] += io.evictions
            seen["bypasses"] += sum(sizes[g, b] > capacity for _t, (g, _R, b), _h, _e in trace)
            seen["hit runs"] += sum(a[2] == b[2] == "hit" for a, b in zip(trace, trace[1:]))

        check()
        # NS1 and MMLSH with and without a profile ran, evicting, bypassing and hitting in runs
        assert all(seen[s, p] > 0 for s in (NS1, MMLSH) for p in (False, True)), seen
        assert all(seen[name] > 1_000 for name in ("evictions", "bypasses", "hit runs")), seen

    @settings(max_examples=500, deadline=None)
    @given(demand=st.one_of(st.floats(0, 2**53, exclude_max=True),
                            st.fractions(0, 1000, max_denominator=500).map(float),
                            st.integers(0, 2**53 - 1).map(float)),
           uses=st.integers(1, 3000))
    def test_one_subtraction_equals_single_clamped_decrements(self, demand, uses):
        bulk, single = _Entry(1, 0, demand), _Entry(1, 0, demand)
        policy = _MmlshEvictor()
        policy.use((0, 1, 0), bulk, uses)
        for _ in range(uses):
            policy.use((0, 1, 0), single)
        assert bulk.est_frequency == single.est_frequency == max(0.0, demand - uses)


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
            seen["NS1 prefix"] += lru_prefix > 0
            seen["evictions"] += got[1].evictions

        check()
        # the batch met repeated passes, empty and outlying ranges, an NS1 prefix and evictions
        assert all(seen[name] > 50 for name in ("repeat in a plan", "repeat across plans", "empty",
                                                "outside", "NS1 prefix", "evictions")), seen


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
        segments.extend((qi, lo + a, lo + b) for a, b in zip(offsets, offsets[1:]))
    segments.sort(key=itemgetter(1, 0, 2))
    return segments


def visit_order(segments, ids):
    """Positions into the ascending `ids` of the occupied buckets each segment holds, in turn."""
    return [p for _qi, lo, hi in segments
            for p in range(bisect_left(ids, lo), bisect_left(ids, hi))]


@st.composite
def split_cases(draw):
    """A pass's ranges, one per query index, over sparse occupied ids far from 0 or not."""
    base = draw(st.sampled_from([0, -37, -(2**40), 2**40 + 5]))
    near = st.integers(base - 60, base + 60)
    ids = draw(st.lists(st.one_of(near, st.integers(base - 2**41, base + 2**41)),
                        max_size=40, unique=True))
    widths = st.one_of(st.integers(0, 40), st.integers(2**40 - 3, 2**40 + 3))
    starts = draw(st.lists(st.tuples(near, widths), max_size=8))
    ranges = [(qi, lo, lo + width) for qi, (lo, width) in enumerate(starts)]
    return ranges, draw(st.sampled_from([1, 2, 3, 10, 25])), sorted(ids)


class TestScheduling:
    RANGES = [(0, 5, 8), (1, 6, 9)]

    def test_ns1_orders_whole_ranges(self):
        assert schedule_ns1(self.RANGES) == [(0, 5, 8), (1, 6, 9)]
        assert schedule_ns1([(0, 9, 12), (1, 2, 5)]) == [(1, 2, 5), (0, 9, 12)]

    def test_ns2_each_bucket_once_with_consumers(self):
        buckets, first = schedule_ns2(np.array(self.RANGES, dtype=np.int64))
        want = [(5, [0]), (6, [0, 1]), (7, [0, 1]), (8, [1])]
        assert buckets.tolist() == [b for b, _ in want]
        assert first.tolist() == [consumers[0] for _, consumers in want]
        assert len(buckets) == len(set(buckets.tolist()))

    def test_ns2_reads_fewer_buckets_than_ns1_on_overlap(self):
        ns1_accesses = sum(hi - lo for _, lo, hi in self.RANGES)
        assert len(schedule_ns2(np.array(self.RANGES, dtype=np.int64))[0]) < ns1_accesses

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 5), st.integers(-10, 30), st.integers(-10, 30)),
                         max_size=12))
    def test_ns2_equals_the_dict_schedule(self, rows):
        buckets, first = schedule_ns2(np.array(rows, dtype=np.int64).reshape(-1, 3))
        want = oracle_schedule_ns2(rows)
        assert buckets.tolist() == [b for b, _ in want]
        assert first.tolist() == [consumers[0] for _, consumers in want]

    def test_split_segments_tile_each_range(self):
        ranges = [(0, 0, 17), (1, 40, 43), (2, 5, 6)]
        for splits in (1, 3, 10, 25):
            segs = reference_split_queries(ranges, splits)
            for qi, lo, hi in ranges:
                mine = sorted((s for s in segs if s[0] == qi), key=lambda s: s[1])
                assert mine[0][1] == lo and mine[-1][2] == hi
                assert all(a[2] == b[1] for a, b in zip(mine, mine[1:]))  # no gaps

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
        order, segments = split_queries(ranges, 1, ids)
        assert order == visit_order(schedule_ns1(ranges), ids)
        assert segments == 3  # one per non-empty range

    def test_split_interleaves_by_position(self):
        segs = reference_split_queries([(0, 0, 100), (1, 0, 100)], 4)
        starts = [s[1] for s in segs]
        assert starts == sorted(starts)
        # neighboring segments alternate owners instead of finishing query 0 first
        assert [s[0] for s in segs[:4]] == [0, 1, 0, 1]

    def test_same_bucket_multiset_ns1_vs_split(self):
        ranges = [(0, 2, 19), (1, 7, 30), (2, 0, 11)]
        ns1 = [(qi, b) for qi, lo, hi in schedule_ns1(ranges) for b in range(lo, hi)]
        split = [(qi, b) for qi, lo, hi in reference_split_queries(ranges, 10)
                 for b in range(lo, hi)]
        assert sorted(ns1) == sorted(split)

    @settings(max_examples=300, deadline=None)
    @given(case=split_cases())
    def test_split_order_equals_walking_the_reference_segments(self, case):
        ranges, splits, ids = case
        reference = reference_split_queries(ranges, splits)
        order, segments = split_queries(ranges, splits, ids)
        assert order == visit_order(reference, ids)
        assert segments == len(reference)  # empty segments count too

    def test_split_rejects_zero_splits(self):
        with pytest.raises(ValueError):
            split_queries([(0, 0, 4)], 0, [1, 2])


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
    ])
    def test_malformed_profile_is_refused(self, edges, means, message):
        with pytest.raises(ValueError, match=message):
            FrequencyProfile(edges=np.array(edges), means=np.array(means))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lookup_equals_numpy_searchsorted(self, data):
        """Also beyond 2**53, where bucket ids round to float64, and on the edges."""
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
            r = int(np.searchsorted(edges[g], bucket, side="right")) - 1
            r = min(max(r, 0), regions - 1)
            assert profile.region_of(g, bucket) == r
            assert profile.frequency(g, bucket) == float(means[g, r])

    def test_save_load_roundtrip(self, small_dataset, small_index, tmp_path):
        profile = build_frequency_profile(small_index, small_dataset, num_queries=100, seed=1)
        path = tmp_path / "profile.npz"
        profile.save(path)
        loaded = FrequencyProfile.load(path)
        assert np.array_equal(loaded.edges, profile.edges)
        assert np.array_equal(loaded.means, profile.means)


class TestTrace:
    def test_trace_records_hits_misses_and_evictions(self):
        trace = []
        buf = BufferState(capacity_bytes=100, trace=trace)
        access_bucket((0, 1, 2), 60, buf)
        access_bucket((0, 1, 2), 60, buf)
        access_bucket((0, 1, 3), 60, buf)  # evicts (0,1,2)
        assert [t[2] for t in trace] == ["miss", "hit", "miss"]
        assert trace[0][3] is None and trace[2][3] == ((0, 1, 2),)
        ticks = [t[0] for t in trace]
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)

    def test_io_ms_reconstructable_from_trace(self):
        trace = []
        buf = BufferState(capacity_bytes=300, trace=trace)
        rng = np.random.default_rng(3)
        sizes = {}
        for k in rng.integers(0, 12, size=200):
            key = (0, 1, int(k))
            sizes[key] = 20 + 10 * int(k)
            access_bucket(key, sizes[key], buf)
        replayed = sum(buf.cost.miss_ms(sizes[key])
                       for _, key, outcome, _ in trace if outcome == "miss")
        assert replayed == pytest.approx(buf.io_stats.io_ms)
