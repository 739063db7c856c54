from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmlsh
from mmlsh.buffering import (BufferState, CostModel, FrequencyProfile, SchedulerConfig,
                             _MmlshEvictor, access_bucket, build_frequency_profile,
                             evict_lru, evict_mmlsh, profile_footprint, schedule_ns1,
                             schedule_ns2, split_queries, write_trace)


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


class TestMmlshEviction:
    def test_prefers_lowest_frequency_among_old_and_far(self):
        buf = _seed_buffer([
            ((0, 1, 0), 10, 0, 5.0),   # far (distance 4), old
            ((0, 1, 5), 10, 0, 0.0),   # near (distance 1): protected
            ((1, 1, 3), 10, 0, 2.0),   # other projection: infinitely far, old
        ])
        buf.clock = 100
        cfg = SchedulerConfig(strategy=mmlsh.MMLSH, recency_window=1, distance_threshold=2)
        assert evict_mmlsh(buf, (0, 1, 4), cfg) == (1, 1, 3)

    def test_frequency_tie_breaks_by_larger_distance(self):
        buf = _seed_buffer([
            ((0, 1, 0), 10, 0, 1.0),   # distance 4
            ((0, 1, 8), 10, 0, 1.0),   # distance 4... make it 8 for asymmetry
            ((0, 1, 12), 10, 0, 1.0),  # distance 8
        ])
        buf.clock = 100
        cfg = SchedulerConfig(strategy=mmlsh.MMLSH, recency_window=1, distance_threshold=2)
        assert evict_mmlsh(buf, (0, 1, 4), cfg) == (0, 1, 12)

    def test_distance_tie_breaks_by_lower_key(self):
        buf = _seed_buffer([
            ((0, 1, 0), 10, 0, 1.0),   # distance 4
            ((0, 1, 8), 10, 0, 1.0),   # distance 4
        ])
        buf.clock = 100
        cfg = SchedulerConfig(strategy=mmlsh.MMLSH, recency_window=1, distance_threshold=2)
        assert evict_mmlsh(buf, (0, 1, 4), cfg) == (0, 1, 0)

    def test_relaxes_distance_then_recency(self):
        # all residents near the query: distance filter must be dropped
        buf = _seed_buffer([
            ((0, 1, 4), 10, 0, 3.0),
            ((0, 1, 5), 10, 0, 1.0),
        ])
        buf.clock = 100
        cfg = SchedulerConfig(strategy=mmlsh.MMLSH, recency_window=1, distance_threshold=50)
        assert evict_mmlsh(buf, (0, 1, 4), cfg) == (0, 1, 5)
        # all residents recent: recency filter must be dropped too
        buf = _seed_buffer([((0, 1, 4), 10, 99, 3.0), ((0, 1, 5), 10, 99, 1.0)])
        buf.clock = 100
        cfg = SchedulerConfig(strategy=mmlsh.MMLSH, recency_window=1000,
                              distance_threshold=50)
        assert evict_mmlsh(buf, (0, 1, 4), cfg) == (0, 1, 5)

    def test_profile_seeds_estimated_frequency(self):
        edges = np.array([[0.0, 10.0]])
        means = np.array([[7.5]])
        profile = FrequencyProfile(edges=edges, means=means)
        cfg = SchedulerConfig(strategy=mmlsh.MMLSH, profile=profile)
        evictor = _MmlshEvictor(cfg, profile)
        buf = BufferState(capacity_bytes=100)
        access_bucket((0, 1, 3), 10, buf, evictor)
        assert buf.resident[(0, 1, 3)].est_frequency == 7.5
        buf.note_use((0, 1, 3))
        assert buf.resident[(0, 1, 3)].est_frequency == 6.5


class TestScheduling:
    RANGES = [(0, 5, 8), (1, 6, 9)]

    def test_ns1_orders_whole_ranges(self):
        assert schedule_ns1(self.RANGES) == [(0, 5, 8), (1, 6, 9)]
        assert schedule_ns1([(0, 9, 12), (1, 2, 5)]) == [(1, 2, 5), (0, 9, 12)]

    def test_ns2_each_bucket_once_with_consumers(self):
        plan = schedule_ns2(self.RANGES)
        assert plan == [(5, [0]), (6, [0, 1]), (7, [0, 1]), (8, [1])]
        buckets = [b for b, _ in plan]
        assert len(buckets) == len(set(buckets))

    def test_ns2_reads_fewer_buckets_than_ns1_on_overlap(self):
        ns1_accesses = sum(hi - lo for _, lo, hi in self.RANGES)
        assert len(schedule_ns2(self.RANGES)) < ns1_accesses

    def test_split_segments_tile_each_range(self):
        ranges = [(0, 0, 17), (1, 40, 43), (2, 5, 6)]
        for splits in (1, 3, 10, 25):
            segs = split_queries(ranges, splits)
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
            assert split_queries(ranges, splits) == expected

    def test_split_one_equals_ns1_plan(self):
        ranges = [(0, 3, 9), (1, 1, 7), (2, 5, 11)]
        assert split_queries(ranges, 1) == schedule_ns1(ranges)

    def test_split_interleaves_by_position(self):
        segs = split_queries([(0, 0, 100), (1, 0, 100)], 4)
        starts = [s[1] for s in segs]
        assert starts == sorted(starts)
        # neighboring segments alternate owners instead of finishing query 0 first
        assert [s[0] for s in segs[:4]] == [0, 1, 0, 1]

    def test_same_bucket_multiset_ns1_vs_split(self):
        ranges = [(0, 2, 19), (1, 7, 30), (2, 0, 11)]
        ns1 = [(qi, b) for qi, lo, hi in schedule_ns1(ranges) for b in range(lo, hi)]
        split = [(qi, b) for qi, lo, hi in split_queries(ranges, 10) for b in range(lo, hi)]
        assert sorted(ns1) == sorted(split)


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

    def test_save_load_roundtrip(self, small_dataset, small_index, tmp_path):
        profile = build_frequency_profile(small_index, small_dataset, num_queries=100, seed=1)
        path = tmp_path / "profile.npz"
        profile.save(path)
        loaded = FrequencyProfile.load(path)
        assert np.array_equal(loaded.edges, profile.edges)
        assert np.array_equal(loaded.means, profile.means)


class TestTrace:
    def test_trace_records_and_writes(self, tmp_path):
        trace = []
        buf = BufferState(capacity_bytes=100, trace=trace)
        access_bucket((0, 1, 2), 60, buf)
        access_bucket((0, 1, 2), 60, buf)
        access_bucket((0, 1, 3), 60, buf)  # evicts (0,1,2)
        assert [t[2] for t in trace] == ["miss", "hit", "miss"]
        assert trace[2][3] == ((0, 1, 2),)
        ticks = [t[0] for t in trace]
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "1,0,1,2,miss,"
        assert lines[2] == "3,0,1,3,miss,0:1:2"

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
