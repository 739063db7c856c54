"""The layers the benchmark's traced run names are the code that does the work.

`perfbench/harness.py` counts replay work by wrapping four module
attributes: `bench.access_bucket`, `bench.evict_lru`, `buffering.evict_mmlsh`
and `bench.split_queries`. These tests wrap the same attributes with
counters around `bench.replay_plans`, so a call that bypassed them (or ran
twice per miss, eviction or pass) would show here before it skewed a
per-layer figure. Each miss goes through `access_bucket`, so the wrapped
attribute counts misses. NS1 and MMLSH order each plan with one
`split_queries` call, whichever way it is billed: a plan that cannot evict,
as on a buffer that holds the working set, in bulk (`_replay_plan_bulk`),
its hits in one `bill_hits` call, and any other plan stepwise
(`_replay_plan_stepwise`), its runs of hits between misses through
`bill_hits`. NS2 schedules its batch without either.
"""

from collections import Counter

import pytest

import mmlsh
from mmlsh import bench, buffering
from mmlsh.buffering import (MMLSH, NS1, NS2, BufferState, CostModel, SchedulerConfig,
                             build_frequency_profile)
from test_buffering import counting, counting_paths, oracle_replay_plans

CFG = bench.RunConfig(synth_objects=40, synth_points_per_object=10, synth_dimension=8,
                      synth_spread=0.2, gamma=0.5, delta=0.25, beta=0.5, epsilon=0.5,
                      k=5, num_queries=3, buffer_mb=0.05, seed=5)


@pytest.fixture(scope="module")
def recorded():
    ds = bench.load_dataset(CFG)
    params = mmlsh.derive_params(CFG.delta, CFG.resolved_beta(ds.num_objects), CFG.c, CFG.w)
    index = mmlsh.build_index(ds, params, seed=CFG.seed)
    profile = build_frequency_profile(index, ds, seed=CFG.seed)
    queries = bench.choose_queries(ds, CFG)
    _results, plans, _walls = bench.record_query_plans(CFG, ds, index, queries)
    return index, profile, plans


def counted_replay(monkeypatch, strategy, index, profile, plans, buffer_mb=CFG.buffer_mb):
    calls = Counter()
    for owner, name in ((bench, "access_bucket"), (bench, "evict_lru"),
                        (buffering, "evict_mmlsh")):
        counting(monkeypatch, owner, name, calls)
    counting_paths(monkeypatch, calls)
    real_call = buffering._MmlshEvictor.__call__

    def counting_call(policy, buffer, current_bucket):
        calls["policy_builds"] += policy.young is None  # the first eviction builds
        return real_call(policy, buffer, current_bucket)
    monkeypatch.setattr(buffering._MmlshEvictor, "__call__", counting_call)

    buffer = BufferState(int(buffer_mb * bench.MB), CostModel())
    stats = [mmlsh.QueryStats() for _ in plans]
    bench.replay_plans(strategy, plans, index, buffer, stats,
                       SchedulerConfig(strategy=strategy, profile=profile))
    return calls, buffer, stats


@pytest.mark.parametrize("strategy", [NS1, NS2, MMLSH])
def test_wrapped_attributes_count_every_access_and_eviction(monkeypatch, recorded, strategy):
    index, profile, plans = recorded
    calls, buffer, stats = counted_replay(monkeypatch, strategy, index, profile, plans)
    io = buffer.io_stats
    assert io.evictions > 0  # the buffer is small enough to exercise eviction
    assert calls["access_bucket"] == io.buffer_misses
    assert calls["access_bucket"] == sum(s.buffer_misses for s in stats)
    if strategy == MMLSH:
        assert calls["evict_mmlsh"] == io.evictions
        assert calls["evict_lru"] == 0
        assert calls["policy_builds"] == 1  # built by the replay's first eviction, then kept current
    else:
        assert calls["evict_lru"] == io.evictions
        assert calls["evict_mmlsh"] == 0
        assert calls["policy_builds"] == 0  # LRU replays never build the MMLSH policy
    if strategy == NS2:
        assert calls["split_queries"] == calls["_replay_plan_stepwise"] == 0
    else:  # once per plan, and no plan fits the small buffer
        assert calls["split_queries"] == calls["_replay_plan_stepwise"] == len(plans)
    assert calls["_replay_plan_bulk"] == 0


@pytest.mark.parametrize("strategy", [NS1, MMLSH])
def test_a_buffer_that_holds_the_working_set_replays_each_plan_in_bulk(monkeypatch, recorded,
                                                                       strategy):
    index, profile, plans = recorded
    calls, buffer, stats = counted_replay(monkeypatch, strategy, index, profile, plans,
                                          buffer_mb=30.0)
    io = buffer.io_stats
    assert io.evictions == 0 and io.buffer_misses > 0 and io.buffer_hits > 0
    assert calls["access_bucket"] == io.buffer_misses
    assert calls["access_bucket"] == sum(s.buffer_misses for s in stats)
    assert calls["evict_lru"] == calls["evict_mmlsh"] == calls["policy_builds"] == 0
    # once per plan: its misses through access_bucket, then its hits in one bill_hits call
    assert calls["split_queries"] == calls["_replay_plan_bulk"] == calls["bill_hits"] == len(plans)
    assert calls["_replay_plan_stepwise"] == 0


@pytest.mark.parametrize("strategy", [NS1, MMLSH])
def test_recorded_plans_replay_as_one_access_bucket_call_per_access(monkeypatch, recorded,
                                                                    strategy):
    """Plan by plan on a 30 MB buffer, as the benchmark replays them, against the oracle.

    Recorded plans have what drawn ones seldom have: level intervals
    aligned to multiples of R and identical ranges repeated within a pass.
    """
    index, profile, plans = recorded
    passes = [(R, [tuple(row) for row in rows[:, 1:].tolist()]) for plan in plans
              for _g, R, rows in plan]
    assert all(lo % R == 0 and hi - lo == R for R, ranges in passes for lo, hi in ranges)
    assert any(len(set(ranges)) < len(ranges) for _R, ranges in passes)
    calls = Counter()
    counting_paths(monkeypatch, calls)

    def replay(replay_plans):
        buffer = BufferState(30 * bench.MB, CostModel(), trace=[])
        stats = [mmlsh.QueryStats() for _ in plans]
        scheduler = SchedulerConfig(strategy=strategy, profile=profile)
        for plan, query_stats in zip(plans, stats):
            replay_plans(strategy, [plan], index, buffer, [query_stats], scheduler)
        residents = [(key, e.size_bytes, e.insert_tick, e.est_frequency)
                     for key, e in buffer.resident.items()]
        return buffer.trace, buffer.io_stats, stats, residents, buffer.clock

    got = replay(bench.replay_plans)
    assert (calls["split_queries"], calls["_replay_plan_bulk"], calls["_replay_plan_stepwise"],
            calls["bill_hits"]) == (len(plans), len(plans), 0, len(plans))
    assert got == replay(oracle_replay_plans)


def test_a_scheduler_for_another_strategy_is_refused(recorded):
    index, profile, plans = recorded
    buffer = BufferState(int(CFG.buffer_mb * bench.MB), CostModel())
    with pytest.raises(ValueError, match="asked for NS1 with a scheduler configured for MMLSH"):
        bench.replay_plans(NS1, plans, index, buffer, [mmlsh.QueryStats() for _ in plans],
                           SchedulerConfig(strategy=MMLSH, profile=profile))
    assert buffer.clock == 0  # refused before any access
