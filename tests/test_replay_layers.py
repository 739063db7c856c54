"""The layers the benchmark's traced run names are the code that does the work.

`perfbench/harness.py` counts replay work by wrapping four module
attributes: `bench.access_bucket`, `bench.evict_lru`, `buffering.evict_mmlsh`
and `bench.split_queries`. These tests wrap the same attributes with
counters around `bench.replay_plans`, so a call that bypassed them (or ran
twice per eviction or per pass) would show here before it skewed a
per-layer figure.
"""

from collections import Counter

import pytest

import mmlsh
from mmlsh import bench, buffering
from mmlsh.buffering import (MMLSH, NS1, NS2, BufferState, CostModel, SchedulerConfig,
                             build_frequency_profile)

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


def counted_replay(monkeypatch, strategy, index, profile, plans):
    calls = Counter()

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((bench, "access_bucket"), (bench, "evict_lru"),
                        (buffering, "evict_mmlsh"), (bench, "split_queries")):
        counting(owner, name)
    real_call = buffering._MmlshEvictor.__call__

    def counting_call(policy, buffer, current_bucket):
        calls["policy_builds"] += policy.young is None  # the first eviction builds
        return real_call(policy, buffer, current_bucket)
    monkeypatch.setattr(buffering._MmlshEvictor, "__call__", counting_call)

    buffer = BufferState(int(CFG.buffer_mb * bench.MB), CostModel())
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
    assert calls["access_bucket"] == io.buffer_hits + io.buffer_misses
    assert calls["access_bucket"] == sum(s.buffer_hits + s.buffer_misses for s in stats)
    if strategy == MMLSH:
        assert calls["evict_mmlsh"] == io.evictions
        assert calls["evict_lru"] == 0
        assert calls["policy_builds"] == 1  # built by the replay's first eviction, then kept current
        assert calls["split_queries"] == sum(len(plan) for plan in plans)  # once per pass
    else:
        assert calls["evict_lru"] == io.evictions
        assert calls["evict_mmlsh"] == 0
        assert calls["policy_builds"] == 0  # LRU replays never build the MMLSH policy
        assert calls["split_queries"] == 0


def test_a_scheduler_for_another_strategy_is_refused(recorded):
    index, profile, plans = recorded
    buffer = BufferState(int(CFG.buffer_mb * bench.MB), CostModel())
    with pytest.raises(ValueError, match="asked for NS1 with a scheduler configured for MMLSH"):
        bench.replay_plans(NS1, plans, index, buffer, [mmlsh.QueryStats() for _ in plans],
                           SchedulerConfig(strategy=MMLSH, profile=profile))
    assert buffer.clock == 0  # refused before any access
