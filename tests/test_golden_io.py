"""Golden modeled-IO figures for one seeded small configuration.

The figures were taken from the engine charging each query's bucket reads
while it searched (one query at a time, NS2 batching within the query) and
from the C2LSH baseline charging its own level ranges under LRU. Recording
the plans and replaying them through `bench.replay_plans` must reproduce
them bit for bit; `alg_ms` is derived from `alg_ops` by the reporting code.
`QueryStats` stores neither `buckets_read` (hits + misses) nor `seeks`
(one per miss); `query_figures` and `buffer_figures` derive both from its
fields.
"""

import pytest

import mmlsh
from mmlsh import bench
from mmlsh.baselines import full_ranking
from mmlsh.buffering import (MMLSH, NS1, NS2, BufferState, CostModel, SchedulerConfig,
                             build_frequency_profile)

CFG = bench.RunConfig(synth_objects=40, synth_points_per_object=10, synth_dimension=8,
                      synth_spread=0.2, gamma=0.5, delta=0.25, beta=0.5, epsilon=0.5,
                      k=5, k_primes=(10,), num_queries=3, buffer_mb=0.05, seed=5)

# per query object: (buckets_read, buffer_hits, buffer_misses, bytes_read, seeks,
# io_ms, collision_increments, alg_ops)
GOLDEN_STATS = {
    NS1: {8: (1438, 1242, 196, 79644, 196, 1666.5105384615385, 95552, 95552),
          15: (1423, 1195, 228, 75504, 228, 1938.4840000000008, 77201, 77201),
          38: (1435, 1214, 221, 76168, 221, 1878.9882564102563, 82952, 82952)},
    NS2: {8: (196, 0, 196, 79644, 196, 1666.5105384615385, 95552, 97512),
          15: (228, 0, 228, 75504, 228, 1938.4840000000008, 77201, 79481),
          38: (221, 0, 221, 76168, 221, 1878.9882564102563, 82952, 85162)},
    MMLSH: {8: (1438, 1242, 196, 79644, 196, 1666.5105384615385, 95552, 96992),
            15: (1423, 1258, 165, 42640, 165, 1402.7733333333333, 77201, 78641),
            38: (1435, 1260, 175, 51592, 175, 1487.8307179487183, 82952, 84392)},
}
# one buffer per strategy shared by the three queries:
# (seeks, bytes_read, buffer_hits, buffer_misses, evictions, io_ms)
GOLDEN_IO = {
    NS1: (645, 231316, 3651, 645, 492, 5483.982794871802),
    NS2: (645, 231316, 0, 645, 492, 5483.982794871802),
    MMLSH: (536, 173876, 3760, 536, 431, 4557.114589743593),
}
# C2LSH-Borda rows at k'=10: (hits, misses, index_io_ms, alg_ms)
GOLDEN_C2LSH = {
    8: (403, 77, 654.7182307692306, 0.054547),
    15: (454, 496, 4217.041820512825, 0.060751),
    38: (394, 86, 731.2037692307692, 0.047320999999999995),
}


def query_figures(s):
    return (s.buffer_hits + s.buffer_misses, s.buffer_hits, s.buffer_misses, s.bytes_read,
            s.buffer_misses, s.io_ms, s.collision_increments, s.alg_ops)


def buffer_figures(s):
    return (s.buffer_misses, s.bytes_read, s.buffer_hits, s.buffer_misses, s.evictions,
            s.io_ms)


@pytest.fixture(scope="module")
def setup():
    ds = bench.load_dataset(CFG)
    params = mmlsh.derive_params(CFG.delta, CFG.resolved_beta(ds.num_objects), CFG.c, CFG.w)
    index = mmlsh.build_index(ds, params, seed=CFG.seed)
    profile = build_frequency_profile(index, ds, seed=CFG.seed)
    queries = bench.choose_queries(ds, CFG)
    return ds, index, profile, queries


@pytest.mark.parametrize("strategy", [NS1, NS2, MMLSH])
def test_record_and_replay_match_golden(setup, strategy):
    ds, index, profile, queries = setup
    results, plans, _walls = bench.record_query_plans(CFG, ds, index, queries)
    buf = BufferState(int(CFG.buffer_mb * bench.MB), CostModel())
    sched = SchedulerConfig(strategy=strategy, query_splits=CFG.query_splits, profile=profile)
    got = {}
    for q, res, plan in zip(queries, results, plans):
        bench.replay_plans(strategy, [plan], index, buf, [res.stats], sched)
        got[q.object_id] = query_figures(res.stats)
    assert got == GOLDEN_STATS[strategy]
    assert buffer_figures(buf.io_stats) == GOLDEN_IO[strategy]


def test_c2lsh_borda_rows_match_golden(setup):
    ds, index, _profile, queries = setup
    truth = {q.object_id: full_ranking(q, ds, CFG.gamma) for q in queries}
    rows = bench.run_borda_baselines(CFG, ds, index, queries, truth)
    got = {r["query_object_id"]: (r["hits"], r["misses"], r["index_io_ms"], r["alg_ms"])
           for r in rows if r["method"] == "C2LSH-Borda"}
    assert got == GOLDEN_C2LSH
