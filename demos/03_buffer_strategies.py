"""Compare buffer-conscious scheduling strategies on one batch of queries.

All IO is modeled (HDD seek + transfer), never measured, so the numbers are
deterministic. Each query runs once to record its bucket-access plan; the
plan is then replayed under each strategy against a shared fixed-capacity
buffer:

  NS1   - queries one after another, left-to-right bucket order, LRU.
  NS2   - the batch executes bucket by bucket: minimal IO, but every query
          must be checked against every bucket read.
  MMLSH - per-query order refined by query splitting plus frequency-aware
          eviction seeded from an offline projection profile.
"""

import dataclasses

import mmlsh
from mmlsh import bench
from mmlsh.bench import RunConfig
from mmlsh.buffering import (MMLSH, NS1, NS2, BufferState, CostModel,
                             SchedulerConfig, build_frequency_profile)

cfg = RunConfig(synth_objects=800, synth_points_per_object=100,
                synth_dimension=32, synth_spread=0.15,
                gamma=0.9, delta=0.3, beta=0.9, epsilon=0.6,
                k=25, num_queries=8, query_size=10, seed=2)
dataset = bench.load_dataset(cfg)
params = mmlsh.derive_params(cfg.delta, cfg.resolved_beta(dataset.num_objects),
                             cfg.c, cfg.w)
index = mmlsh.build_index(dataset, params, seed=cfg.seed)
profile = build_frequency_profile(index, dataset, seed=cfg.seed)
queries = bench.choose_queries(dataset, cfg)

print(f"dataset: {dataset.n} points; index: m={params.m} projections")
results, plans, _ = bench.record_query_plans(cfg, dataset, index, queries)
print(f"recorded plans for {len(queries)} queries "
      f"(levels used: {[r.levels_used for r in results]})")
print()

capacity_mb = 5
print(f"replaying the same plans through a {capacity_mb} MB buffer:")
print(f"{'strategy':8s} {'io_ms':>10s} {'alg_ms':>8s} {'total_ms':>10s} "
      f"{'hits':>6s} {'misses':>7s}")
for strategy in (NS1, NS2, MMLSH):
    stats = [dataclasses.replace(r.stats) for r in results]
    buffer = BufferState(int(capacity_mb * bench.MB), CostModel())
    scheduler = SchedulerConfig(strategy=strategy, query_splits=cfg.query_splits,
                                profile=profile)
    bench.replay_plans(strategy, plans, index, buffer, stats, scheduler)
    io = sum(s.io_ms for s in stats)
    alg = sum(s.alg_ops for s in stats) * cfg.alg_op_cost_ms
    print(f"{strategy:8s} {io:10.1f} {alg:8.3f} {io + alg:10.1f} "
          f"{sum(s.buffer_hits for s in stats):6d} "
          f"{sum(s.buffer_misses for s in stats):7d}")

print()
print("NS2 minimizes IO at the price of extra matching work; MMLSH keeps the")
print("per-query execution style of NS1 but wastes fewer reads.")
