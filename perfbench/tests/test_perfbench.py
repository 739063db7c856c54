"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import harness  # noqa: E402
from harness import Workload, layer_patches, run_workload  # noqa: E402
from spans import NO_PARENT, Span, Tracer, is_traced, phase_of, self_times_ns  # noqa: E402
from speed import PROBE_REFERENCE_MS, WINDOW, SpeedGauge  # noqa: E402

TINY = Workload("tiny", dict(synth_objects=30, synth_points_per_object=6, synth_dimension=8,
                             k=5, buffer_mb=0.002),
                compare_queries=2, setup_repeats=2, ns2_repeats=2, num_queries=4)


def _span(sid, name, parent, dur, calls=1):
    span = Span(sid, name, parent, 0)
    span.calls, span.dur_ns = calls, dur
    return span


def _no_wrappers_installed():
    return not any(is_traced(getattr(owner, attr)) for owner, attr, _ in layer_patches())


def test_self_time_subtracts_children_only():
    spans = [_span(0, "record", NO_PARENT, 100),
             _span(1, "engine.knn_objects", 0, 80),
             _span(2, "engine.count_collisions", 1, 50, calls=7),
             _span(3, "lsh.range_rows", 2, 20, calls=9),
             _span(4, "similarity.gamma_distance.query", 1, 10, calls=3)]
    assert self_times_ns(spans) == [20, 20, 30, 20, 10]
    assert phase_of(spans) == ["record"] * 5


def test_repeated_calls_merge_into_one_span_per_parent_and_query():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    with tracer.span("phase"):
        for query in (0, 0, 1):
            tracer.query = query
            with tracer.span("outer"):
                assert leaf(1) == 2
                leaf(2)
    names = [(s.name, s.query, s.calls) for s in tracer.spans]
    assert names == [("phase", -1, 1), ("outer", 0, 2), ("leaf", 0, 4),
                     ("outer", 1, 1), ("leaf", 1, 2)]
    for span in tracer.spans:
        assert span.start_ns <= span.end_ns
        assert 0 <= span.dur_ns <= span.end_ns - span.start_ns
    assert all(t >= 0 for t in self_times_ns(tracer.spans))


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    seen_during_untraced = []
    load_dataset = harness.bench.load_dataset

    def spy(cfg):
        seen_during_untraced.append(_no_wrappers_installed())
        return load_dataset(cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness.bench, "load_dataset", spy)
        plain = run_workload(TINY, 3, str(tmp_path_factory.mktemp("plain")), rounds=1)
    tracer = Tracer()
    with tracer.installed(layer_patches()):
        assert not _no_wrappers_installed()
        traced = run_workload(TINY, 3, str(tmp_path_factory.mktemp("traced")),
                              tracer=tracer, rounds=1)
    return plain, traced, tracer, seen_during_untraced


def test_untraced_run_carries_no_wrappers(tiny_runs):
    _plain, _traced, _tracer, seen = tiny_runs
    assert seen == [True] * TINY.setup_repeats
    assert _no_wrappers_installed()


def test_exact_counts_equal_between_traced_and_untraced(tiny_runs):
    plain, traced, _tracer, _seen = tiny_runs
    counts = plain.rounds[0].exact_counts()
    assert counts == traced.rounds[0].exact_counts()
    assert counts["engine.collision_increments"] > 0
    assert counts["buffering.evictions.NS1"] > 0
    assert plain.fingerprints() == traced.fingerprints()
    assert plain.problems == traced.problems == []


def test_smoke_emits_every_named_metric_with_its_unit(tiny_runs):
    plain, traced, tracer, _seen = tiny_runs
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for metrics, declared in ((harness.end_to_end(plain), spec["end_to_end"]),
                              (harness.per_layer(plain, traced, tracer), spec["per_layer"])):
        assert {name: unit for name, (_v, unit) in metrics.items()} == \
            {m["name"]: m["unit"] for m in declared}
        assert all(isinstance(v, (int, float)) for v, _unit in metrics.values())


def test_working_set_counts_each_distinct_key_once(tiny_runs):
    plain, _traced, _tracer, _seen = tiny_runs
    dataset = harness.bench.load_dataset(plain.cfg)
    index = harness.bench.build_artifacts(plain.cfg, dataset)[0]
    keys = {(g, R, b) for plan in plain.rounds[0].plans
            for g, R, ranges in plan for _qi, lo, hi in ranges for b in range(lo, hi)}
    size = {g: dict(zip(*np.unique(index.buckets[g], return_counts=True)))
            for g in range(index.m)}
    expected = sum(int(size[g].get(b, 0)) * 4 for g, _R, b in keys)
    assert plain.working_set_bytes == expected > 0


def test_guard_rejects_a_buffer_that_evicts(tmp_path):
    evicting = dataclasses.replace(TINY, guard=harness.NO_EVICTIONS)
    rec = run_workload(evicting, 3, str(tmp_path), rounds=1)
    assert any(p.startswith("guard:") for p in rec.problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_replaying_plan_by_plan_charges_what_one_call_charges(tiny_runs):
    plain, _traced, _tracer, _seen = tiny_runs
    cfg, rnd = plain.cfg, plain.rounds[0]
    dataset = harness.bench.load_dataset(cfg)
    index, profile = harness.bench.build_artifacts(cfg, dataset)
    for strategy in (harness.NS1, harness.MMLSH):
        scheduler = harness.SchedulerConfig(strategy=strategy, profile=profile)
        buffer = harness.BufferState(int(cfg.buffer_mb * harness.MB))
        stats = [dataclasses.replace(r.stats) for r in rnd.results]
        harness.bench.replay_plans(strategy, rnd.plans, index, buffer, stats, scheduler)
        assert buffer.io_stats.evictions > 0
        assert rnd.counters[strategy]["evictions"] == buffer.io_stats.evictions
        assert rnd.counters[strategy]["bytes_read"] == buffer.io_stats.bytes_read
        assert rnd.counters[strategy]["modeled_io_ms"] == buffer.io_stats.io_ms


def test_each_unit_counts_with_its_best_rescaled_time_over_the_rounds():
    rec = harness.RunRecord(workload=TINY, cfg=None)
    rec.gauge.probes = [PROBE_REFERENCE_MS] * 8 + [2 * PROBE_REFERENCE_MS] * 8
    first, second = harness.Round(), harness.Round()
    for rnd, times, mark in ((first, (5.0, None, 7.0), 4), (second, (12.0, None, 8.0), 12)):
        for ms in times:
            rnd.add("record", ms, mark)
    rec.rounds = [first, second]
    # the second round ran at half the reference speed, so its times count halved
    assert harness._best(rec, "record") == [5.0, 4.0]
    assert harness._best(rec, "record", scaled=False) == [5.0, 7.0]


def test_gauge_rescales_by_the_median_of_the_probes_around_a_mark():
    gauge = SpeedGauge()
    gauge.probes = [10.0] * (2 * WINDOW) + [20.0] * (2 * WINDOW)
    assert gauge.scale(0) == PROBE_REFERENCE_MS / 10.0
    assert gauge.scale(2 * WINDOW) == PROBE_REFERENCE_MS / 15.0
    assert gauge.scale(len(gauge.probes)) == PROBE_REFERENCE_MS / 20.0
    gauge.probe()
    assert gauge.mark == 4 * WINDOW + 1 and gauge.probes[-1] > 0



def test_layer_totals_leave_out_the_benchmarks_own_calls(tiny_runs):
    plain, traced, tracer, _seen = tiny_runs
    metrics = harness.per_layer(plain, traced, tracer)
    phase = phase_of(tracer.spans)

    def calls(name, phases=None):
        return sum(s.calls for s, p in zip(tracer.spans, phase)
                   if s.name == name and (phases is None or p in phases))

    # the answer checks re-read every returned object; C2LSH-Borda reads ranges in compare
    assert metrics["model.object_coords.calls"][0] == \
        calls("model.object_coords", harness.COORDS_PHASES) < calls("model.object_coords")
    assert metrics["lsh.range_rows.calls"][0] == \
        calls("lsh.range_rows", ("record",)) < calls("lsh.range_rows")
