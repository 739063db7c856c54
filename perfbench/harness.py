"""Workloads, phases, answer checks and metrics of the mmlsh benchmark.

Every phase calls the package's public functions the way `mmlsh build`,
`mmlsh query` and `mmlsh compare` do: `bench` supplies the phase drivers,
which reach `model`, `lsh`, `engine`, `similarity`, `buffering` and
`baselines`. One client issues object queries back to back (a closed loop).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import os
import resource
import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from mmlsh import baselines, bench, buffering, engine, lsh, model, similarity
from mmlsh.bench import MB, RunConfig
from mmlsh.buffering import MMLSH, NS1, NS2, BufferState, CostModel, SchedulerConfig
from mmlsh.engine import EXHAUSTED, T1, T2
from spans import phase_of, self_times_ns
from speed import WINDOW, SpeedGauge

STRATEGIES = (NS1, NS2, MMLSH)
COORDS_PHASES = ("record", "groundtruth", "compare")  # phases whose object_coords calls count
NO_EVICTIONS = "no-evictions"
BUFFER_THIRD = "buffer-at-most-a-third-of-working-set"
RATIO_K_PRIME = 50  # k' at which the Borda baselines run and object_ratio.c2lsh_borda is taken
ROUNDS = 2          # each unit of work counts with its best time over this many rounds


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # RunConfig fields; the seed comes from the command line
    compare_queries: int    # queries, spread over the round, that also run the baselines
    setup_repeats: int      # set-ups before each round
    ns2_repeats: int        # NS2 batch replays of all plans per round
    guard: str = ""
    num_queries: int = 40   # p75 of 40 samples has ten samples beyond it


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("fit-small", dict(), compare_queries=6, setup_repeats=4, ns2_repeats=3,
             guard=NO_EVICTIONS),
    Workload("evict-large",
             dict(synth_objects=1000, synth_points_per_object=100, synth_spread=0.15,
                  gamma=0.9, delta=0.3, beta=0.9, epsilon=0.6, query_size=10, buffer_mb=7.5),
             compare_queries=3, setup_repeats=1, ns2_repeats=5, guard=BUFFER_THIRD),
)}


def layer_patches():
    """(owner, attribute, span name) for every call the traced run wraps."""
    return [
        (bench, "synth_dataset", "model.synth_dataset"),
        (model.Dataset, "object_coords", "model.object_coords"),
        (bench, "build_index", "lsh.build_index"),
        (bench, "save_index", "lsh.save_index"),
        (bench, "load_index", "lsh.load_index"),
        (lsh.LshIndex, "range_rows", "lsh.range_rows"),
        (engine, "gamma_distance", "similarity.gamma_distance.query"),
        (baselines, "gamma_distance", "similarity.gamma_distance.groundtruth"),
        (bench, "knn_objects", "engine.knn_objects"),
        (engine, "count_collisions", "engine.count_collisions"),
        (bench, "build_frequency_profile", "buffering.build_frequency_profile"),
        (bench, "access_bucket", "buffering.access_bucket"),
        (bench, "evict_lru", "buffering.evict_lru"),
        (buffering, "evict_mmlsh", "buffering.evict_mmlsh"),
        (bench, "split_queries", "buffering.split_queries"),
        (bench, "schedule_ns2", "buffering.schedule_ns2"),
        (baselines, "full_ranking", "baselines.full_ranking"),
        (bench, "point_knn_linear", "baselines.point_knn_linear"),
        (bench, "point_knn_c2lsh", "baselines.point_knn_c2lsh"),
        (bench, "borda_aggregate", "baselines.borda_aggregate"),
    ]


class _NoTracer:
    """Stands in for a Tracer in the untraced run: no spans, no wrappers."""

    query = -1

    @staticmethod
    def span(_name):
        return contextlib.nullcontext()


@dataclass
class Round:
    """One pass of the measured loop over every query of the run.

    Times are kept per unit of work (a query, a plan, a compared query, an
    NS2 batch replay), with the speed gauge's mark when each was taken, so
    that each unit's best rescaled time over the rounds counts. The series
    are named after the phases: record (one unit per query, None if it
    raised), replay.NS1 and replay.MMLSH (per recorded plan), replay.NS2 (per
    batch replay of all plans), groundtruth and compare.
    """

    ms: dict = field(default_factory=dict)            # series -> raw ms per unit
    marks: dict = field(default_factory=dict)         # series -> gauge mark per unit
    results: list = field(default_factory=list)       # QueryResult or None if it raised
    plans: list = field(default_factory=list)
    truth: dict = field(default_factory=dict)         # query object id -> GroundTruth
    counters: dict = field(default_factory=dict)      # strategy -> modeled totals
    counter_lines: list = field(default_factory=list)
    compare_rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def add(self, series: str, ms, mark: int) -> None:
        self.ms.setdefault(series, []).append(ms)
        self.marks.setdefault(series, []).append(mark)

    def answer_lines(self, queries):
        lines = []
        for q, res in zip(queries, self.results):
            if res is None:
                lines.append(f"{q.object_id}:raised")
            else:
                top = ",".join(f"{oid}={dist!r}" for oid, dist in res.top_k)
                lines.append(f"{q.object_id}:{res.stop_condition}:{top}")
        return lines

    def exact_counts(self) -> dict:
        """Counts that must not depend on tracing or on the machine."""
        c2 = [r for r in self.compare_rows if r["method"] == "C2LSH-Borda"]
        counts = {"engine.collision_increments":
                  sum(r.stats.collision_increments for r in self.results if r is not None),
                  "baselines.c2lsh.hits": sum(r["hits"] for r in c2),
                  "baselines.c2lsh.misses": sum(r["misses"] for r in c2),
                  "baselines.c2lsh_increments": sum(r["c2lsh_increments"] for r in c2)}
        for strategy, totals in self.counters.items():
            for name in ("hits", "misses", "evictions", "bytes_read"):
                counts[f"buffering.{name}.{strategy}"] = totals[name]
        return counts


@dataclass
class RunRecord:
    workload: Workload
    cfg: RunConfig
    gauge: SpeedGauge = field(default_factory=SpeedGauge)
    setup_ms: list = field(default_factory=list)      # raw, per set-up
    setup_marks: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    index_file_bytes: int = 0
    index_entries: int = 0
    working_set_bytes: int = 0
    problems: list = field(default_factory=list)      # failed answer checks and guards

    @property
    def attempted(self) -> int:
        return len(self.queries) * len(self.rounds)

    @property
    def failed(self) -> int:
        k = self.cfg.k
        return sum(1 for rnd in self.rounds for res in rnd.results
                   if res is None or res.stop_condition == EXHAUSTED or len(res.top_k) < k)

    def fingerprints(self) -> dict:
        first = self.rounds[0]
        return {"answers": _sha256(first.answer_lines(self.queries)),
                "counters": _sha256(first.counter_lines)}


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_workload(wl: Workload, seed: int, workdir: str, tracer=None,
                 rounds: int = ROUNDS) -> RunRecord:
    """Set up and run a fixed number of rounds, then check the answers.

    The count is fixed so that two commits measure the same work: a faster
    commit must not earn more rounds, and with them a lower best time. The
    set-ups are spread over the run, `wl.setup_repeats` before each round,
    so that their median samples the same stretch of time as the rounds.
    """
    tracer = tracer or _NoTracer()
    cfg = RunConfig(**wl.config, seed=seed, num_queries=wl.num_queries,
                    index_path=os.path.join(workdir, "mmlsh.index"),
                    profile_path=os.path.join(workdir, "mmlsh.profile.npz"),
                    groundtruth_path=os.path.join(workdir, "groundtruth.csv"),
                    out_prefix=os.path.join(workdir, "report"))
    rec = RunRecord(workload=wl, cfg=cfg)
    warnings.filterwarnings("ignore", message="gamma=.*below the guarantee bound")

    for _ in range(rounds):
        with tracer.span("setup"):
            for _ in range(wl.setup_repeats):
                dataset = index = profile = None  # free the last copies before building anew
                gc.collect()
                rec.gauge.probe()
                t0 = time.perf_counter()
                dataset = bench.load_dataset(cfg)
                built, _profile = bench.build_artifacts(cfg, dataset)
                index, profile = bench.load_artifacts(cfg)
                rec.setup_ms.append((time.perf_counter() - t0) * 1e3)
                rec.setup_marks.append(rec.gauge.mark)
                _check_reload(rec, built, index)
                del built, _profile
        if not rec.queries:
            rec.queries = bench.choose_queries(dataset, cfg)
            rec.index_file_bytes = os.path.getsize(cfg.index_path)
            rec.index_entries = index.m * index.n
        rec.rounds.append(_run_round(rec, dataset, index, profile, tracer))
    for _ in range(WINDOW):  # the last units get probes after them too
        rec.gauge.probe()

    _check_answers(rec, dataset)
    _check_guard(rec, index)
    return rec


def _run_round(rec: RunRecord, dataset, index, profile, tracer) -> Round:
    """Interleave the phases query by query, so every metric samples the whole round.

    The machine's speed drifts over seconds. A phase run in one stretch
    measures whatever speed that stretch had; spread over the round, it
    samples the speed of the whole stretch, as the other phases do. The
    gauge probes the speed before each query of either pass. The first pass
    records each query and replays its plan under NS1. The second pass
    computes each query's ground truth, runs the Borda baselines for every
    few queries and replays each plan under MMLSH. Replaying plan by plan on
    one buffer per strategy charges exactly what one `replay_plans` call over
    all plans charges. NS2 batches the whole query set, so it replays all
    plans `wl.ns2_repeats` times spread over the second pass.
    """
    cfg, wl, rnd, gauge = rec.cfg, rec.workload, Round(), rec.gauge
    queries = rec.queries
    schedulers = {s: SchedulerConfig(strategy=s, query_splits=cfg.query_splits, profile=profile)
                  for s in STRATEGIES}
    buffers = {s: BufferState(int(cfg.buffer_mb * MB), CostModel()) for s in (NS1, MMLSH)}
    stats = {s: [] for s in STRATEGIES}
    compare_cfg = dataclasses.replace(cfg, k_primes=(RATIO_K_PRIME,))
    compare_every = max(1, len(queries) // wl.compare_queries)
    recorded = []  # (query index, result, plan) of the queries that did not raise

    gc.collect()
    for i, q in enumerate(queries):
        tracer.query = i
        gauge.probe()
        try:
            with tracer.span("record"):
                results, plans, walls = bench.record_query_plans(cfg, dataset, index, [q])
        except Exception as exc:  # a raising query is counted as failed; the run goes on
            rnd.errors.append(f"query {q.object_id}: {exc!r}")
            results, walls = [None], [None]
        rnd.results.append(results[0])
        rnd.add("record", walls[0], gauge.mark)
        if results[0] is not None:
            rnd.plans.append(plans[0])
            recorded.append((i, results[0], plans[0]))
            stats[NS1].append(dataclasses.replace(results[0].stats))
            _timed(rnd, gauge, tracer, "replay.NS1", bench.replay_plans, NS1, plans, index,
                   buffers[NS1], stats[NS1][-1:], schedulers[NS1])

    ns2_every = max(1, len(queries) // wl.ns2_repeats)
    plan_of = {i: (result, plan) for i, result, plan in recorded}
    gc.collect()
    for i, q in enumerate(queries):
        tracer.query = i
        gauge.probe()
        rnd.truth[q.object_id] = _timed(rnd, gauge, tracer, "groundtruth",
                                        baselines.full_ranking, q, dataset, cfg.gamma)
        if i % compare_every == 0 and i // compare_every < wl.compare_queries:
            rnd.compare_rows.extend(_timed(rnd, gauge, tracer, "compare",
                                           bench.run_borda_baselines,
                                           compare_cfg, dataset, index, [q], rnd.truth))
        if i in plan_of:
            result, plan = plan_of[i]
            stats[MMLSH].append(dataclasses.replace(result.stats))
            _timed(rnd, gauge, tracer, "replay.MMLSH", bench.replay_plans, MMLSH, [plan], index,
                   buffers[MMLSH], stats[MMLSH][-1:], schedulers[MMLSH])
        if (recorded and (i + 1) % ns2_every == 0
                and len(rnd.ms.get("replay.NS2", ())) < wl.ns2_repeats):
            tracer.query = -1
            ns2_stats = [dataclasses.replace(r.stats) for _i, r, _p in recorded]
            buffer = BufferState(int(cfg.buffer_mb * MB), CostModel())
            _timed(rnd, gauge, tracer, "replay.NS2", bench.replay_plans, NS2, rnd.plans, index,
                   buffer, ns2_stats, schedulers[NS2])
            buffers.setdefault(NS2, buffer)
            stats[NS2] = stats[NS2] or ns2_stats
    tracer.query = -1

    for strategy in STRATEGIES:
        for st in stats[strategy]:
            st.alg_ms = st.alg_ops * cfg.alg_op_cost_ms
        io = buffers[strategy].io_stats
        rnd.counters[strategy] = {
            "hits": io.buffer_hits, "misses": io.buffer_misses, "evictions": io.evictions,
            "bytes_read": io.bytes_read, "modeled_io_ms": io.io_ms,
            "modeled_total_ms": sum(st.total_ms for st in stats[strategy])}
        rnd.counter_lines.append(f"{strategy}:{io!r}")
        rnd.counter_lines.extend(f"{strategy}:{st!r}" for st in stats[strategy])
    for row in rnd.compare_rows:
        # the C2LSH row charges one algorithm op per collision increment
        row["c2lsh_increments"] = round(row["alg_ms"] / cfg.alg_op_cost_ms)
    return rnd


def _timed(rnd: Round, gauge: SpeedGauge, tracer, phase, fn, *args):
    """fn(*args) inside a span named after the phase, timed into the phase's series."""
    with tracer.span(phase):
        t0 = time.perf_counter()
        out = fn(*args)
        rnd.add(phase, (time.perf_counter() - t0) * 1e3, gauge.mark)
    return out


def _check_reload(rec: RunRecord, built, loaded) -> None:
    for attr in ("a", "b", "buckets", "point_rows"):
        if not np.array_equal(getattr(built, attr), getattr(loaded, attr)):
            rec.problems.append(f"reloaded index differs from the built one in {attr!r}")


def _check_answers(rec: RunRecord, dataset) -> None:
    """Re-derive every returned distance and compare rounds with the first."""
    cfg, first = rec.cfg, rec.rounds[0]
    for q, res in zip(rec.queries, first.results):
        if res is None:
            continue
        ids = [oid for oid, _ in res.top_k]
        if len(set(ids)) != len(ids):
            rec.problems.append(f"query {q.object_id}: duplicate objects in top-k")
        if res.top_k != sorted(res.top_k, key=lambda t: (t[1], t[0])):
            rec.problems.append(f"query {q.object_id}: top-k not sorted by distance")
        truth = first.truth[q.object_id].distances
        for rank, (oid, dist) in enumerate(res.top_k):
            fresh = similarity.gamma_distance(q.coords, dataset.object_coords(oid), cfg.gamma)
            if fresh != dist:
                rec.problems.append(f"query {q.object_id}: object {oid} reported at "
                                    f"{dist!r}, recomputed {fresh!r}")
            if dist < truth[rank]:
                rec.problems.append(f"query {q.object_id}: rank {rank} beats the exact ranking")
    fp = rec.fingerprints()
    for n, rnd in enumerate(rec.rounds[1:], start=2):
        if _sha256(rnd.answer_lines(rec.queries)) != fp["answers"]:
            rec.problems.append(f"round {n} answers differ from round 1")
        if _sha256(rnd.counter_lines) != fp["counters"]:
            rec.problems.append(f"round {n} modeled counters differ from round 1")
        if rnd.exact_counts() != first.exact_counts():
            rec.problems.append(f"round {n} exact counts differ from round 1")
        if rnd.truth != first.truth:
            rec.problems.append(f"round {n} ground truth differs from round 1")


def working_set_bytes(plans, index) -> int:
    """Bytes of the distinct non-empty (projection, level, bucket) keys the plans read."""
    intervals: dict[tuple, list] = {}
    for plan in plans:
        for g, R, ranges in plan:
            intervals.setdefault((g, R), []).extend((lo, hi) for _qi, lo, hi in ranges)
    cum = {}
    total = 0
    for (g, _R), spans in intervals.items():
        if g not in cum:
            lo_g, hi_g = int(index.bucket_lo[g]), int(index.bucket_hi[g])
            sizes = index.bucket_sizes(g, lo_g, hi_g + 1)
            cum[g] = (lo_g, hi_g + 1, np.concatenate(([0], np.cumsum(sizes))))
        lo_g, end_g, prefix = cum[g]
        reach = -1 << 62
        for lo, hi in sorted(spans):
            lo, hi = max(lo, reach, lo_g), min(hi, end_g)
            if lo < hi:
                total += int(prefix[hi - lo_g] - prefix[lo - lo_g])
                reach = hi
    return total * buffering.POINT_ID_BYTES


def _check_guard(rec: RunRecord, index) -> None:
    first = rec.rounds[0]
    rec.working_set_bytes = working_set_bytes(first.plans, index)
    buffer_bytes = int(rec.cfg.buffer_mb * MB)
    guard = rec.workload.guard
    if guard == NO_EVICTIONS:
        for strategy, totals in first.counters.items():
            if totals["evictions"]:
                rec.problems.append(f"guard: {strategy} evicted {totals['evictions']} buckets "
                                    "but this workload's buffer must hold its working set")
    elif guard == BUFFER_THIRD and 3 * buffer_bytes > rec.working_set_bytes:
        rec.problems.append(f"guard: buffer {buffer_bytes} B exceeds a third of the "
                            f"working set {rec.working_set_bytes} B")


def _best(rec: RunRecord, series: str, scaled: bool = True) -> list:
    """Per unit of work, its least time (ms) over the rounds; None units dropped.

    With `scaled`, each time is first rescaled to the reference machine speed
    by the gauge's probes around it (see speed.py).
    """
    scale = rec.gauge.scale if scaled else (lambda _mark: 1.0)
    per_round = [[None if ms is None else ms * scale(mark)
                  for ms, mark in zip(rnd.ms.get(series, []), rnd.marks.get(series, []))]
                 for rnd in rec.rounds]
    return [min(times) for times in zip(*per_round) if None not in times]


def end_to_end(rec: RunRecord, scaled: bool = True) -> dict:
    """name -> (value, unit), measured without tracing.

    Each unit of work (a query, a plan replay, a ground-truth ranking, a
    compared query, an NS2 batch) counts with its best time over the run's
    rounds, as `timeit` reports: a unit is slowed by whatever else the shared
    machine runs at that moment, never sped up. Timings are then the median
    and p75 over queries, or the sum over units; NS2 repeats one batch, so
    it takes the median of the batch's best times. `setup_s` is the median of
    the set-ups. With `scaled` (the reported metrics), every time is first
    rescaled to the reference machine speed; without it, the times are raw.
    """
    rounds = rec.rounds
    query_ms = _best(rec, "record", scaled)
    mmlsh_ms = _best(rec, "replay.MMLSH", scaled)
    scale = rec.gauge.scale if scaled else (lambda _mark: 1.0)
    setup_ms = [ms * scale(mark) for ms, mark in zip(rec.setup_ms, rec.setup_marks)]
    p50, p75 = np.percentile(query_ms, [50, 75])
    ratios = [_object_ratio(rec, q, res) for q, res in zip(rec.queries, rounds[0].results)
              if res is not None and res.top_k]
    c2 = [r["or_gamma"] for r in rounds[0].compare_rows
          if r["method"] == "C2LSH-Borda" and r["k_prime"] == RATIO_K_PRIME]
    return {
        "setup_s": (statistics.median(setup_ms) / 1e3, "s"),
        "groundtruth_s": (sum(_best(rec, "groundtruth", scaled)) / 1e3, "s"),
        "query_ms.p50": (float(p50), "ms"),
        "query_ms.p75": (float(p75), "ms"),
        "queries_per_s": (len(query_ms) / ((sum(query_ms) + sum(mmlsh_ms)) / 1e3), "1/s"),
        "replay_s.NS1": (sum(_best(rec, "replay.NS1", scaled)) / 1e3, "s"),
        "replay_s.NS2": (statistics.median(_best(rec, "replay.NS2", scaled)) / 1e3, "s"),
        "replay_s.MMLSH": (sum(mmlsh_ms) / 1e3, "s"),
        "compare_s": (sum(_best(rec, "compare", scaled)) / 1e3, "s"),
        "index_file_bytes": (rec.index_file_bytes, "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
        "object_ratio": (float(np.mean(ratios)) if ratios else float("inf"), "ratio"),
        "object_ratio.c2lsh_borda": (float(np.mean(c2)) if c2 else float("inf"), "ratio"),
    }


def _object_ratio(rec: RunRecord, q, res) -> float:
    k = len(res.top_k)
    value, _flagged = similarity.object_ratio([d for _, d in res.top_k],
                                              rec.rounds[0].truth[q.object_id].distances[:k])
    return value


def phase_walls(rec: RunRecord) -> dict:
    """Wall seconds per phase: all setups, then the first round's phases."""
    walls = {"setup": sum(rec.setup_ms) / 1e3}
    walls.update({phase: sum(t for t in times if t is not None) / 1e3
                  for phase, times in rec.rounds[0].ms.items()})
    return walls


def per_layer(untraced: RunRecord, traced: RunRecord, tracer) -> dict:
    """name -> (value, unit) from the traced run's spans and exact counts."""
    spans = tracer.spans
    own = self_times_ns(spans)
    phase = phase_of(spans)

    def total(name, attr="dur_ns", in_phase=None):
        return sum(getattr(s, attr) for s, p in zip(spans, phase)
                   if s.name == name and (in_phase is None or p == in_phase))

    def ms(name, in_phase=None):
        return total(name, "dur_ns", in_phase) / 1e6

    def calls(name, in_phase=None):
        return total(name, "calls", in_phase)

    def in_phases(name, phases, attr):
        return sum(total(name, attr, p) for p in phases)

    def mean_s(name):
        return total(name) / max(calls(name), 1) / 1e9

    rnd = traced.rounds[0]
    results = [r for r in rnd.results if r is not None]
    counts = rnd.exact_counts()
    increments = counts["engine.collision_increments"]
    gdist_calls = calls("similarity.gamma_distance.query")
    stops = [r.stop_condition for r in results]
    m = {
        "model.dataset_s": (mean_s("model.synth_dataset"), "s"),
        # the program's own calls only, not those of the benchmark's answer checks
        "model.object_coords.calls":
            (in_phases("model.object_coords", COORDS_PHASES, "calls"), "count"),
        "model.object_coords.ms":
            (in_phases("model.object_coords", COORDS_PHASES, "dur_ns") / 1e6, "ms"),
        "lsh.build_index_s": (mean_s("lsh.build_index"), "s"),
        "lsh.save_index_s": (mean_s("lsh.save_index"), "s"),
        "lsh.load_index_s": (mean_s("lsh.load_index"), "s"),
        "lsh.bytes_per_entry": (traced.index_file_bytes / traced.index_entries, "B"),
        # the object engine's calls; C2LSH-Borda's in the compare phase are not counted
        "lsh.range_rows.calls": (calls("lsh.range_rows", "record"), "count"),
        "lsh.range_rows.ms": (ms("lsh.range_rows", "record"), "ms"),
        "similarity.gamma_distance.query.calls": (gdist_calls, "count"),
        "similarity.gamma_distance.query.ms": (ms("similarity.gamma_distance.query"), "ms"),
        "similarity.gamma_distance.groundtruth.ms":
            (ms("similarity.gamma_distance.groundtruth"), "ms"),
        "engine.count_collisions.calls": (calls("engine.count_collisions"), "count"),
        "engine.count_collisions.ms": (ms("engine.count_collisions"), "ms"),
        "engine.collision_increments": (increments, "count"),
        "engine.increments_per_us":
            (increments / max(total("engine.count_collisions") / 1e3, 1e-9), "1/us"),
        "engine.self.ms": (sum(t for s, t in zip(spans, own)
                               if s.name == "engine.knn_objects") / 1e6, "ms"),
        "engine.verify_yield": (traced.cfg.k * len(results) / max(gdist_calls, 1), "ratio"),
        "engine.levels.mean": (float(np.mean([r.levels_used for r in results])), "levels"),
        "engine.stop.T1": (stops.count(T1), "count"),
        "engine.stop.T2": (stops.count(T2), "count"),
        "engine.stop.EXHAUSTED": (stops.count(EXHAUSTED), "count"),
        "buffering.profile_s": (mean_s("buffering.build_frequency_profile"), "s"),
    }
    for strategy in STRATEGIES:
        replay = f"replay.{strategy}"
        m[f"buffering.access_bucket.calls.{strategy}"] = (
            calls("buffering.access_bucket", replay), "count")
        m[f"buffering.access_bucket.ms.{strategy}"] = (
            ms("buffering.access_bucket", replay), "ms")
    m.update({
        "buffering.evict_mmlsh.calls": (calls("buffering.evict_mmlsh"), "count"),
        "buffering.evict_mmlsh.ms": (ms("buffering.evict_mmlsh"), "ms"),
        "buffering.evict_lru.calls.NS1": (calls("buffering.evict_lru", "replay.NS1"), "count"),
        "buffering.evict_lru.calls.NS2": (calls("buffering.evict_lru", "replay.NS2"), "count"),
        "buffering.split_queries.ms": (ms("buffering.split_queries"), "ms"),
        "buffering.schedule_ns2.ms": (ms("buffering.schedule_ns2"), "ms"),
    })
    for strategy in STRATEGIES:
        c = rnd.counters[strategy]
        accesses = c["hits"] + c["misses"]
        m[f"buffering.hits.{strategy}"] = (c["hits"], "count")
        m[f"buffering.misses.{strategy}"] = (c["misses"], "count")
        m[f"buffering.evictions.{strategy}"] = (c["evictions"], "count")
        m[f"buffering.bytes_read.{strategy}"] = (c["bytes_read"], "B")
        m[f"buffering.modeled_io_ms.{strategy}"] = (c["modeled_io_ms"], "ms")
        m[f"buffering.modeled_total_ms.{strategy}"] = (c["modeled_total_ms"], "ms")
        m[f"buffering.hit_ratio.{strategy}"] = (c["hits"] / accesses if accesses else 0.0, "ratio")
    m.update({
        "buffering.working_set_bytes": (traced.working_set_bytes, "B"),
        "buffering.buffer_fraction":
            (traced.cfg.buffer_mb * MB / max(traced.working_set_bytes, 1), "ratio"),
        "baselines.full_ranking.ms": (ms("baselines.full_ranking"), "ms"),
        "baselines.point_knn_linear.ms": (ms("baselines.point_knn_linear"), "ms"),
        "baselines.point_knn_c2lsh.ms": (ms("baselines.point_knn_c2lsh"), "ms"),
        "baselines.borda_aggregate.ms": (ms("baselines.borda_aggregate"), "ms"),
        "baselines.c2lsh_increments": (counts["baselines.c2lsh_increments"], "count"),
        "baselines.c2lsh.hits": (counts["baselines.c2lsh.hits"], "count"),
        "baselines.c2lsh.misses": (counts["baselines.c2lsh.misses"], "count"),
    })
    plain, with_trace = phase_walls(untraced), phase_walls(traced)
    for name, wall in plain.items():
        m[f"trace.overhead_frac.{name}"] = (with_trace[name] / wall - 1.0, "ratio")
    return m
