import argparse
import builtins
import csv
import errno
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import mmlsh.bench as bench
import mmlsh.lsh
import mmlsh.cli as cli
from mmlsh.baselines import full_ranking, save_ground_truth
from mmlsh.bench import RunConfig, aggregate, choose_queries
from mmlsh.buffering import MMLSH, NS1, NS2, BufferState, FrequencyProfile, SchedulerConfig
from mmlsh.model import Dataset, QueryObject, write_feature_file


def tiny_config(tmp_path, **overrides) -> RunConfig:
    base = dict(
        synth_objects=20, synth_points_per_object=8, synth_dimension=6,
        synth_spread=0.15, gamma=0.5, delta=0.25, beta=0.5, epsilon=0.5,
        k=3, k_primes=(5,), num_queries=3, buffer_mb=0.05,
        buffer_sizes_mb=(0.02, 0.05), seed=1,
        index_path=str(tmp_path / "t.index"),
        profile_path=str(tmp_path / "t.profile.npz"),
        groundtruth_path=str(tmp_path / "t.gt.csv"),
        out_prefix=str(tmp_path / "t.report"),
    )
    base.update(overrides)
    return RunConfig(**base)


def prepared(tmp_path, **overrides):
    cfg = tiny_config(tmp_path, **overrides)
    dataset = bench.load_dataset(cfg)
    index, profile = bench.build_artifacts(cfg, dataset)
    queries = choose_queries(dataset, cfg)
    truth = {q.object_id: full_ranking(q, dataset, cfg.gamma) for q in queries}
    return cfg, dataset, index, profile, queries, truth


def strip_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


class TestRunConfig:
    def test_beta_defaults_to_25_over_s(self):
        cfg = RunConfig()
        assert cfg.resolved_beta(1000) == pytest.approx(0.025)
        assert cfg.resolved_beta(10) == pytest.approx(0.999)  # capped below 1
        assert RunConfig(beta=0.5).resolved_beta(1000) == 0.5

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gamma": 0.4, "k": 7, "seed": 3}))
        cfg = RunConfig.from_file(path, {"k": 9})
        assert (cfg.gamma, cfg.k, cfg.seed) == (0.4, 9, 3)

    def test_a_json_list_a_flag_list_and_a_keyword_tuple_give_one_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_primes": [25, 50], "buffer_sizes_mb": [1, 2.5]}))
        keywords = RunConfig(k_primes=(25, 50), buffer_sizes_mb=(1, 2.5))
        assert RunConfig.from_file(path) == keywords
        args = cli.build_parser().parse_args(
            ["query", "--k-primes", "25", "50", "--buffer-sizes-mb", "1", "2.5"])
        assert cli._config_from_args(args) == keywords
        assert RunConfig(k_primes=[25, 50], buffer_sizes_mb=[1, 2.5]) == keywords

    def test_from_file_takes_null_for_an_optional_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": None, "query_size": None, "vectors_path": None,
                                    "buffer_mb": 2}))
        assert RunConfig.from_file(path) == RunConfig(buffer_mb=2.0)


# the parser's 28 options, each verb's alike: flag -> (dest, type, nargs, choices)
PARSER_FLAGS = {
    "--config": ("config", None, None, None),
    "--vectors": ("vectors_path", None, None, None),
    "--object-map": ("object_map_path", None, None, None),
    "--synth-objects": ("synth_objects", int, None, None),
    "--synth-points": ("synth_points_per_object", int, None, None),
    "--synth-dim": ("synth_dimension", int, None, None),
    "--synth-spread": ("synth_spread", float, None, None),
    "--gamma": ("gamma", float, None, None),
    "--delta": ("delta", float, None, None),
    "--beta": ("beta", float, None, None),
    "--epsilon": ("epsilon", float, None, None),
    "--c": ("c", int, None, None),
    "--w": ("w", float, None, None),
    "--k": ("k", int, None, None),
    "--k-primes": ("k_primes", int, "+", None),
    "--num-queries": ("num_queries", int, None, None),
    "--query-size": ("query_size", int, None, None),
    "--buffer-mb": ("buffer_mb", float, None, None),
    "--buffer-sizes-mb": ("buffer_sizes_mb", float, "+", None),
    "--strategy": ("strategy", None, None, [NS1, NS2, MMLSH]),
    "--query-splits": ("query_splits", int, None, None),
    "--seed": ("seed", int, None, None),
    "--alg-op-cost-ms": ("alg_op_cost_ms", float, None, None),
    "--index": ("index_path", None, None, None),
    "--profile": ("profile_path", None, None, None),
    "--groundtruth": ("groundtruth_path", None, None, None),
    "--out": ("out_prefix", None, None, None),
    "--json": ("json", None, 0, None),
}

EVERY_FIELD_FLAG = [
    "--vectors", "v.fvecs", "--object-map", "map.csv", "--synth-objects", "30",
    "--synth-points", "7", "--synth-dim", "5", "--synth-spread", "0.2", "--gamma", "0.6",
    "--delta", "0.2", "--beta", "0.4", "--epsilon", "0.45", "--c", "3", "--w", "3.5",
    "--k", "4", "--k-primes", "10", "20", "--num-queries", "6", "--query-size", "3",
    "--buffer-mb", "2.5", "--buffer-sizes-mb", "1", "2.5", "--strategy", NS2,
    "--query-splits", "4", "--seed", "7", "--alg-op-cost-ms", "0.002", "--index", "a.index",
    "--profile", "a.npz", "--groundtruth", "a.csv", "--out", "a",
]


def verb_parsers() -> dict:
    parser = cli.build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


class TestParser:
    def test_every_verb_takes_the_pinned_flags(self):
        verbs = verb_parsers()
        assert set(verbs) == {"build", "groundtruth", "query", "compare", "buffer-sweep"}
        for verb, parser in verbs.items():
            flags = {option: (action.dest, action.type, action.nargs, action.choices)
                     for action in parser._actions for option in action.option_strings
                     if option not in ("-h", "--help")}
            assert flags == PARSER_FLAGS, verb

    def test_every_field_flag_sets_its_field(self):
        expected = RunConfig(
            vectors_path="v.fvecs", object_map_path="map.csv", synth_objects=30,
            synth_points_per_object=7, synth_dimension=5, synth_spread=0.2, gamma=0.6,
            delta=0.2, beta=0.4, epsilon=0.45, c=3, w=3.5, k=4, k_primes=(10, 20),
            num_queries=6, query_size=3, buffer_mb=2.5, buffer_sizes_mb=(1.0, 2.5),
            strategy=NS2, query_splits=4, seed=7, alg_op_cost_ms=0.002, index_path="a.index",
            profile_path="a.npz", groundtruth_path="a.csv", out_prefix="a")
        default = RunConfig()
        assert not [f.name for f in fields(RunConfig)
                    if getattr(expected, f.name) == getattr(default, f.name)]
        for verb in verb_parsers():
            args = cli.build_parser().parse_args([verb] + EVERY_FIELD_FLAG)
            assert cli._config_from_args(args) == expected, verb


class TestQuerySelection:
    def test_deterministic_per_seed(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ds = bench.load_dataset(cfg)
        a = [q.object_id for q in choose_queries(ds, cfg)]
        b = [q.object_id for q in choose_queries(ds, cfg)]
        assert a == b and len(a) == 3

    def test_query_size_subsamples_points(self, tmp_path):
        cfg = tiny_config(tmp_path, query_size=4)
        ds = bench.load_dataset(cfg)
        for q in choose_queries(ds, cfg):
            assert len(q.coords) == 4


class TestRuns:
    def test_report_rows_deterministic(self, tmp_path):
        cfg, ds, index, profile, queries, truth = prepared(tmp_path)
        a = bench.run_mmlsh_queries(cfg, ds, index, queries, truth, profile=profile)
        b = bench.run_mmlsh_queries(cfg, ds, index, queries, truth, profile=profile)
        assert strip_wall(a) == strip_wall(b)

    def test_linear_baseline_has_no_index_io(self, tmp_path):
        cfg, ds, index, profile, queries, truth = prepared(tmp_path)
        rows = bench.run_borda_baselines(cfg, ds, index, queries, truth)
        linear = [r for r in rows if r["method"] == "Linear-Borda"]
        assert linear
        for r in linear:
            assert r["index_io_ms"] == 0.0
            assert r["alg_ms"] == pytest.approx(
                len(queries[0].coords) * ds.n * cfg.alg_op_cost_ms)

    def test_c2lsh_baseline_reports_io(self, tmp_path):
        cfg, ds, index, profile, queries, truth = prepared(tmp_path)
        rows = bench.run_borda_baselines(cfg, ds, index, queries, truth)
        c2 = [r for r in rows if r["method"] == "C2LSH-Borda"]
        assert c2 and all(r["index_io_ms"] > 0 for r in c2)

    def test_empty_c2lsh_answer_gets_an_infinite_ratio(self, tmp_path, monkeypatch):
        cfg, ds, index, profile, queries, truth = prepared(tmp_path)
        monkeypatch.setattr(bench, "point_knn_c2lsh",
                            lambda q, *args, **kwargs: [[]] * len(q))
        rows = bench.run_borda_baselines(cfg, ds, index, queries, truth)
        c2 = [r for r in rows if r["method"] == "C2LSH-Borda"]
        assert c2 and all(r["or_gamma"] == float("inf") for r in c2)
        assert all(np.isfinite(r["or_gamma"]) for r in rows if r["method"] == "Linear-Borda")

    def test_an_mmlsh_run_without_a_profile_is_refused(self, tmp_path, monkeypatch):
        cfg, ds, index, _profile, queries, truth = prepared(tmp_path)
        recorded = []
        monkeypatch.setattr(bench, "record_query_plans",
                            lambda *args: recorded.append(args) or ([], [], []))
        with pytest.raises(ValueError, match="MMLSH needs a frequency profile"):
            bench.run_mmlsh_queries(replace(cfg, strategy=MMLSH), ds, index, queries, truth)
        assert not recorded  # refused before any query ran

    def test_buffer_sweep_covers_grid(self, tmp_path):
        cfg, ds, index, profile, queries, truth = prepared(tmp_path)
        rows = bench.run_buffer_sweep(cfg, ds, index, queries, truth, profile)
        combos = {(r["strategy"], r["buffer_mb"]) for r in rows}
        assert combos == {(s, b) for s in ("NS1", "MMLSH") for b in cfg.buffer_sizes_mb}

    def test_aggregate_recomputes_from_rows(self, tmp_path):
        cfg, ds, index, profile, queries, truth = prepared(tmp_path)
        rows = bench.run_mmlsh_queries(cfg, ds, index, queries, truth, profile=profile)
        aggs = aggregate(rows)
        mean = next(r for r in aggs if r["query_object_id"] == "MEAN")
        std = next(r for r in aggs if r["query_object_id"] == "STD")
        assert mean["total_ms"] == pytest.approx(np.mean([r["total_ms"] for r in rows]))
        assert std["total_ms"] == pytest.approx(np.std([r["total_ms"] for r in rows]))

    @pytest.mark.parametrize("bounds, mean_bound, std_bound", [
        ((np.inf, np.inf), np.inf, "nan"),
        ((0.25, np.inf, 0.75), 0.5, 0.25),
    ])
    def test_aggregate_averages_the_finite_bounds(self, bounds, mean_bound, std_bound):
        rows = [dict(dict.fromkeys(bench.REPORT_COLUMNS, 1.0), query_object_id=i,
                     method="mmLSH", strategy=MMLSH, buffer_mb=1.0, k_prime="", or_flagged=0,
                     bound_warning=int(not np.isfinite(b)), gamma_min_bound=b)
                for i, b in enumerate(bounds)]
        mean, std = aggregate(rows)  # numpy's RuntimeWarning on inf - inf would raise here
        assert mean["bound_warning"] == std["bound_warning"] == bounds.count(np.inf)
        assert mean["gamma_min_bound"] == mean_bound
        if std_bound == "nan":
            assert np.isnan(std["gamma_min_bound"])
        else:
            assert std["gamma_min_bound"] == std_bound

    def test_rebuild_same_seed_identical_artifacts(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ds = bench.load_dataset(cfg)
        bench.build_artifacts(cfg, ds)
        first = (cfg.index_path, open(cfg.index_path, "rb").read())
        bench.build_artifacts(cfg, ds)
        assert open(first[0], "rb").read() == first[1]

    def test_write_report_csv_parses(self, tmp_path):
        cfg, ds, index, profile, queries, truth = prepared(tmp_path)
        rows = bench.run_mmlsh_queries(cfg, ds, index, queries, truth, profile=profile)
        table = bench.write_report(rows, cfg)
        assert "query_object_id" in table.splitlines()[0]
        with open(cfg.out_prefix + ".csv") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        parsed = list(csv.DictReader(lines))
        assert len(parsed) == len(rows) + len(aggregate(rows))
        assert {r["query_object_id"] for r in parsed[-2:]} == {"MEAN", "STD"}


class TextFullDisk:
    """A text file that takes `room` characters, then fails as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, chunk):
        if len(chunk) > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(chunk)
        return self.fh.write(chunk)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("failing", [".csv", ".json"])
def test_a_failed_report_write_leaves_each_previous_file_whole(tmp_path, monkeypatch, failing):
    cfg, ds, index, profile, queries, truth = prepared(tmp_path)
    rows = bench.run_mmlsh_queries(cfg, ds, index, queries, truth, profile=profile)
    bench.write_report(rows, cfg, emit_json=True)
    paths = [Path(cfg.out_prefix + suffix) for suffix in (".csv", ".json")]
    old = [path.read_text() for path in paths]
    bench.write_report(rows[:1], cfg, emit_json=True)
    new = [path.read_text() for path in paths]
    bench.write_report(rows, cfg, emit_json=True)

    def fake_open(path, mode, **kwargs):
        fh = builtins.open(path, mode, **kwargs)
        return TextFullDisk(fh, 100) if failing in os.fspath(path) else fh

    monkeypatch.setattr(mmlsh.lsh, "open", fake_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        bench.write_report(rows[:1], cfg, emit_json=True)
    monkeypatch.undo()
    want = old if failing == ".csv" else [new[0], old[1]]  # the CSV is written first
    assert [path.read_text() for path in paths] == want
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


class TestFarCoordinate:
    def test_one_coordinate_at_1e9_stays_small(self, tmp_path):
        """Index, profile, record and replay never allocate by bucket-id span."""
        cfg = tiny_config(tmp_path)
        synth = bench.load_dataset(cfg)
        coords = synth.coords.copy()
        coords[0, 0] = 1e9
        ds = Dataset(coords, synth.object_ids[synth.point_object_index])
        tracemalloc.start()
        try:
            index, profile = bench.build_artifacts(cfg, ds)
            assert int(index.bucket_hi.max() - index.bucket_lo.min()) > 10 ** 7
            query = QueryObject.from_object(ds, int(synth.object_ids[synth.point_object_index[0]]))
            results, plans, _walls = bench.record_query_plans(cfg, ds, index, [query])
            for strategy in (NS1, NS2, MMLSH):
                stats = [replace(results[0].stats)]
                buf = BufferState(int(cfg.buffer_mb * bench.MB))
                bench.replay_plans(strategy, plans, index, buf, stats,
                                   SchedulerConfig(strategy=strategy, profile=profile))
                assert stats[0].buffer_hits + stats[0].buffer_misses > 0
            truth = {query.object_id: full_ranking(query, ds, cfg.gamma)}
            assert bench.run_borda_baselines(cfg, ds, index, [query], truth)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20


NO_SCIPY_PROBE = """
import sys
import mmlsh
import mmlsh.cli
try:
    mmlsh.cli.main(["--help"])
except SystemExit as done:
    assert done.code == 0, done.code
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_the_package_and_mmlsh_help_load_no_scipy():
    """scipy is a test dependency only: neither the library nor the CLI imports it."""
    src = str(Path(mmlsh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: mmlsh" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


class TestCli:
    def _common(self, cfg):
        return ["--synth-objects", "20", "--synth-points", "8", "--synth-dim", "6",
                "--synth-spread", "0.15", "--gamma", "0.5", "--delta", "0.25",
                "--beta", "0.5", "--epsilon", "0.5", "--k", "3", "--k-primes", "5",
                "--num-queries", "3", "--buffer-mb", "0.05", "--seed", "1",
                "--index", cfg.index_path, "--profile", cfg.profile_path,
                "--groundtruth", cfg.groundtruth_path, "--out", cfg.out_prefix]

    def test_build_then_query_then_compare(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        out = capsys.readouterr().out
        assert "derived: m=" in out
        size = os.path.getsize(cfg.index_path)
        index = mmlsh.lsh.load_index(cfg.index_path)
        assert f"({size:,} B, {size / (index.m * index.n):.2f} B per entry)" in out
        assert cli.main(["query"] + args) == 0
        assert "mmLSH" in capsys.readouterr().out
        assert cli.main(["compare"] + args) == 0
        out = capsys.readouterr().out
        assert "Linear-Borda" in out and "C2LSH-Borda" in out

    def test_buffer_sweep_verb(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg) + ["--buffer-sizes-mb", "0.02", "0.05"]
        assert cli.main(["build"] + args) == 0
        capsys.readouterr()
        assert cli.main(["buffer-sweep"] + args) == 0
        out = capsys.readouterr().out
        assert "NS1" in out and "MMLSH" in out

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["not-a-verb"])
        assert exc.value.code == 2

    def test_data_error_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg) + ["--vectors", str(tmp_path / "missing.fvecs"),
                                    "--object-map", str(tmp_path / "missing.csv")]
        assert cli.main(["build"] + args) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, verb", [("--index", "query"),
                                            ("--groundtruth", "groundtruth")],
                             ids=["--index", "--groundtruth"])
    def test_a_path_that_names_a_directory_exits_3(self, tmp_path, capsys, flag, verb):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        (tmp_path / "dir").mkdir()
        capsys.readouterr()
        assert cli.main([verb] + args + [flag, str(tmp_path / "dir")]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_non_finite_vectors_exit_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        coords = np.zeros((4, 2), dtype=np.float32)
        coords[3, 1] = np.nan
        args = self._common(cfg) + self._vectors(
            tmp_path, coords, "point_id,object_id\n0,0\n1,0\n2,1\n3,1\n")
        assert cli.main(["build"] + args) == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        ("[1, 2]", "JSON object"),
        ('{"gama": 0.3}', "unknown config field 'gama'"),
        ('{"k": "abc"}', "config field 'k' cannot be 'abc'"),
        ('{"alg_op_cost_ms": NaN}', "alg_op_cost_ms must be finite and >= 0, got nan"),
        ('{"buffer_sizes_mb": [20, Infinity]}', "buffer_sizes_mb must be finite and > 0, got inf"),
        ('{"buffer_sizes_mb": []}', "buffer_sizes_mb must not be empty"),
        ('{"k_primes": []}', "k_primes must not be empty"),
        ('{"k": true}', "config field 'k' cannot be True"),
        ('{"seed": 1.0}', "config field 'seed' cannot be 1.0"),
        ('{"strategy": 1}', "config field 'strategy' cannot be 1"),
        ('{"gamma": null}', "config field 'gamma' cannot be None"),
        ('{"k_primes": 25}', "config field 'k_primes' cannot be 25"),
        ('{"k_primes": [25, 50.0]}', "config field 'k_primes' cannot be [25, 50.0]"),
        ('{"k_primes": [25, true]}', "config field 'k_primes' cannot be [25, True]"),
        ('{"buffer_sizes_mb": ["1"]}', "config field 'buffer_sizes_mb' cannot be ['1']"),
    ])
    def test_malformed_config_file_exits_3(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        path.write_text(content)
        assert cli.main(["groundtruth", "--config", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_well_typed_config_file_is_accepted(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_queries": 2, "query_size": 4, "gamma": 1,
                                    "buffer_sizes_mb": [1, 2.5], "strategy": NS2}))
        assert cli.main(["groundtruth", "--config", str(path)] + self._common(cfg)) == 0
        assert "ground truth for 3 queries" in capsys.readouterr().out  # flags win

    @pytest.mark.parametrize("flag, value, message", [
        ("--buffer-mb", "inf", "buffer_mb must be finite and > 0, got inf"),
        ("--alg-op-cost-ms", "nan", "alg_op_cost_ms must be finite and >= 0, got nan"),
        ("--alg-op-cost-ms", "-1", "alg_op_cost_ms must be finite and >= 0, got -1.0"),
        ("--num-queries", "0", "num_queries must be >= 1, got 0"),
        ("--query-splits", "0", "query_splits must be >= 1, got 0"),
        ("--query-size", "-1", "query_size must be >= 1, got -1"),
        ("--query-size", "0", "query_size must be >= 1, got 0"),
        ("--synth-spread", "-1", "synth_spread must be finite and >= 0, got -1.0"),
        ("--synth-spread", "nan", "synth_spread must be finite and >= 0, got nan"),
        ("--synth-spread", "inf", "synth_spread must be finite and >= 0, got inf"),
    ])
    def test_out_of_range_number_exits_3(self, tmp_path, capsys, flag, value, message):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        capsys.readouterr()
        assert cli.main(["query"] + args + [flag, value]) == 3
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err

    def test_a_spread_whose_points_overflow_float32_exits_3_without_a_warning(self, tmp_path,
                                                                            capsys):
        cfg = tiny_config(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["build"] + self._common(cfg) + ["--synth-spread", "1e300"]) == 3
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert "has a non-finite coordinate" in err and "Traceback" not in err
        assert not os.path.exists(cfg.index_path)

    @pytest.mark.parametrize("flags, message", [
        (["--delta", "0.999999", "--epsilon", "2.0"], "epsilon must be in (0, 1), got 2.0"),
        (["--delta", "0.6"], "epsilon (0.5) must exceed delta (0.6)"),
        (["--gamma", "nan"], "gamma must be in (0, 1], got nan"),
        (["--beta", "1.0"], "beta must be in (0, 1), got 1.0"),
        (["--query-splits", "0"], "query_splits must be >= 1, got 0"),
        (["--k", "0"], "k must be >= 1, got 0"),
    ])
    def test_build_refuses_what_query_refuses(self, tmp_path, capsys, flags, message):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg) + flags
        for verb in ("build", "query"):
            assert cli.main([verb] + args) == 3
            assert f"error: {message}" in capsys.readouterr().err
        assert not os.path.exists(cfg.index_path)

    def test_a_delta_that_derives_too_many_projections_exits_3(self, tmp_path, capsys,
                                                                 monkeypatch):
        cfg = tiny_config(tmp_path)
        monkeypatch.setattr(bench, "build_index", lambda *a, **kw: pytest.fail("hashed"))
        args = ["--synth-objects", "30", "--synth-points", "6", "--synth-dim", "8",
                "--delta", "1e-300", "--index", cfg.index_path, "--profile", cfg.profile_path]
        assert cli.main(["build"] + args) == 3
        assert "more than MAX_PROJECTIONS=1024" in capsys.readouterr().err
        assert not os.path.exists(cfg.index_path)

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0")])
    def test_a_bucket_width_that_is_not_finite_and_positive_exits_3(self, tmp_path, capsys,
                                                                     monkeypatch, value, shown):
        cfg = tiny_config(tmp_path)
        monkeypatch.setattr(bench, "build_index", lambda *a, **kw: pytest.fail("hashed"))
        args = ["--synth-objects", "20", "--synth-points", "5", "--synth-dim", "8",
                "--w", value, "--index", cfg.index_path, "--profile", cfg.profile_path]
        assert cli.main(["build"] + args) == 3
        err = capsys.readouterr().err
        assert f"error: w must be finite and > 0, got {shown}" in err and "Traceback" not in err
        assert not os.path.exists(cfg.index_path)

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", str(2 ** 63), f"seed must be in [0, 2**63), got {2 ** 63}"),
        ("--seed", "-1", "seed must be in [0, 2**63), got -1"),
        ("--c", str(2 ** 31), f"c must be an integer in [2, 2**31), got {2 ** 31}"),
    ])
    def test_a_value_the_index_file_cannot_hold_exits_3(self, tmp_path, capsys, monkeypatch,
                                                        flag, value, message):
        # the header packs the seed as int64 and c as int32
        cfg = tiny_config(tmp_path)
        monkeypatch.setattr(bench, "build_index", lambda *a, **kw: pytest.fail("hashed"))
        args = ["--synth-objects", "20", "--synth-points", "5", "--synth-dim", "8", flag, value,
                "--index", cfg.index_path, "--profile", cfg.profile_path]
        assert cli.main(["build"] + args) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []  # no index, profile or temporary file

    def test_default_epsilon_is_checked_at_build(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = ["--delta", "0.999999", "--index", cfg.index_path, "--profile", cfg.profile_path]
        assert cli.main(["build"] + args) == 3  # epsilon defaults to 2 * delta
        assert "error: epsilon must be in (0, 1), got 1.999998" in capsys.readouterr().err

    def test_an_mmlsh_run_without_its_profile_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        os.remove(cfg.profile_path)
        capsys.readouterr()
        for verb, strategy in (("query", MMLSH), ("compare", MMLSH), ("buffer-sweep", NS1)):
            assert cli.main([verb] + args + ["--strategy", strategy]) == 3
            captured = capsys.readouterr()
            assert f"error: {cfg.profile_path}: no frequency profile" in captured.err
            assert captured.out == ""
        for verb, strategy in (("query", NS1), ("compare", NS2)):  # no run here needs it
            assert cli.main([verb] + args + ["--strategy", strategy]) == 0

    def test_k_prime_below_k_exits_3_only_where_it_is_read(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg) + ["--k-primes", "2", "5", "1"]  # k is 3
        for verb in ("build", "query", "buffer-sweep"):
            assert cli.main([verb] + args) == 0
        capsys.readouterr()
        assert cli.main(["compare"] + args) == 3
        captured = capsys.readouterr()
        assert "error: k_primes [2, 1] are below k=3" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("verb, flags, message", [
        ("compare", ["--k-primes", "5", "5"], "k_primes must not repeat a value, got (5, 5)"),
        ("buffer-sweep", ["--buffer-sizes-mb", "0.01", "0.01"],
         "buffer_sizes_mb must not repeat a value, got (0.01, 0.01)"),
    ])
    def test_a_repeated_report_group_exits_3(self, tmp_path, capsys, monkeypatch, verb, flags,
                                             message):
        # each k' and each buffer size is one report group; a repeat would run it twice
        cfg = tiny_config(tmp_path)
        monkeypatch.setattr(bench, "load_dataset", lambda *a, **kw: pytest.fail("loaded"))
        assert cli.main([verb] + self._common(cfg) + flags) == 3
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("verb, flags, message", [
        ("query", ["--buffer-mb", "1e-7"], "buffer_mb must be at least 1 byte, got 1e-07 MB"),
        ("buffer-sweep", ["--buffer-sizes-mb", "0.02", "9e-7"],
         "buffer_sizes_mb must be at least 1 byte, got 9e-07 MB"),
    ])
    def test_a_buffer_under_one_byte_exits_3_before_any_search(self, tmp_path, capsys,
                                                               monkeypatch, verb, flags, message):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        capsys.readouterr()
        monkeypatch.setattr(bench, "knn_objects", lambda *a, **kw: pytest.fail("searched"))
        assert cli.main([verb] + args + flags) == 3
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("verb", ["query", "buffer-sweep"])
    def test_query_splits_past_int64_exits_3_before_any_search(self, tmp_path, capsys,
                                                                monkeypatch, verb):
        """MMLSH cuts query ranges in int64, so a larger split count is refused up front."""
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        capsys.readouterr()
        monkeypatch.setattr(bench, "knn_objects", lambda *a, **kw: pytest.fail("searched"))
        for splits in ("100000000000000000000", str(2 ** 63)):
            flags = ["--strategy", "MMLSH", "--query-splits", splits]
            assert cli.main([verb] + args + flags) == 3
            captured = capsys.readouterr()
            assert f"error: query_splits must be < 2**63, got {splits}" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""
        monkeypatch.undo()
        assert cli.main(["query"] + args + ["--query-splits", str(2 ** 63 - 1)]) == 0

    def test_default_config_rows_carry_the_guarantee_bound(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        paths = ["--num-queries", "1", "--k-primes", "25", "--index", cfg.index_path,
                 "--profile", cfg.profile_path, "--groundtruth", cfg.groundtruth_path,
                 "--out", cfg.out_prefix]
        assert cli.main(["build"] + paths) == 0
        capsys.readouterr()
        assert cli.main(["compare"] + paths) == 0
        header, *lines = capsys.readouterr().out.splitlines()

        def column(line, name):  # the table pads every column to one width
            start = header.index(name)
            end = start + len(name) + 2  # both are wider than any of their values
            return line[start:end].strip()

        per_query = [ln for ln in lines if ln.split()[0].isdigit()]  # not MEAN or STD
        mmlsh_rows = [ln for ln in per_query if " mmLSH " in ln]
        borda_rows = [ln for ln in per_query if "Borda" in ln]
        assert mmlsh_rows and borda_rows
        for line in mmlsh_rows:
            assert column(line, "bound_warning") == "1"
            # |Q| = L = 20, delta = 0.1, epsilon = 0.2, beta = 25/200
            assert float(column(line, "gamma_min_bound")) == pytest.approx(0.9419, abs=1e-4)
        for line in borda_rows:
            assert column(line, "bound_warning") == column(line, "gamma_min_bound") == ""
        with open(cfg.out_prefix + ".csv") as fh:
            parsed = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        first = parsed[0]
        assert (first["method"], first["bound_warning"]) == ("mmLSH", "1")
        assert float(first["gamma_min_bound"]) == pytest.approx(0.9419, abs=1e-4)

    def _vectors(self, tmp_path, coords, object_map):
        write_feature_file(tmp_path / "v.fvecs", coords)
        (tmp_path / "map.csv").write_text(object_map)
        return ["--vectors", str(tmp_path / "v.fvecs"), "--object-map", str(tmp_path / "map.csv")]

    def test_truncated_feature_file_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg) + self._vectors(
            tmp_path, np.ones((4, 2), dtype=np.float32), "point_id,object_id\n0,0\n1,0\n2,1\n3,1\n")
        path = tmp_path / "v.fvecs"
        path.write_bytes(path.read_bytes()[:-8])  # the last record loses two of its three words
        assert cli.main(["build"] + args) == 3
        assert "error: record 3 malformed" in capsys.readouterr().err

    def test_duplicate_point_in_object_map_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg) + self._vectors(
            tmp_path, np.ones((3, 2), dtype=np.float32), "point_id,object_id\n0,0\n1,0\n1,1\n2,1\n")
        assert cli.main(["build"] + args) == 3
        assert "error: line 4: duplicate row for point 1" in capsys.readouterr().err

    def test_index_with_a_flipped_byte_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        with open(cfg.index_path, "rb") as fh:
            raw = bytearray(fh.read())
        raw[len(raw) // 2] ^= 0x01
        with open(cfg.index_path, "wb") as fh:
            fh.write(raw)
        capsys.readouterr()
        assert cli.main(["query"] + args) == 3
        assert "error: checksum mismatch" in capsys.readouterr().err

    def test_index_of_another_format_version_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        with open(cfg.index_path, "r+b") as fh:
            raw = bytearray(fh.read())
            raw[7:12] = b"1" + (1).to_bytes(4, "little")  # magic MMLSHIX1, version 1
            fh.seek(0)
            fh.write(raw[:-32] + hashlib.sha256(raw[:-32]).digest())
        capsys.readouterr()
        assert cli.main(["query"] + args) == 3
        assert "error: unsupported index version 1" in capsys.readouterr().err

    def test_truncated_profile_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        with open(cfg.profile_path, "rb") as fh:
            raw = fh.read()
        with open(cfg.profile_path, "wb") as fh:
            fh.write(raw[:len(raw) // 2])
        capsys.readouterr()
        assert cli.main(["query"] + args) == 3
        assert "not a frequency profile" in capsys.readouterr().err

    def test_profile_of_another_index_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        profile = FrequencyProfile.load(cfg.profile_path)
        m = profile.means.shape[0]
        FrequencyProfile(profile.edges[:m - 1], profile.means[:m - 1]).save(cfg.profile_path)
        capsys.readouterr()
        assert cli.main(["query"] + args) == 3
        assert f"profile has {m - 1} projections, the index has m={m}" in capsys.readouterr().err

    def test_profile_built_for_another_seed_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        other = str(tmp_path / "seed2.profile.npz")
        seed2 = ["--seed", "2", "--index", str(tmp_path / "seed2.index"), "--profile", other]
        assert cli.main(["build"] + args + seed2) == 0
        assert cli.main(["build"] + args) == 0
        capsys.readouterr()
        assert cli.main(["query"] + args + ["--profile", other]) == 3
        assert f"{other}: profile regions do not span" in capsys.readouterr().err

    def test_index_built_over_another_dataset_exits_3(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)  # seed 1
        assert cli.main(["build"] + args) == 0
        capsys.readouterr()
        for verb in ("query", "compare", "buffer-sweep"):
            assert cli.main([verb] + args + ["--seed", "2"]) == 3
            captured = capsys.readouterr()
            assert f"error: {cfg.index_path}: the index" in captured.err
            assert captured.out == ""
        assert cli.main(["query"] + args + ["--synth-objects", "21"]) == 3
        err = capsys.readouterr().err
        assert "(n=160, d=6) was not built over this dataset (n=168, d=6)" in err

    def test_index_over_other_coordinates_of_the_same_shape_exits_3(self, tmp_path, capsys):
        """Seeds 0 and 5 synthesize datasets of one shape, so the refusal names the buckets."""
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args + ["--seed", "0"]) == 0
        capsys.readouterr()
        assert cli.main(["query"] + args + ["--seed", "5"]) == 3
        captured = capsys.readouterr()
        assert (f"error: {cfg.index_path}: the index (n=160, d=6) was not built over this "
                f"dataset: the dataset's coordinates do not hash to the stored buckets"
                in captured.err)
        assert "(n=160, d=6) was not built over this dataset (n=" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, built, asked", [
        (["--delta", "0.3"], "delta=0.25", "delta=0.3"),
        (["--beta", "0.6"], "beta=0.5", "beta=0.6"),
        (["--c", "3"], "c=2", "c=3"),
        (["--w", "4.0"], "w=2.184", "w=4.0"),
    ])
    def test_an_index_built_with_other_parameters_exits_3(self, tmp_path, capsys, flags, built,
                                                          asked):
        """The search would run on the index's parameters, under a header naming the run's."""
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        before = sorted(os.listdir(tmp_path))
        for verb in ("query", "compare", "buffer-sweep"):
            capsys.readouterr()
            assert cli.main([verb] + args + flags) == 3
            captured = capsys.readouterr()
            assert f"error: {cfg.index_path}: the index was built with {built}" in captured.err
            assert f"not the run's {asked}" in captured.err
            assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == before  # no report and no ground truth written

    def test_an_index_built_with_another_seed_exits_3(self, tmp_path, capsys):
        """Over a vectors file the seed leaves the dataset as it is, so `holds` cannot see it."""
        cfg = tiny_config(tmp_path)
        coords = np.random.default_rng(0).normal(size=(40, 6)).astype(np.float32)
        object_map = "point_id,object_id\n" + "".join(f"{i},{i // 4}\n" for i in range(40))
        args = self._common(cfg) + self._vectors(tmp_path, coords, object_map)  # seed 1
        assert cli.main(["build"] + args) == 0
        assert cli.main(["query"] + args) == 0
        with open(cfg.out_prefix + ".csv", "rb") as fh:
            report = fh.read()
        for verb in ("query", "compare", "buffer-sweep"):
            capsys.readouterr()
            assert cli.main([verb] + args + ["--seed", "2"]) == 3
            captured = capsys.readouterr()
            assert "the index was built with seed=1, not the run's seed=2" in captured.err
            assert captured.out == ""
        with open(cfg.out_prefix + ".csv", "rb") as fh:
            assert fh.read() == report

    def test_query_with_an_empty_answer_gets_an_infinite_ratio(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = ["--synth-objects", "30", "--synth-points", "6", "--synth-dim", "8",
                "--synth-spread", "2.0", "--gamma", "1.0", "--delta", "0.05", "--epsilon", "0.06",
                "--k", "5", "--num-queries", "5", "--index", cfg.index_path,
                "--profile", cfg.profile_path, "--groundtruth", cfg.groundtruth_path,
                "--out", cfg.out_prefix]
        assert cli.main(["build"] + args) == 0
        assert cli.main(["query"] + args) == 0
        with open(cfg.out_prefix + ".csv") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        empty = [r for r in rows if r["or_gamma"] == "inf"]
        assert empty and all(r["stop"] == "EXHAUSTED" and r["answered"] == "0" for r in empty)
        mean = next(r for r in rows if r["query_object_id"] == "MEAN")
        assert np.isfinite(float(mean["or_gamma"]))  # the mean skips the empty answer
        queries = [r for r in rows if r["query_object_id"] not in ("MEAN", "STD")]
        assert mean["answered"] == str(len(queries) - len(empty))  # and says how many it covers

    @pytest.mark.parametrize("spoil", ["nan means", "negative means", "nan edge",
                                       "decreasing edges"])
    def test_malformed_profile_exits_3(self, tmp_path, capsys, spoil):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        with np.load(cfg.profile_path) as data:
            edges, means = data["edges"], data["means"]
        if spoil == "nan means":
            means[:] = np.nan
        elif spoil == "negative means":
            means[:] = -1.0
        elif spoil == "nan edge":
            edges[0, 1] = np.nan
        else:
            edges[0, 1] = edges[0, 2] + 1.0
        np.savez(cfg.profile_path, edges=edges, means=means)
        capsys.readouterr()
        assert cli.main(["query"] + args + ["--strategy", MMLSH, "--buffer-mb", "0.01"]) == 3
        assert "not a frequency profile" in capsys.readouterr().err

    def test_groundtruth_verb(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["groundtruth"] + args) == 0
        assert "ground truth for 3 queries" in capsys.readouterr().out

    def test_only_the_groundtruth_verb_touches_the_groundtruth_file(self, tmp_path, capsys):
        """The report verbs rank their queries themselves; `groundtruth` writes the file."""
        cfg = tiny_config(tmp_path)
        args = self._common(cfg) + ["--buffer-sizes-mb", "0.02", "0.05"]
        assert cli.main(["build"] + args) == 0

        def reports():
            rows = {}
            for verb in ("query", "compare", "buffer-sweep"):
                assert cli.main([verb] + args) == 0
                with open(cfg.out_prefix + ".csv", newline="") as fh:
                    rows[verb] = strip_wall(csv.DictReader(ln for ln in fh
                                                           if not ln.startswith("#")))
            return rows

        without = reports()
        assert not os.path.exists(cfg.groundtruth_path)
        garbage = b"\xff not a ranking\r\n1,2\n3"
        with open(cfg.groundtruth_path, "wb") as fh:
            fh.write(garbage)
        assert reports() == without
        with open(cfg.groundtruth_path, "rb") as fh:
            assert fh.read() == garbage
        assert cli.main(["groundtruth"] + args) == 0
        dataset = bench.load_dataset(cfg)
        fresh = tmp_path / "fresh.csv"
        save_ground_truth([full_ranking(q, dataset, cfg.gamma)
                           for q in choose_queries(dataset, cfg)], fresh)
        with open(cfg.groundtruth_path, "rb") as fh:
            assert fh.read() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "t.gt.csv", "t.index",
                                                "t.profile.npz", "t.report.csv"]

    @pytest.mark.parametrize("spoil", ["short row", "cut at a row", "cut inside a row",
                                       "not text"])
    def test_a_damaged_groundtruth_cache_is_recomputed(self, tmp_path, capsys, spoil):
        """`query` never reads a damaged file; `groundtruth` writes it whole again."""
        cfg = tiny_config(tmp_path)
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        assert cli.main(["groundtruth"] + args) == 0
        with open(cfg.groundtruth_path, "rb") as fh:
            whole = fh.read()
        lines = whole.splitlines(keepends=True)  # header, 3 queries x 20 objects
        if spoil == "short row":
            lines[5] = b",".join(lines[5].split(b",")[:2]) + b"\r\n"
            damaged = b"".join(lines)
        elif spoil == "cut at a row":  # the last query's ranking is 5 objects short
            damaged = b"".join(lines[:-5])
        elif spoil == "cut inside a row":  # the last distance loses two digits but still parses
            damaged = whole[:-4]
        else:
            damaged = b"\xff" + whole
        with open(cfg.groundtruth_path, "wb") as fh:
            fh.write(damaged)
        for verb, after in (("query", damaged), ("groundtruth", whole)):
            capsys.readouterr()
            assert cli.main([verb] + args) == 0
            assert capsys.readouterr().err == ""
            with open(cfg.groundtruth_path, "rb") as fh:
                assert fh.read() == after
        assert sorted(os.listdir(tmp_path)) == ["t.gt.csv", "t.index", "t.profile.npz",
                                                "t.report.csv"]

    def test_a_profile_path_without_a_suffix_is_the_file_written(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, profile_path=str(tmp_path / "prof"))
        args = self._common(cfg)
        assert cli.main(["build"] + args) == 0
        assert os.path.exists(cfg.profile_path)
        assert not os.path.exists(cfg.profile_path + ".npz")
        capsys.readouterr()
        assert cli.main(["query"] + args + ["--strategy", MMLSH]) == 0
        assert "MMLSH" in capsys.readouterr().out
