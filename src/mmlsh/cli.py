"""Benchmark command-line driver.

Verbs: build, groundtruth, query, compare, buffer-sweep. `groundtruth` writes
the queries' exact rankings to --groundtruth; the report verbs rank their
queries themselves and never read that file. Each verb takes one flag per
RunConfig field, derived from its type hint: the field's name with
`_` as `-`, but for --vectors, --object-map, --synth-points, --synth-dim,
--index, --profile, --groundtruth and --out, and a list of values for a
tuple field. A JSON config file (--config) supplies defaults and flags
override it; --json also writes the report as JSON.
Exit codes: 0 success, 2 usage error, 3 data, format or file error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from functools import partial

from .baselines import full_ranking, save_ground_truth
from .bench import (SWEEP_STRATEGIES, RunConfig, build_artifacts, choose_queries, config_fields,
                    load_artifacts, load_dataset, run_borda_baselines, run_buffer_sweep,
                    run_mmlsh_queries, write_report)
from .buffering import MMLSH, NS1, NS2
from .errors import IndexFileError, ProfileFileError
from .lsh import derive_params

# every package error (mmlsh.errors) subclasses ValueError; a path that is
# missing, a directory or unreadable raises OSError
DATA_ERRORS = (ValueError, OSError)

# the flags not spelled as their RunConfig field
FLAG_NAMES = {"vectors_path": "--vectors", "object_map_path": "--object-map",
              "synth_points_per_object": "--synth-points", "synth_dimension": "--synth-dim",
              "index_path": "--index", "profile_path": "--profile",
              "groundtruth_path": "--groundtruth", "out_prefix": "--out"}
FLAG_OPTIONS = {"strategy": {"choices": [NS1, NS2, MMLSH]},
                "query_size": {"help": "points per query object (default: the whole object)"}}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    for name, (typ, many, _optional) in config_fields().items():
        parser.add_argument(FLAG_NAMES.get(name, "--" + name.replace("_", "-")), dest=name,
                            type=None if typ is str else typ, nargs="+" if many else None,
                            **FLAG_OPTIONS.get(name, {}))
    parser.add_argument("--json", action="store_true", help="also emit a JSON report")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {name: getattr(args, name) for name in config_fields()
                 if getattr(args, name) is not None}
    if args.config:
        return RunConfig.from_file(args.config, overrides)
    return RunConfig(**overrides)


def cmd_build(args) -> int:
    cfg = _config_from_args(args)
    dataset = load_dataset(cfg)
    index, _profile = build_artifacts(cfg, dataset)
    p = index.params
    print(f"dataset: n={dataset.n} S={dataset.num_objects} d={dataset.dimension}")
    print(f"derived: m={p.m} l={p.l} p1={p.p1:.6f} p2={p.p2:.6f} z={p.z:.6f}")
    size = os.path.getsize(cfg.index_path)
    print(f"index written to {cfg.index_path} ({size:,} B, {size / (index.m * index.n):.2f} B "
          f"per entry); frequency profile to {cfg.profile_path}")
    return 0


def cmd_groundtruth(args) -> int:
    cfg = _config_from_args(args)
    dataset = load_dataset(cfg)
    truths = [full_ranking(q, dataset, cfg.gamma) for q in choose_queries(dataset, cfg)]
    save_ground_truth(truths, cfg.groundtruth_path)
    print(f"ground truth for {len(truths)} queries in {cfg.groundtruth_path}")
    return 0


def _report(args, run, baselines=False, strategies=None) -> int:
    """The report verbs' one set-up, then the report of `run`'s rows.

    The set-up loads the dataset and the artifacts, picks the queries and
    ranks every object for each (`full_ranking`). It refuses an index built
    over another dataset or with other parameters or another seed than the
    run's, and an MMLSH run without a frequency profile. `strategies` names what `run` replays,
    by default the config's strategy; `baselines` adds the Borda rows.
    """
    cfg = _config_from_args(args)
    dataset = load_dataset(cfg)
    index, profile = load_artifacts(cfg)
    if not index.holds(dataset):
        refusal = f"{cfg.index_path}: the index (n={index.n}, d={index.dimension}) was not built"
        if (dataset.n, dataset.dimension) == (index.n, index.dimension):
            raise IndexFileError(f"{refusal} over this dataset: the dataset's coordinates do "
                                 f"not hash to the stored buckets")
        raise IndexFileError(f"{refusal} over this dataset (n={dataset.n}, "
                             f"d={dataset.dimension})")
    # the search runs on the index's parameters, so they must be the ones the report names
    built = {**asdict(index.params), "seed": index.seed}
    asked = {**asdict(derive_params(cfg.delta, cfg.resolved_beta(dataset.num_objects),
                                    cfg.c, cfg.w)), "seed": cfg.seed}
    differ = [name for name in asked if built[name] != asked[name]]
    if differ:
        raise IndexFileError(
            f"{cfg.index_path}: the index was built with "
            f"{', '.join(f'{name}={built[name]!r}' for name in differ)}, not the run's "
            f"{', '.join(f'{name}={asked[name]!r}' for name in differ)}; rebuild it with "
            f"`mmlsh build`")
    if profile is None and MMLSH in (strategies or (cfg.strategy,)):
        raise ProfileFileError(f"{cfg.profile_path}: no frequency profile, which an MMLSH "
                               f"run needs; `mmlsh build` writes it")
    queries = choose_queries(dataset, cfg)
    truth = {q.object_id: full_ranking(q, dataset, cfg.gamma) for q in queries}
    # the baselines first, so that a k' below k fails before any query runs
    baseline_rows = run_borda_baselines(cfg, dataset, index, queries, truth) if baselines else []
    rows = run(cfg, dataset, index, queries, truth, profile) + baseline_rows
    print(write_report(rows, cfg, emit_json=args.json))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmlsh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("build", cmd_build, "build the index and frequency profile"),
        ("groundtruth", cmd_groundtruth, "write the queries' exact rankings to --groundtruth"),
        ("query", partial(_report, run=run_mmlsh_queries),
         "run object queries under one strategy"),
        ("compare", partial(_report, run=run_mmlsh_queries, baselines=True),
         "compare against Linear-Borda and C2LSH-Borda"),
        ("buffer-sweep", partial(_report, run=run_buffer_sweep, strategies=SWEEP_STRATEGIES),
         "NS1 vs MMLSH across buffer sizes"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
