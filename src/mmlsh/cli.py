"""Benchmark command-line driver.

Verbs: build, groundtruth, query, compare, buffer-sweep. Every flag mirrors a
RunConfig field; a JSON config file supplies defaults and flags override it.
Exit codes: 0 success, 2 usage error, 3 data or format error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from functools import partial

from .bench import (SWEEP_STRATEGIES, RunConfig, build_artifacts, choose_queries,
                    ensure_ground_truth, load_artifacts, load_dataset, run_borda_baselines,
                    run_buffer_sweep, run_mmlsh_queries, write_report)
from .buffering import MMLSH, NS1, NS2
from .errors import IndexFileError, ProfileFileError
from .lsh import derive_params

# every package error (mmlsh.errors) subclasses ValueError
DATA_ERRORS = (ValueError, FileNotFoundError)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    parser.add_argument("--vectors", dest="vectors_path")
    parser.add_argument("--object-map", dest="object_map_path")
    parser.add_argument("--synth-objects", type=int, dest="synth_objects")
    parser.add_argument("--synth-points", type=int, dest="synth_points_per_object")
    parser.add_argument("--synth-dim", type=int, dest="synth_dimension")
    parser.add_argument("--synth-spread", type=float, dest="synth_spread")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--c", type=int)
    parser.add_argument("--w", type=float)
    parser.add_argument("--k", type=int)
    parser.add_argument("--k-primes", type=int, nargs="+", dest="k_primes")
    parser.add_argument("--num-queries", type=int, dest="num_queries")
    parser.add_argument("--query-size", type=int, dest="query_size",
                        help="points per query object (default: the whole object)")
    parser.add_argument("--buffer-mb", type=float, dest="buffer_mb")
    parser.add_argument("--buffer-sizes-mb", type=float, nargs="+", dest="buffer_sizes_mb")
    parser.add_argument("--strategy", choices=[NS1, NS2, MMLSH])
    parser.add_argument("--query-splits", type=int, dest="query_splits")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--alg-op-cost-ms", type=float, dest="alg_op_cost_ms")
    parser.add_argument("--index", dest="index_path")
    parser.add_argument("--profile", dest="profile_path")
    parser.add_argument("--groundtruth", dest="groundtruth_path")
    parser.add_argument("--out", dest="out_prefix")
    parser.add_argument("--json", action="store_true", help="also emit a JSON report")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("config", "command", "json", "func")}
    if "k_primes" in overrides:
        overrides["k_primes"] = tuple(overrides["k_primes"])
    if "buffer_sizes_mb" in overrides:
        overrides["buffer_sizes_mb"] = tuple(overrides["buffer_sizes_mb"])
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
    queries = choose_queries(dataset, cfg)
    truth = ensure_ground_truth(cfg, dataset, queries)
    print(f"ground truth for {len(truth)} queries in {cfg.groundtruth_path}")
    return 0


def _report(args, run, baselines=False, strategies=None) -> int:
    """The report verbs' one set-up, then the report of `run`'s rows.

    The set-up loads the dataset and the artifacts and picks the queries
    and their exact rankings. It refuses an index built over another dataset
    or with other parameters or another seed than the run's, and an MMLSH
    run without a frequency profile. `strategies` names what `run` replays,
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
    truth = ensure_ground_truth(cfg, dataset, queries)
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
        ("groundtruth", cmd_groundtruth, "compute or reuse the exact ranking cache"),
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
