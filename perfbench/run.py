"""Run one workload of the mmlsh benchmark and print its metrics.

    python3 perfbench/run.py --workload fit-small --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each line before the last names a metric, its value and its unit; the last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` measures the end-to-end metrics; `--trace 1` runs the workload
once untraced and once traced and reports the per-layer metrics. `--workload
all` runs every workload in its own process, so each peak RSS is its own.
`--seconds` is accepted and recorded but changes nothing: a run makes a
fixed number of rounds, so that every commit measures the same work.
The exit code is 1 when an answer check, a fingerprint or a guard fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return {var: int(os.environ[var]) for var in THREAD_VARS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own child process; a combined result line last."""
    from harness import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return status or (0 if summary["correct"] else 1)


def run_one(args, caps) -> int:
    import numpy
    import scipy

    import harness
    from spans import Tracer
    from speed import PROBE_REFERENCE_MS

    wl = harness.WORKLOADS[args.workload]
    env = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(), "thread_caps": caps,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    print("env " + json.dumps(env), flush=True)

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch)
    try:
        if args.trace:
            plain = harness.run_workload(wl, args.seed, workdir, rounds=1)
            tracer = Tracer()
            with tracer.installed(harness.layer_patches()):
                traced = harness.run_workload(wl, args.seed, workdir, tracer=tracer, rounds=1)
            spans_path = os.path.join(scratch, f"spans-{wl.name}-seed{args.seed}.jsonl")
            tracer.write_jsonl(spans_path)
            print(f"spans {spans_path}")
            records = (plain, traced)
            metrics = harness.per_layer(plain, traced, tracer)
            problems = plain.problems + traced.problems
            if traced.fingerprints() != plain.fingerprints():
                problems.append("traced run's answers or modeled counters differ from untraced")
            if traced.rounds[0].exact_counts() != plain.rounds[0].exact_counts():
                problems.append("traced run's exact counts differ from untraced")
        else:
            rec = harness.run_workload(wl, args.seed, workdir)
            records = (rec,)
            metrics = harness.end_to_end(rec)
            for name, (value, unit) in harness.end_to_end(rec, scaled=False).items():
                if unit in ("s", "ms", "1/s"):
                    print(f"raw.{name:<40} {value:>18.6f} {unit}")
            problems = rec.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    last = records[-1]
    probes = last.gauge.probes
    print(f"probe_ms median {statistics.median(probes):.3f} over {len(probes)} probes, "
          f"reference {PROBE_REFERENCE_MS}")
    print(f"rounds {len(last.rounds)}  queries {len(last.queries)}  "
          f"working_set_bytes {last.working_set_bytes}  "
          f"buffer_bytes {int(last.cfg.buffer_mb * harness.MB)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>18.6f} {unit}")
    attempted, failed = last.attempted, last.failed
    print(f"{'failed_frac':<44} {failed / attempted:>18.6f} fraction")
    for kind, digest in last.fingerprints().items():
        print(f"fingerprint.{kind} {digest}")
    for rnd in last.rounds:
        for error in rnd.errors:
            print(f"error {error}")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    caps = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "mmlsh", "__init__.py")):
        print(f"error: no mmlsh package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mmlsh

    if os.path.dirname(os.path.abspath(mmlsh.__file__)) != os.path.join(SRC, "mmlsh"):
        print(f"error: imported mmlsh from {mmlsh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from harness import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args, caps)


if __name__ == "__main__":
    sys.exit(main())
