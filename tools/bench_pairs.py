"""Run the benchmark on two checkouts in alternating pairs and compare their end-to-end metrics.

    python3 tools/bench_pairs.py PARENT CHANGE --workload evict-large --seeds 902-913

PARENT and CHANGE are directories that each hold a checkout of the repo.
For each seed both run `perfbench/run.py --workload W --seed S`, one
process at a time; the parent runs first on the first seed, the change on
the next, and so on. Then, for each end-to-end metric that
`BENCHMARK.json` names, one line gives the parent's and the change's
median over the pairs, the change in %, the pairs the change won (by the
metric's `better`) and each side's interquartile range. The exit code is
1 when a run is not `correct: true`, or when the `fingerprint.*` lines of
the two runs of a pair differ. With `--save DIR`, each run's final JSON
line is written to DIR/<parent|change>-<workload>-<seed>.json, so that a
cited result file is the line the summary compared. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    """`A-B` as the seeds A to B inclusive, or `A` as one seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def parse_run(stdout: str) -> tuple[dict | None, list[str]]:
    """The result object of one run's last line (None if it is not JSON) and its fingerprint lines."""
    lines = stdout.splitlines()
    fingerprints = [line for line in lines if line.startswith("fingerprint.")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return result, fingerprints


def summarize(pairs: list[tuple[str, str]], better: dict[str, str]) -> tuple[list[str], bool]:
    """Report lines over (parent stdout, change stdout) pairs, and whether every pair checked out.

    `better` maps a metric's name to "lower" or "higher"; a metric a run
    reports under a workload prefix (`evict-large/setup_s`) is looked up by
    the name after the slash.
    """
    lines, ok = [], True
    values: dict[str, tuple[list, list]] = {}
    for i, (parent_out, change_out) in enumerate(pairs):
        runs = [parse_run(parent_out), parse_run(change_out)]
        for side, (result, _) in zip(("parent", "change"), runs):
            if result is None or result.get("correct") is not True:
                lines.append(f"pair {i}: the {side} run is not correct: true")
                ok = False
        if runs[0][1] != runs[1][1]:
            lines.append(f"pair {i}: the fingerprint lines differ")
            ok = False
        if runs[0][0] is None or runs[1][0] is None:
            continue
        for name, entry in runs[0][0]["metrics"].items():
            if name.rpartition("/")[2] in better and name in runs[1][0]["metrics"]:
                pair = values.setdefault(name, ([], []))
                pair[0].append(entry["value"])
                pair[1].append(runs[1][0]["metrics"][name]["value"])
    lines.append(f"{'metric':<36} {'parent':>12} {'change':>12} {'change %':>9} {'won':>7} "
                 f"{'parent IQR':>11} {'change IQR':>11}")
    for name, (parent, change) in values.items():
        lower = better[name.rpartition("/")[2]] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        before, after = statistics.median(parent), statistics.median(change)
        pct = f"{100 * (after - before) / before:+.1f}" if before else "n/a"
        lines.append(f"{name:<36} {before:>12.6g} {after:>12.6g} {pct:>9} "
                     f"{f'{won}/{len(parent)}':>7} {spread(parent):>11.4g} {spread(change):>11.4g}")
    return lines, ok


def spread(values: list[float]) -> float:
    """The distance between the first and third quartiles, 0 for a single value."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def save_run(directory: Path, side: str, workload: str, seed: int, stdout: str) -> None:
    """Write the final line of one run's stdout to directory/<side>-<workload>-<seed>.json.

    Nothing is written when that line is not JSON.
    """
    if parse_run(stdout)[0] is not None:
        (directory / f"{side}-{workload}-{seed}.json").write_text(stdout.splitlines()[-1] + "\n")


def run(checkout: Path, workload: str, seed: int) -> str:
    """Stdout of one benchmark run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    return subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          check=False).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--save", type=Path, metavar="DIR",
                        help="write each run's final JSON line to a file in DIR")
    args = parser.parse_args(argv)
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
    better = {entry["name"]: entry["better"]
              for entry in json.loads(BENCHMARK.read_text())["end_to_end"]}
    pairs = []
    for i, seed in enumerate(args.seeds):
        outputs = ["", ""]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            outputs[side] = run((args.parent, args.change)[side], args.workload, seed)
            if args.save:
                save_run(args.save, ("parent", "change")[side], args.workload, seed, outputs[side])
        pairs.append(tuple(outputs))
        print(f"seed {seed}: {'parent' if i % 2 == 0 else 'change'} ran first", flush=True)
    lines, ok = summarize(pairs, better)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
