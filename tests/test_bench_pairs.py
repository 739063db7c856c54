"""`tools/bench_pairs.py` summarizes canned benchmark outputs; no benchmark process is started."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

BETTER = {"setup_s": "lower", "queries_per_s": "higher"}
FINGERPRINTS = "fingerprint.answers 186c\nfingerprint.counters 6e2a\n"


def output(setup_s, queries_per_s, correct=True, fingerprints=FINGERPRINTS, prefix=""):
    """The stdout of one `perfbench/run.py` run, cut to what the summary reads."""
    metrics = {f"{prefix}setup_s": {"value": setup_s, "unit": "s"},
               f"{prefix}queries_per_s": {"value": queries_per_s, "unit": "1/s"},
               f"{prefix}peak_rss_mb": {"value": 100.0, "unit": "MB"}}
    return (f"env {{}}\nsetup_s {setup_s} s\n{fingerprints}"
            + json.dumps({"correct": correct, "attempted": 80, "failed": 0, "metrics": metrics}))


@pytest.fixture(autouse=True)
def no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary started a process")
    monkeypatch.setattr(tool.subprocess, "run", refuse)


def rows(lines):
    """Metric name -> the columns after it, for the table lines."""
    return {line.split()[0]: line.split()[1:] for line in lines[1:]}


def test_medians_change_and_pairs_won_follow_better():
    pairs = [(output(0.50, 40.0), output(0.40, 41.0)),
             (output(0.60, 42.0), output(0.45, 41.0)),
             (output(0.55, 44.0), output(0.50, 45.0))]
    lines, ok = tool.summarize(pairs, BETTER)
    assert ok
    table = rows(lines)
    assert set(table) == {"setup_s", "queries_per_s"}  # peak_rss_mb is not in BETTER
    assert table["setup_s"] == ["0.55", "0.45", "-18.2", "3/3", "0.1", "0.1"]  # IQRs last
    assert table["queries_per_s"][:4] == ["42", "41", "-2.4", "2/3"]


def test_workload_prefixed_names_are_looked_up_by_their_metric():
    pairs = [(output(0.5, 40.0, prefix="evict-large/"), output(0.4, 40.0, prefix="evict-large/"))]
    lines, ok = tool.summarize(pairs, BETTER)
    assert ok
    assert rows(lines)["evict-large/setup_s"][:4] == ["0.5", "0.4", "-20.0", "1/1"]
    assert rows(lines)["evict-large/queries_per_s"][3] == "0/1"  # equal is not a win


@pytest.mark.parametrize("parent, change", [
    (output(0.5, 40.0), output(0.4, 40.0, correct=False)),
    (output(0.5, 40.0, correct=False), output(0.4, 40.0)),
    (output(0.5, 40.0), output(0.4, 40.0, fingerprints="fingerprint.answers 0000\n")),
    (output(0.5, 40.0), "env {}\nTraceback (most recent call last):\n"),
    (output(0.5, 40.0), ""),
])
def test_a_wrong_run_or_differing_fingerprints_fail_the_summary(parent, change):
    good = (output(0.5, 40.0), output(0.4, 40.0))
    lines, ok = tool.summarize([good, (parent, change)], BETTER)
    assert not ok
    assert lines[0].startswith("pair 1: ")


def test_seeds_parse_as_an_inclusive_range():
    assert tool.parse_seeds("902-905") == [902, 903, 904, 905]
    assert tool.parse_seeds("9") == [9]
