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


def test_save_writes_each_runs_final_line(tmp_path, monkeypatch, capsys):
    canned = {("parent", 9): output(0.5, 40.0), ("change", 9): output(0.4, 41.0),
              ("parent", 10): output(0.6, 42.0), ("change", 10): output(0.45, 41.0)}
    monkeypatch.setattr(tool, "run", lambda checkout, workload, seed: canned[checkout.name, seed])
    saved = tmp_path / "runs"
    code = tool.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                      "evict-large", "--seeds", "9-10", "--save", str(saved)])
    assert code == 0
    assert sorted(p.name for p in saved.iterdir()) == [
        "change-evict-large-10.json", "change-evict-large-9.json",
        "parent-evict-large-10.json", "parent-evict-large-9.json"]
    for (side, seed), stdout in canned.items():
        text = (saved / f"{side}-evict-large-{seed}.json").read_text()
        assert text == stdout.splitlines()[-1] + "\n"  # the line the summary compared
        assert json.loads(text) == tool.parse_run(stdout)[0]
    assert "setup_s" in capsys.readouterr().out


def test_save_skips_a_run_without_a_final_json_line(tmp_path):
    tool.save_run(tmp_path, "change", "fit-small", 9, "env {}\nTraceback\n")
    tool.save_run(tmp_path, "change", "fit-small", 10, "")
    assert list(tmp_path.iterdir()) == []
