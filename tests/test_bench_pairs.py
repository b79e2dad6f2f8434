"""Tests for the before/after pair script ``tools/bench_pairs.py``."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(path):
    shutil.copytree(ROOT / "perfbench", path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


@pytest.mark.parametrize("edited", ["perfbench/run.py", "BENCHMARK.json"])
def test_checkouts_with_different_benchmarks_are_refused(tmp_path, capsys, edited):
    bench_pairs = _bench_pairs()
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    # Outputs and bytecode are git-ignored and do not make another benchmark.
    for name in ("out/result.json", "__pycache__/run.cpython.pyc"):
        (change / "perfbench" / name).parent.mkdir(exist_ok=True)
        (change / "perfbench" / name).write_text("{}")
    assert bench_pairs.benchmark_digest(parent) == bench_pairs.benchmark_digest(change)

    (change / edited).write_text((change / edited).read_text() + "\n")
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(parent), str(change), str(out)])
    assert exc.value.code == 2
    assert "perfbench/ files or BENCHMARK.json differ" in capsys.readouterr().err
    assert not out.exists()


def test_summary_marks_each_ratio_over_its_bound():
    bench_pairs = _bench_pairs()
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "cpu_s", "better": "lower", "bound": 0.25},
               {"name": "rate", "better": "higher", "bound": 0.1}]
    # Change over parent: wall_s 1.3 (worse than its bound), cpu_s 1.2
    # (worse, within it), rate 0.8 (lower where higher is better: over).
    values = {"parent": {"wall_s": 1.0, "cpu_s": 1.0, "rate": 10.0},
              "change": {"wall_s": 1.3, "cpu_s": 1.2, "rate": 8.0}}
    runs = [{"workload": "w", "pair": pair, "side": side,
             "result": {"metrics": {name: {"value": value} for name, value in values[side].items()}}}
            for pair in range(3) for side in bench_pairs.SIDES]
    rows = bench_pairs.summarize(runs, metrics)["w"]
    assert rows["wall_s"]["ratio"] == pytest.approx(1.3) and rows["wall_s"]["over_bound"]
    assert rows["cpu_s"]["ratio"] == pytest.approx(1.2) and not rows["cpu_s"]["over_bound"]
    assert rows["rate"]["ratio"] == pytest.approx(0.8) and rows["rate"]["over_bound"]
    table = bench_pairs.summary_table({"w": rows}).splitlines()
    assert table[0].endswith("| change/parent |")
    assert [line.rsplit("|", 2)[1].strip() for line in table[2:]] == [
        "**1.300 over bound**", "1.200", "**0.800 over bound**"]



def _pairs(parent, change):
    """Synthetic runs of one metric, ``wall_s``, one pair per entry of the two value lists."""
    return [{"workload": "w", "pair": pair, "side": side,
             "result": {"metrics": {"wall_s": {"value": value}}}}
            for pair, values in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), values)]


@pytest.mark.parametrize("change, verdict", [
    # 9/10 wins, median 0.85 against a parent median of 1.0 with q3 - q1 = 0.075.
    ([0.85] * 9 + [1.5], "gain"),
    # 8/10 wins with the same gap.
    ([0.85] * 8 + [1.5, 1.5], "level"),
    # 10/10 wins, but by less than the parent's quartile spread.
    ([value - 0.01 for value in [0.9, 0.95, 0.95, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1]], "level"),
    # Worse than the bound in every pair.
    ([1.5] * 10, "over bound"),
])
def test_verdict_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_spread(change, verdict):
    bench_pairs = _bench_pairs()
    parent = [0.9, 0.95, 0.95, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1]
    row = bench_pairs.summarize(_pairs(parent, change), [
        {"name": "wall_s", "better": "lower", "bound": 0.25}])["w"]["wall_s"]
    assert row["parent"]["q3"] - row["parent"]["q1"] == pytest.approx(0.075)
    assert row["verdict"] == verdict
    table = bench_pairs.summary_table({"w": {"wall_s": row}}).splitlines()
    assert table[0].endswith("| verdict | change/parent |")
    assert table[2].split("|")[-3].strip() == verdict


def test_a_checkout_that_is_not_a_fresh_copy_is_flagged_not_refused(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    for made in (".git/HEAD", ".pytest_cache/README.md", "src/swarmdescent/__pycache__/cli.pyc",
                 "perfbench/__pycache__/run.pyc"):
        (change / made).parent.mkdir(parents=True, exist_ok=True)
        (change / made).write_text("")
    ok = {"exit_code": 0, "correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: ok)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(change), str(out), "--workloads", "w", "--pairs", "1"]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warnings == [f"warning: not a fresh copy: change {change} holds .git, .pytest_cache, "
                        "src/swarmdescent/__pycache__, perfbench/__pycache__"]
    assert json.loads(out.read_text())["leftovers"] == {
        "parent": [], "change": [".git", ".pytest_cache", "src/swarmdescent/__pycache__", "perfbench/__pycache__"]}
    # Two fresh copies give no warning.
    for made in (".git", ".pytest_cache", "src", "perfbench/__pycache__"):
        shutil.rmtree(change / made)
    assert bench_pairs.main([str(parent), str(change), str(out), "--workloads", "w", "--pairs", "1"]) == 0
    assert "warning" not in capsys.readouterr().err
    assert json.loads(out.read_text())["leftovers"] == {"parent": [], "change": []}
