"""Tests for the before/after pair script ``tools/bench_pairs.py``."""

import importlib.util
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
