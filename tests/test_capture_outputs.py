"""Tests for the comparison of two captures in ``tools/capture_outputs.py``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _capture_outputs():
    spec = importlib.util.spec_from_file_location(
        "capture_outputs", ROOT / "tools" / "capture_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _captures(tmp_path):
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    for d in (new, old):
        (d / "same.stdout").write_text('{"x": 1}\n')
    (new / "edited.rc").write_text("0\n")
    (old / "edited.rc").write_text("0")  # one byte short
    (new / "added.stderr").write_text("")
    (old / "dropped.stdout").write_text("")
    return new, old


def test_differences_name_each_file_that_differs_or_is_missing(tmp_path):
    capture = _capture_outputs()
    new, old = _captures(tmp_path)
    assert capture.differences(new, old) == [
        f"missing from {old}: added.stderr",
        f"missing from {new}: dropped.stdout",
        "differs: edited.rc",
    ]
    assert capture.differences(new, new) == []


def test_against_exits_1_when_the_captures_differ(tmp_path, monkeypatch, capsys):
    capture = _capture_outputs()
    new, old = _captures(tmp_path)
    monkeypatch.setattr(capture, "commands", dict)  # capture nothing, compare only
    assert capture.main([str(new), "--against", str(old)]) == 1
    out = capsys.readouterr().out
    assert "differs: edited.rc" in out and "3 files differ" in out
    for name in ("added.stderr", "dropped.stdout", "edited.rc"):
        (old / name).unlink(missing_ok=True)
        (new / name).unlink(missing_ok=True)
    assert capture.main([str(new), "--against", str(old)]) == 0
    assert capture.main([str(new)]) == 0
    # A missing earlier capture is refused before anything is captured.
    with pytest.raises(SystemExit) as exc:
        capture.main([str(new), "--against", str(tmp_path / "absent")])
    assert exc.value.code == 2
