"""Tests for the comparison of two captures in ``tools/capture_outputs.py``."""

import hashlib
import importlib.util
from pathlib import Path

import pytest
from test_cli import _ALL_KEYS, _READS

from swarmdescent.harness import CONFIG_KEYS

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


def test_every_settable_key_has_an_every_key_capture_and_test():
    # A key added to the config table without a value in both every-key
    # documents would reach no capture and no echo test.
    capture = _capture_outputs()
    settable = {key for key, spec in CONFIG_KEYS.items() if spec.help is not None}
    assert settable - {"method"} == set(capture.ALL_KEYS) == set(_ALL_KEYS)
    assert capture.READS == _READS


def test_digests_writes_a_manifest_of_the_capture(tmp_path, monkeypatch):
    capture = _capture_outputs()
    new, _ = _captures(tmp_path)
    monkeypatch.setattr(capture, "commands", dict)  # capture nothing, write the manifest only
    manifest = tmp_path / "digests.txt"
    assert capture.main([str(new), "--digests", str(manifest)]) == 0
    text = manifest.read_text()
    assert text.splitlines()[1] == f"# environment: {capture.environment()}"
    env, files = capture.read_manifest(text)
    assert env == capture.environment()
    assert files == capture.digests(new)
    assert sorted(files) == ["added.stderr", "edited.rc", "same.stdout"]
    assert files["edited.rc"] == hashlib.sha256(b"0\n").hexdigest()


# Help at the pinned width, the seed variable, config files, CSV on stdout
# and in written files, and a batch whose second job count starts a pool.
_PINNED = ["help-bench", "error-seed-env", "run-flatbasin-gd08-n30", "error-unknown-key",
           "sweep20-ackley1d-gdbt", "files-flatbasin", "bench-dropwave-sbgd11-n30-jobs2"]


def test_in_process_captures_equal_the_subprocess_captures(tmp_path, monkeypatch):
    # The runner sets COLUMNS and the seed variable for each command, over
    # whatever this process holds, and restores them.
    capture = _capture_outputs()
    monkeypatch.setenv(capture.SEED_ENV_VAR, "123")
    monkeypatch.setenv("COLUMNS", "200")
    for in_process, name in ((False, "sub"), (True, "in")):
        capture.capture(tmp_path / name, in_process=in_process, stems=_PINNED)
    assert capture.differences(tmp_path / "in", tmp_path / "sub") == []
    stems = {p.name.partition(".")[0] for p in (tmp_path / "in").iterdir()}
    assert stems == set(_PINNED)
    assert "SWARM_DESCENT_SEED must be an integer, got 'many'" in (tmp_path / "in" / "error-seed-env.stderr").read_text()
    assert (tmp_path / "in" / "files-flatbasin.runs.csv").is_file()
    assert capture.os.environ[capture.SEED_ENV_VAR] == "123" and capture.os.environ["COLUMNS"] == "200"


def test_every_capture_matches_the_committed_manifest(tmp_path):
    # Recomputes tools/capture_digests.txt in process.  The digests hold this
    # numpy's and this libm's bits, so a run in another environment fails
    # and names both, rather than skip.
    capture = _capture_outputs()
    want_env, want = capture.read_manifest((ROOT / "tools" / "capture_digests.txt").read_text())
    capture.capture(tmp_path, in_process=True)
    got_env, got = capture.environment(), capture.digests(tmp_path)
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ and got_env == want_env, (
        f"{len(differ)} captured files differ from tools/capture_digests.txt: {', '.join(differ)}; "
        f"the manifest was made with {want_env}, this run has {got_env}")
