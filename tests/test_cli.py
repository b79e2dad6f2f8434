"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from swarmdescent import cli
from swarmdescent.cli import SEED_ENV_VAR, load_preset, main, preset_names
from swarmdescent.harness import CONFIG_KEYS


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestRun:
    def test_quadratic_single_run(self, capsys):
        rc, out, _ = _run(
            capsys, "run", "--objective", "quadratic", "--d", "2",
            "--method", "sbgd", "--n", "5", "--seed", "7",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["result"]["f_sol"] < 1e-6
        assert doc["result"]["stop_reason"] == "residual"
        assert doc["result"]["success"] is True
        assert doc["config"]["objective"] == {"name": "quadratic", "d": 2, "b": 0.0, "c": 0.0, "mu": 1.0}
        assert doc["config"]["n"] == 5
        assert doc["config"]["seed"] == 7

    def test_flat_basin_heavy_tail_run(self, capsys):
        rc, out, _ = _run(
            capsys, "run", "--objective", "flatbasin1d", "--method", "sbgd",
            "--p", "2", "--q", "1", "--n", "30", "--init-box=-3,-1", "--seed", "1",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["result"]["stop_reason"] == "residual"
        assert abs(doc["result"]["x_sol"][0] - 1.5355) < 0.25

    def test_run_is_always_a_single_run(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "quadratic", "d": 1, "m": 7}))
        rc, out, _ = _run(capsys, "run", "--config", str(cfg))
        assert rc == 0
        assert json.loads(out)["config"]["m"] == 1

    def test_missing_objective(self, capsys):
        rc, _, err = _run(capsys, "run", "--method", "sbgd")
        assert rc == 2
        assert "objective" in err

    def test_unknown_objective(self, capsys):
        rc, _, err = _run(capsys, "run", "--objective", "griewank")
        assert rc == 2
        assert "griewank" in err

    def test_flag_overrides_are_echoed_verbatim(self, capsys):
        rc, out, _ = _run(
            capsys, "run", "--objective", "quadratic", "--d", "1",
            "--lambda", "0.31", "--gamma", "0.8", "--h0", "1.5", "--p", "2.5",
        )
        assert rc == 0
        method = json.loads(out)["config"]["method"]
        assert method["lambda"] == 0.31
        assert method["gamma"] == 0.8
        assert method["h0"] == 1.5
        assert method["p"] == 2.5

    def test_malformed_init_box_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--objective", "quadratic", "--d", "1", "--init-box=1"])
        assert exc.value.code == 2

    def test_non_numeric_init_box_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--objective", "quadratic", "--d", "1", "--init-box=a,b"])
        assert exc.value.code == 2
        assert "expected numeric LO,HI, got 'a,b'" in capsys.readouterr().err


class TestConfigMerging:
    def test_config_file_then_flags_take_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "rastrigin1d", "seed": 1, "n": 4}))
        rc, out, _ = _run(capsys, "run", "--config", str(cfg), "--seed", "5")
        assert rc == 0
        doc = json.loads(out)
        assert doc["config"]["seed"] == 5  # flag wins
        assert doc["config"]["n"] == 4  # file fills the rest

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "quadratic", "frobnicate": 1}))
        rc, _, err = _run(capsys, "run", "--config", str(cfg))
        assert rc == 2
        assert "frobnicate" in err

    def test_wrong_value_type(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "quadratic", "d": 1, "n": "ten"}))
        rc, _, err = _run(capsys, "run", "--config", str(cfg))
        assert rc == 2
        assert "'n'" in err

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "expected a JSON object, got list"),
        ("{", "is not valid JSON"),
    ])
    def test_config_file_that_is_not_a_json_object(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc, _, err = _run(capsys, "run", "--config", str(cfg))
        assert rc == 2
        assert message in err

    def test_unreadable_config_file(self, capsys, tmp_path):
        rc, _, err = _run(capsys, "run", "--config", str(tmp_path / "absent.json"))
        assert rc == 2
        assert "cannot read" in err

    def test_env_seed_applies_when_no_flag(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "9")
        rc, out, _ = _run(capsys, "run", "--objective", "quadratic", "--d", "1")
        assert rc == 0
        assert json.loads(out)["config"]["seed"] == 9

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "9")
        rc, out, _ = _run(capsys, "run", "--objective", "quadratic", "--d", "1", "--seed", "5")
        assert rc == 0
        assert json.loads(out)["config"]["seed"] == 5

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "many")
        rc, _, err = _run(capsys, "run", "--objective", "quadratic", "--d", "1")
        assert rc == 2
        assert SEED_ENV_VAR in err


# Every config key at a value other than its default, each value distinct.
_ALL_KEYS = {
    "objective": "quadratic", "d": 2, "b": 0.5, "c": 0.25, "mu": 2.0, "n": 3, "m": 2,
    "seed": 4, "init_box": [-2.0, 1.0], "h": 0.05, "p": 1.5, "q": 2.0, "lambda": 0.3,
    "gamma": 0.8, "h0": 0.5, "tolm": 0.002, "tolmerge": 0.01, "tolres": 0.001, "max_iters": 50,
}
_METHOD_KEYS = ("h", "p", "q", "lambda", "gamma", "h0", "tolm", "tolmerge", "tolres", "max_iters")
# The method keys each method reads, in the CLI's order of the methods.  A
# flag for any other method key is refused; a config file may hold it.
_READS = {
    "sbgd": ("p", "q", "lambda", "gamma", "h0", "tolm", "tolmerge", "tolres", "max_iters"),
    "gd": ("h", "tolres", "max_iters"),
    "gdbt": ("lambda", "gamma", "h0", "tolres", "max_iters"),
    "adam": ("h", "tolres", "max_iters"),
}


class TestEveryKey:
    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("method", sorted(_READS))
    def test_every_key_reaches_the_echo(self, capsys, tmp_path, method, source):
        doc = {**_ALL_KEYS, "method": method}
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = ["bench", "--config", str(cfg), "--jobs", "1"]
        else:
            argv = ["bench", "--init-box=-2,1", "--jobs", "1"]
            for key, value in doc.items():
                if key != "init_box" and (key not in _METHOD_KEYS or key in _READS[method]):
                    argv += [f"--{key.replace('_', '-')}", str(value)]
        rc, out, _ = _run(capsys, *argv)
        assert rc == 0
        echo = json.loads(out)["config"]
        assert echo["objective"] == {"name": "quadratic", "d": 2, "b": 0.5, "c": 0.25, "mu": 2.0}
        assert (echo["n"], echo["m"], echo["seed"]) == (3, 2, 4)
        assert echo["init_box"] == [[-2.0, -2.0], [1.0, 1.0]]
        assert echo["method"]["name"] == method
        echoed = {key: value for key, value in echo["method"].items() if key in _METHOD_KEYS}
        assert echoed == {key: _ALL_KEYS[key] for key in _READS[method]}


def _no_runs(*args, **kwargs):
    raise AssertionError("a run started")


def _flag(key):
    value = _ALL_KEYS[key]
    if key == "init_box":
        return [f"--init-box={value[0]},{value[1]}"]
    return [f"--{key.replace('_', '-')}", str(value)]


def _readers(role, readers):
    return f"{role}{'s' if len(readers) > 1 else ''} {', '.join(readers)}"


_QUAD_RUN = ["run", "--objective", "quadratic", "--d", "1", "--n", "2"]
_SWEEP = ["sweep", "--objective", "ackley1d", "--from=-3", "--to=3", "--steps", "5"]
# Each key a run does not read: the run without it, the key, and who reads it instead.
_UNREAD = [
    *[([*_QUAD_RUN, "--method", method], key,
       f"method {method}, only by {_readers('method', [m for m in _READS if key in _READS[m]])}")
      for method in _READS for key in _METHOD_KEYS if key not in _READS[method]],
    (["run", "--objective", "ackley1d", "--n", "2"], "mu", "objective ackley1d, only by objective quadratic"),
    *[(_SWEEP, key, "command sweep, only by commands run, bench") for key in ("n", "seed", "init_box")],
]


class TestUnreadFlags:
    @pytest.mark.parametrize("argv, key, readers", _UNREAD,
                             ids=[f"{key}-{readers.split(',')[0].replace(' ', '-')}" for _, key, readers in _UNREAD])
    def test_a_flag_the_run_does_not_read_is_refused_and_the_config_key_is_ignored(
        self, capsys, tmp_path, monkeypatch, argv, key, readers
    ):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "run_experiment", _no_runs)
            patch.setattr(cli, "basin_sweep", _no_runs)
            rc, out, err = _run(capsys, *argv, *_flag(key))
        assert (rc, out, err) == (2, "", f"error: --{key.replace('_', '-')} is not read by {readers}\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: _ALL_KEYS[key]}))
        rc, with_key, _ = _run(capsys, *argv, "--config", str(cfg))
        assert rc == 0
        assert with_key == _run(capsys, *argv)[1]

    @pytest.mark.parametrize("argv, err", [
        (["run", "--objective", "ackley", "--d", "2", "--method", "gdbt", "--n", "3",
          "--tolm", "0.5", "--p", "7", "--q", "3", "--tolmerge", "9"],
         "error: --p is not read by method gdbt, only by method sbgd\n"),
        (["run", "--objective", "ackley", "--d", "2", "--n", "3", "--method", "sbgd", "--h", "7"],
         "error: --h is not read by method sbgd, only by methods gd, adam\n"),
        (["run", "--objective", "ackley", "--d", "2", "--n", "3", "--mu", "5"],
         "error: --mu is not read by objective ackley, only by objective quadratic\n"),
        (["sweep", "--objective", "ackley1d", "--from", "0", "--to", "1", "--steps", "3",
          "--n", "3", "--seed", "5", "--init-box=7,8"],
         "error: --n is not read by command sweep, only by commands run, bench\n"),
    ], ids=["gdbt-swarm-keys", "sbgd-h", "mu-ackley", "sweep-batch-keys"])
    def test_the_reported_reproducers_are_refused_before_any_run(self, capsys, monkeypatch, argv, err):
        monkeypatch.setattr(cli, "run_experiment", _no_runs)
        monkeypatch.setattr(cli, "basin_sweep", _no_runs)
        assert _run(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize("flags, message", [
        (["--objective", "ackley1d", "--mu=nan"], "error: command line: key 'mu' must be finite, got nan\n"),
        (["--objective", "ackley1d", "--p=-inf"], "error: command line: key 'p' must be finite, got -inf\n"),
        (["--objective", "griewank", "--mu", "5"],
         "error: unknown objective 'griewank'; expected one of: flatbasin1d, ackley1d, rastrigin1d, ackley, "
         "rastrigin, dropwave, rosenbrock2d, quadratic\n"),
    ], ids=["mu-nan", "p-inf", "unknown-objective"])
    def test_finiteness_and_objective_errors_come_first(self, capsys, flags, message):
        argv = ["bench", "--method", "gdbt", "--n", "3", "--m", "2", "--seed", "1", "--jobs", "1", *flags]
        assert _run(capsys, *argv) == (2, "", message)

    def test_an_unknown_method_comes_first(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "newton"}))
        rc, out, err = _run(capsys, "run", "--objective", "ackley1d", "--config", str(cfg), "--tolm", "1")
        assert (rc, out) == (2, "")
        assert err.startswith("error: unknown method 'newton'; expected one of: sbgd, gd, gdbt, adam")


_FLOAT_KEYS = sorted(key for key, spec in CONFIG_KEYS.items() if spec.kind is float and spec.help is not None)


class TestNonFiniteValues:
    # NaN passed range checks written as comparisons, and an infinite step
    # ran to a report holding non-finite numbers.
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", _FLOAT_KEYS)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_float_is_a_config_error(self, capsys, tmp_path, source, key, value):
        argv = ["bench", "--objective", "ackley1d", "--method", "gdbt", "--n", "3", "--m", "2",
                "--seed", "1", "--jobs", "1"]
        if source == "flag":
            argv.append(f"--{key}={value}")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: float(value)}))
            argv += ["--config", str(cfg)]
        rc, out, err = _run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert f"key {key!r} must be finite" in err

    @pytest.mark.parametrize("box", ["--init-box=-inf,1", "--init-box=0,inf"])
    def test_non_finite_init_box_is_a_config_error(self, capsys, box):
        rc, out, err = _run(capsys, "run", "--objective", "ackley1d", box)
        assert (rc, out) == (2, "")
        assert "key 'init_box' must be finite" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_init_box_of_infinite_width_is_a_config_error(self, capsys, tmp_path, source):
        # Bounds whose width overflows, by flag, and an infinite bound inside
        # a per-coordinate list, which JSON files may spell -Infinity.
        argv = ["bench", "--objective", "ackley", "--d", "2", "--method", "gdbt", "--n", "3", "--m", "2",
                "--jobs", "1"]
        if source == "flag":
            argv.append("--init-box=-1e308,1e308")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"init_box": [[-Infinity, 0], [1, 2]]}')
            argv += ["--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = _run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: init box must have finite bounds and a finite width hi - lo")

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_overflowing_start_heights_are_a_runtime_failure(self, capsys, n):
        # The box is finite, but rosenbrock2d overflows to inf there: the swarm
        # then breaks an invariant of its own, which is no configuration error.
        with np.errstate(over="ignore", invalid="ignore"):
            rc, out, err = _run(capsys, "bench", "--objective", "rosenbrock2d", "--method", "sbgd",
                                "--n", n, "--m", "1", "--seed", "1", "--jobs", "1",
                                "--init-box=1e200,2e200")
        assert (rc, out) == (3, "")
        assert err.endswith("runtime failure: the minimizer must have relative height 0, got nan\n")


class TestPresets:
    def test_all_presets_load_cleanly(self):
        names = preset_names()
        assert "flatbasin-sbgd21-n30" in names
        assert len(names) >= 10
        for name in names:
            doc = load_preset(name)
            assert doc["objective"]

    def test_preset_flag_runs_with_overrides(self, capsys):
        rc, out, _ = _run(capsys, "bench", "--preset", "flatbasin-sbgd21-n30", "--m", "3")
        assert rc == 0
        doc = json.loads(out)
        assert doc["config"]["objective"]["name"] == "flatbasin1d"
        assert doc["config"]["method"]["p"] == 2.0
        assert doc["config"]["m"] == 3
        assert doc["config"]["init_box"] == [[-3.0], [-1.0]]
        assert doc["success_rate"] == 1.0

    def test_unknown_preset_lists_the_catalog(self, capsys):
        rc, _, err = _run(capsys, "bench", "--preset", "flatbasin-nope")
        assert rc == 2
        assert "flatbasin-sbgd21-n30" in err

    def test_a_preset_is_a_name_not_a_path(self, capsys, tmp_path):
        outside = tmp_path / "outside.json"
        outside.write_text(json.dumps({"objective": "quadratic", "d": 1}))
        presets = os.path.dirname(cli.__file__) + "/presets"
        for name in ("../presets/flatbasin-gd08-n30", os.path.relpath(tmp_path / "outside", presets)):
            rc, _, err = _run(capsys, "run", "--preset", name)
            assert rc == 2
            assert f"unknown preset {name!r}; available presets: ackley1d-sbgd11-n20, " in err


class TestBench:
    def test_single_run_batch_matches_run(self, capsys):
        rc, bench_out, _ = _run(
            capsys, "bench", "--objective", "rastrigin1d", "--n", "3",
            "--m", "1", "--seed", "11",
        )
        assert rc == 0
        rc, run_out, _ = _run(
            capsys, "run", "--objective", "rastrigin1d", "--n", "3", "--seed", "11"
        )
        assert rc == 0
        bench_doc = json.loads(bench_out)
        run_doc = json.loads(run_out)
        assert bench_doc["per_run"][0]["x_sol"] == run_doc["result"]["x_sol"]
        assert bench_doc["avg_loss"] == run_doc["result"]["f_sol"]
        assert bench_doc["mean_solution"] == run_doc["result"]["x_sol"]

    def test_repeat_invocations_are_identical(self, capsys):
        argv = ("bench", "--objective", "ackley1d", "--n", "5", "--m", "4", "--seed", "3")
        rc1, out1, _ = _run(capsys, *argv)
        rc2, out2, _ = _run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_config_error(self, capsys, jobs):
        rc, out, err = _run(
            capsys, "bench", "--objective", "quadratic", "--d", "1", "--m", "2", "--jobs", jobs,
        )
        assert rc == 2
        assert out == ""
        assert f"jobs must be at least 1, got {jobs}" in err

    def test_csv_and_histogram_outputs(self, capsys, tmp_path):
        csv_path = tmp_path / "runs.csv"
        hist_path = tmp_path / "hist.csv"
        rc, out, _ = _run(
            capsys, "bench", "--objective", "quadratic", "--d", "1", "--n", "2",
            "--m", "3", "--csv", str(csv_path), "--hist", str(hist_path),
        )
        assert rc == 0
        runs = csv_path.read_text().strip().splitlines()
        assert len(runs) == 4  # header + one row per run
        assert runs[0].startswith("run,seed,success")
        hist = hist_path.read_text().strip().splitlines()
        assert hist[0] == "bin_center,count"
        assert sum(int(line.split(",")[1]) for line in hist[1:]) == 3

    def test_histogram_of_multidimensional_needs_coord(self, capsys, tmp_path):
        rc, _, err = _run(
            capsys, "bench", "--objective", "quadratic", "--d", "2", "--n", "2",
            "--m", "2", "--hist", str(tmp_path / "h.csv"),
        )
        assert rc == 2
        assert "coord" in err
        rc, _, _ = _run(
            capsys, "bench", "--objective", "quadratic", "--d", "2", "--n", "2",
            "--m", "2", "--hist", str(tmp_path / "h.csv"), "--hist-coord", "1",
        )
        assert rc == 0

    @pytest.mark.parametrize("flags, message", [
        ([], "solutions are 2-dimensional; pass an explicit coord"),
        (["--hist-coord", "2"], "coord 2 out of range for dimension 2"),
        (["--hist-coord", "-1"], "coord -1 out of range for dimension 2"),
        (["--hist-coord", "0", "--hist-bin-width", "0"], "bin_width must be positive, got 0.0"),
        (["--hist-coord", "0", "--hist-bin-width", "inf"], "bin_width must be finite, got inf"),
    ])
    def test_histogram_options_are_checked_before_the_batch_runs(
        self, capsys, tmp_path, monkeypatch, flags, message
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", no_runs)
        csv_path = tmp_path / "r.csv"
        rc, out, err = _run(
            capsys, "bench", "--preset", "ackley2d-b10-sbgd11-n100", "--m", "3", "--jobs", "1",
            "--csv", str(csv_path), "--hist", str(tmp_path / "h.csv"), *flags,
        )
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--hist-coord", "7"], ["--hist-bin-width", "0.5"]])
    def test_histogram_options_without_a_histogram_are_refused_before_the_batch_runs(
        self, capsys, monkeypatch, flags
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", no_runs)
        rc, out, err = _run(capsys, "bench", "--objective", "ackley", "--d", "2", "--n", "2",
                            "--m", "2", "--jobs", "1", *flags)
        assert (rc, out, err) == (2, "", f"error: {flags[0]} needs --hist\n")

    @pytest.mark.parametrize("flag", ["--csv", "--hist"])
    @pytest.mark.parametrize("target, problem", [
        ("absent/x.csv", "no directory '{tmp}/absent'"),
        ("kept.csv/x.csv", "no directory '{tmp}/kept.csv'"),
        ("", "it is a directory"),
        ("kept.csv", "permission denied"),
        ("new.csv", "permission denied"),
    ])
    def test_unwritable_output_paths_are_refused_before_the_batch_runs(
        self, capsys, tmp_path, monkeypatch, flag, target, problem
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", no_runs)
        (tmp_path / "kept.csv").write_text("kept\n")
        if "permission" in problem:
            monkeypatch.setattr(os, "access", lambda path, mode: False)
        path = str(tmp_path / target)
        rc, out, err = _run(capsys, "bench", "--preset", "ackley1d-sbgd11-n20", "--m", "5",
                            "--jobs", "1", flag, path)
        assert rc == 2
        assert out == ""
        assert err == f"error: cannot write {flag} file {path!r}: {problem.format(tmp=tmp_path)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
        assert (tmp_path / "kept.csv").read_text() == "kept\n"

    @pytest.mark.parametrize("hist", ["out.csv", "./sub/../out.csv", "{tmp}/out.csv", "link.csv"])
    def test_csv_and_histogram_on_one_file_are_refused_before_the_batch_runs(
        self, capsys, tmp_path, monkeypatch, hist
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", no_runs)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "out.csv").write_text("kept\n")
        (tmp_path / "link.csv").symlink_to(tmp_path / "out.csv")
        hist = hist.format(tmp=tmp_path)
        rc, out, err = _run(capsys, "bench", "--preset", "ackley1d-sbgd11-n20", "--m", "2",
                            "--jobs", "1", "--csv", "out.csv", "--hist", hist)
        assert (rc, out, err) == (2, "", f"error: --csv and --hist name the same file {hist!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "out.csv", "sub"]
        assert (tmp_path / "out.csv").read_text() == "kept\n"

    def test_an_empty_output_path_is_refused(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, err = _run(capsys, "bench", "--preset", "ackley1d-sbgd11-n20", "--m", "2",
                            "--jobs", "1", "--hist", "")
        assert (rc, out, err) == (2, "", "error: cannot write --hist file '': the path is empty\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_writable_output_path_passes_the_check(self, capsys, tmp_path, monkeypatch):
        # An existing file is overwritten, and a bare name lands in the working directory.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs.csv").write_text("old\n")
        rc, out, _ = _run(capsys, "bench", "--preset", "ackley1d-sbgd11-n20", "--m", "2",
                          "--jobs", "1", "--csv", "runs.csv", "--hist", "hist.csv")
        assert rc == 0 and json.loads(out)["config"]["m"] == 2
        assert (tmp_path / "runs.csv").read_text().startswith("run,seed,success")
        assert (tmp_path / "hist.csv").read_text().startswith("bin_center,count")


class TestSweep:
    def test_row_count_and_no_header(self, capsys):
        rc, out, _ = _run(
            capsys, "sweep", "--objective", "quadratic", "--d", "1",
            "--method", "gdbt", "--from", "-3", "--to", "3", "--steps", "11",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11
        first_start, first_final = lines[0].split(",")
        assert float(first_start) == -3.0
        assert abs(float(first_final)) < 1e-3
        assert float(lines[-1].split(",")[0]) == 3.0

    def test_zero_steps(self, capsys):
        rc, _, err = _run(
            capsys, "sweep", "--objective", "quadratic", "--d", "1",
            "--from", "-3", "--to", "3", "--steps", "0",
        )
        assert rc == 2
        assert "steps" in err

    @pytest.mark.parametrize("grid", [("--from=nan", "--to=3"), ("--from=-3", "--to=inf"),
                                      ("--from=-1e308", "--to=1e308")])
    def test_non_finite_grid_is_a_usage_error(self, capsys, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = _run(capsys, "sweep", "--objective", "ackley1d", *grid, "--steps", "5")
        assert (rc, out) == (2, "")
        assert err.startswith("error: --from and --to must be finite")

    def test_missing_grid_flags_are_usage_errors(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--objective", "quadratic", "--d", "1"])
        assert exc.value.code == 2

    def test_multidimensional_objective_is_rejected(self, capsys):
        rc, _, err = _run(
            capsys, "sweep", "--objective", "ackley", "--d", "2",
            "--from", "-3", "--to", "3", "--steps", "5",
        )
        assert rc == 2
        assert "1-D" in err


_BENCH = ["bench", "--objective", "rastrigin1d", "--n", "3", "--m", "2", "--jobs", "1"]
# One call of each kind, the parser's own exits included, and the first again.
_REUSE_ARGV = [
    _BENCH,
    ["sweep", "--objective", "ackley1d", "--method", "gdbt", "--from=-3", "--to=3", "--steps", "5"],
    ["run", "--objective", "quadratic", "--d", "2", "--n", "3", "--seed", "4"],
    ["run", "--objective", "quadratic", "--method", "newton"],
    ["--help"],
    _BENCH,
]


def _call(capsys, argv):
    """Exit code, stdout and stderr of one in-process call, as a fresh interpreter reports them."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _fresh(calls):
    """Exit code, stdout and stderr of each ``(argv, columns)`` call, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [subprocess.Popen([sys.executable, "-m", "swarmdescent", *argv], text=True,
                              env=dict(env, COLUMNS=str(columns)),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv, columns in calls]
    out = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=60)
        out.append((proc.returncode, stdout, stderr))
    return out


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_interpreters(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = _fresh([(argv, 80) for argv in _REUSE_ARGV])
        cli._parser()
        before = cli._parser.cache_info()
        assert [_call(capsys, argv) for argv in _REUSE_ARGV] == fresh
        after = cli._parser.cache_info()
        assert (after.hits - before.hits, after.misses) == (len(_REUSE_ARGV), before.misses)
        assert [rc for rc, _, _ in fresh] == [0, 0, 0, 2, 0, 0]

    def test_help_follows_the_terminal_width_of_each_call(self, capsys, monkeypatch):
        argv = ["bench", "--help"]
        wide, narrow = _fresh([(argv, 120), (argv, 50)])
        for width, want in ((120, wide), (50, narrow), (120, wide)):
            monkeypatch.setenv("COLUMNS", str(width))
            assert _call(capsys, argv) == want
        assert max(len(line) for line in wide[1].splitlines()) > 100
        assert len(narrow[1].splitlines()) > len(wide[1].splitlines())
