"""Capture the CLI's output for every shipped preset, the basin sweeps, help and error paths.

    python3 tools/capture_outputs.py DIR [--in-process | --audit] [--digests FILE] [--against OLD_DIR]

For each command below, writes ``DIR/<name>.stdout``, ``.stderr`` and
``.rc`` (the exit code), plus ``DIR/<name>.<file>`` for each file the
command writes.  The commands run one at a time, against the package in
this checkout's ``src/``, each in its own temporary directory, whose path
reads ``TMP`` in the captured text.  A warning from the package names its
source file relative to ``src/`` and ``LINE`` for its line number
(``swarmdescent/objectives.py:LINE: RuntimeWarning: ...``), so the
captured bytes depend neither on where the checkout lies nor on edits that
only move the line; the source line it quotes stays.  By default each runs in a fresh
interpreter.  With ``--in-process`` each calls ``swarmdescent.cli.main`` in
this process instead, with the same environment, working directory and
warning filters a fresh interpreter would have; that takes seconds instead
of a minute, and ``tests/test_capture_outputs.py`` checks that both modes
write the same bytes.  The commands are:

* ``bench --preset P --jobs 1`` and ``--jobs 2`` and ``run --preset P`` for
  every shipped preset, at the preset's own ``m``;
* ``sweep --objective O --method M --from=-3 --to=3 --steps 200`` for the
  1-D objectives ``ackley1d``, ``rastrigin1d`` and ``flatbasin1d`` and the
  methods ``sbgd`` and ``gdbt``, and the same with ``--from=-3.1 --to=2.9
  --steps 20``, the benchmark's sweep shape: 20 one-agent runs, whose
  ladder calls start with one block of 103 rungs (11 at 200 runs);
* ``--help`` of the program and of each subcommand;
* ``bench --csv --hist`` on a 1-D and a 2-D preset, with the CSV files;
* three batches that merge thousands of agents: ``bench --preset
  ackley2d-b10-sbgd11-n100 --m 20 --tolmerge 0.5``, ``bench --preset
  ackley1d-sbgd11-n20 --m 50 --tolmerge 0.05`` and the same at ``--m 300``,
  whose run labels pass 255 and so no longer fit the merge check's
  narrowest label type;
* two Ackley batches with a value shift, which the screened kernel's bound
  must carry: ``bench --preset ackley2d-b10-gdbt-n100 --m 10 --c -7.25`` and
  ``bench --preset ackley20d-sbgd21-n50 --m 5 --c 1e6``;
* an Ackley batch whose trial points cross ``|z| = 2^16``, where a ladder
  call holding a point beyond it computes every value instead of screening
  by the Taylor bound: ``bench --objective ackley --d 2 --method gdbt --n 20
  --m 3 --init-box=65000,66100``;
* three long or stalling ladders: ``run --objective ackley1d --n 1 --tolres
  0 --gamma 0.999 --max-iters 3000``, whose lone agent walks the whole
  32221-rung ladder, past its first cached run of 8192 rungs, and stops as a
  single stalled agent; ``bench --objective ackley --d 2 --method gdbt
  --gamma 0.999 --n 5 --m 2 --seed 1``, whose agents accept past rung 8192;
  and ``bench --objective ackley1d --method gdbt --n 3 --m 3 --tolres 0
  --max-iters 200``, whose agents run out of ladder sweep after sweep and
  stop at ``max_iters``;
* three batches whose objectives sum rows of 3 to 7 coordinates, which the
  row sum adds column by column: ``bench --objective ackley --d 3 --method
  gdbt --n 20 --m 3 --seed 1``, ``bench --objective rastrigin --d 5 --method
  sbgd --n 10 --m 3 --seed 1`` and ``bench --objective dropwave --d 7
  --method sbgd --n 10 --m 2 --seed 1``;
* the Rosenbrock kernels, by ``bench --objective rosenbrock2d --method M --n
  5 --m 2 --seed 1 --max-iters 100`` for the methods ``gdbt`` and ``sbgd``;
* starts whose heights overflow: ``bench --objective rosenbrock2d --method
  sbgd --n 1 --m 1 --seed 1 --init-box=1e200,2e200``, whose lone agent's
  height turns NaN and whose mass transfer fails, so the CLI exits 3; the
  same with ``--method gdbt --n 2``; and ``run --objective ackley --d 2 --n 2
  --h0 1e308 --lambda 0.5``, whose first ladder rungs overflow; all three
  print numpy's overflow and invalid-value warnings;
* for each method, every config key set to a value other than its default,
  by config file (``bench`` and ``run``) and by flags (``bench``); the flags
  case passes only the method keys that method reads, since a flag that the
  run does not read is an error;
* the usage and configuration errors (exit code 2): unknown, mistyped and
  missing keys, objectives, presets and methods, a preset named by a path, a
  config file that sets the class constant ``h_floor`` and one that sets
  ``eps_eta``, which no source may set, a config file that is not JSON and
  one that holds a JSON array, malformed
  init boxes and one with bounds of the wrong length by config file,
  out-of-range parameters (one capture for each range check a flag can
  fail: ``gamma``, ``h0``, ``p``, ``tolm``, ``max_iters`` of the swarm and
  of a baseline, ``h``, ``tolres``, ``mu``, ``d``, ``n``, ``m``, ``seed``
  and ``--jobs``), a bad ``q`` beside a bad ``p`` and
  beside a bad ``lambda`` (which error wins), each float key set to ``nan``,
  ``inf`` and ``-inf`` by flag, an init box of infinite width by flag and
  one with an infinite bound by config file, a 2-D sweep, sweeps from
  ``nan``, to ``inf`` and over a span that overflows, a malformed seed
  variable, ``--csv`` and ``--hist`` paths in a missing directory, under a
  file or naming a directory, an empty ``--csv`` path, ``--csv`` and
  ``--hist`` naming one file, an
  infinite and a zero ``--hist-bin-width``, a ``--hist-coord`` out of
  range, ``--hist`` on a 2-D batch without ``--hist-coord``,
  ``--hist-coord`` or ``--hist-bin-width``
  without ``--hist``, and flags the run does not read: swarm keys to
  ``gdbt``, ``--h`` to ``sbgd``, ``--mu`` to ``ackley``, and ``--n``,
  ``--seed`` and ``--init-box`` to a sweep.

With ``--digests FILE``, the SHA-256 of every file in ``DIR`` is written to
``FILE``, one ``sha256  name`` line each, after a header that names the
Python and numpy versions and the platform.  ``tools/capture_digests.txt``
is that manifest for this tree, and ``tests/test_capture_outputs.py``
recomputes it in process: a change that alters a captured byte on purpose
updates the manifest in the same diff.

With ``--against OLD_DIR``, the new capture is then compared byte for byte
with an earlier one, for example of the parent of a change that must not
alter any result: each file that differs, or that only one of the two
directories holds, is printed, and the exit code is 1 if there is any.
Capture into a new or empty ``DIR``, so that no stale file takes part.

With ``--audit``, the commands run in process under a line trace of the
frames whose code lies in the package, and every line of a package function
that no command ran is printed, as ``file:first-last: source`` for each
run of such lines.  Module and class bodies, which run at import, are left
out.  Pooled batches run in worker processes, which the trace does not
follow; the same blocks run in this process at ``--jobs 1``.  The trace
makes the capture 1.1-1.4x slower: 10.1-12.2 s against 8.9-9.6 s untraced,
on a shared 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import types
import warnings
from importlib import metadata
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import swarmdescent  # noqa: E402
from swarmdescent.harness import CONFIG_KEYS, METHOD_NAMES, SEED_ENV_VAR  # noqa: E402

# The package's source files, as this process imported them.
PACKAGE = Path(swarmdescent.__file__).parent
# The source location that starts a warning from the package, as fresh
# interpreters and this process write it; captured as ``swarmdescent/FILE:LINE:``.
_ROOTS = "|".join(re.escape(f"{root}{os.sep}") for root in {SRC, PACKAGE.parent})
WARNING_SOURCE = re.compile(rf"^(?:{_ROOTS})(swarmdescent/\w+\.py):\d+:", re.MULTILINE)

SWEEP_OBJECTIVES = ("ackley1d", "rastrigin1d", "flatbasin1d")
SWEEP_METHODS = ("sbgd", "gdbt")
TMP = "{tmp}"

# Every config key at a value other than its default, each value distinct.
ALL_KEYS = {
    "objective": "quadratic", "d": 2, "b": 0.5, "c": 0.25, "mu": 2.0, "n": 3, "m": 2,
    "seed": 4, "init_box": [-2.0, 1.0], "h": 0.05, "p": 1.5, "q": 2.0, "lambda": 0.3,
    "gamma": 0.8, "h0": 0.5, "tolm": 0.002, "tolmerge": 0.01, "tolres": 0.001, "max_iters": 50,
}

# The settable method keys each method reads.
READS = {method: tuple(key for key, spec in CONFIG_KEYS.items() if spec.help is not None
                       and (spec.field or "").startswith("method.") and method in spec.methods)
         for method in METHOD_NAMES}
METHOD_KEYS = {key for keys in READS.values() for key in keys}

# Config files written into each command's directory, by file name.
CONFIG_FILES = {
    **{f"all-keys-{m}.json": json.dumps({**ALL_KEYS, "method": m}) for m in METHOD_NAMES},
    "unknown-key.json": json.dumps({"objective": "quadratic", "d": 1, "frobnicate": 1}),
    "wrong-type.json": json.dumps({"objective": "quadratic", "d": 1, "n": "ten"}),
    "unknown-method.json": json.dumps({"objective": "quadratic", "d": 1, "method": "newton"}),
    "init-box-arity.json": json.dumps({"objective": "quadratic", "d": 1, "init_box": [1.0, 2.0, 3.0]}),
    "init-box-infinite.json": json.dumps({"objective": "ackley", "d": 2, "method": "gdbt", "n": 3, "m": 2,
                                          "init_box": [[-math.inf, 0.0], [1.0, 2.0]]}),
    "fixed-h-floor.json": json.dumps({"objective": "quadratic", "d": 1, "h_floor": 1e-10}),
    "fixed-eps-eta.json": json.dumps({"objective": "quadratic", "d": 1, "eps_eta": 1e-6}),
    "init-box-shape.json": json.dumps({"objective": "ackley", "d": 2, "init_box": [[0.0] * 3, [1.0] * 3]}),
    "not-json.json": "{",
    "not-object.json": "[1, 2]",
}

QUAD1 = ["--objective", "quadratic", "--d", "1"]
SMALL_GDBT = ["--objective", "ackley1d", "--method", "gdbt", "--n", "3", "--m", "2", "--seed", "1",
              "--jobs", "1"]
FLOAT_KEYS = [key for key, value in ALL_KEYS.items() if isinstance(value, float)]
ERRORS = {
    "unknown-key": ["run", "--config", f"{TMP}/unknown-key.json"],
    "wrong-type": ["run", "--config", f"{TMP}/wrong-type.json"],
    "wrong-type-flag": ["run", "--objective", "quadratic", "--d", "two"],
    "fixed-h-floor": ["run", "--config", f"{TMP}/fixed-h-floor.json"],
    "fixed-eps-eta": ["run", "--config", f"{TMP}/fixed-eps-eta.json"],
    "config-absent": ["run", "--config", f"{TMP}/absent.json"],
    "config-not-json": ["run", "--config", f"{TMP}/not-json.json"],
    "config-not-object": ["run", "--config", f"{TMP}/not-object.json"],
    "missing-objective": ["run", "--method", "sbgd"],
    "unknown-objective": ["run", "--objective", "griewank"],
    "needs-dimension": ["run", "--objective", "ackley"],
    "fixed-dimension": ["run", "--objective", "ackley1d", "--d", "2"],
    "unknown-preset": ["bench", "--preset", "flatbasin-nope"],
    "preset-path": ["run", "--preset", "../presets/flatbasin-gd08-n30"],
    "unknown-method-flag": ["run", *QUAD1, "--method", "newton"],
    "unknown-method-config": ["run", "--config", f"{TMP}/unknown-method.json"],
    "init-box-arity": ["run", *QUAD1, "--init-box=1"],
    "init-box-number": ["run", *QUAD1, "--init-box=a,b"],
    "init-box-order": ["run", *QUAD1, "--init-box=1,-1"],
    "init-box-arity-config": ["run", "--config", f"{TMP}/init-box-arity.json"],
    "init-box-wide": ["bench", "--objective", "ackley", "--d", "2", "--method", "gdbt", "--n", "3", "--m", "2",
                      "--jobs", "1", "--init-box=-1e308,1e308"],
    "init-box-infinite-config": ["bench", "--config", f"{TMP}/init-box-infinite.json", "--jobs", "1"],
    "init-box-shape-config": ["run", "--config", f"{TMP}/init-box-shape.json"],
    "gamma": ["run", *QUAD1, "--gamma", "1.5"],
    "h0": ["run", *QUAD1, "--h0", "0"],
    "p": ["run", *QUAD1, "--p", "0"],
    "tolm": ["run", *QUAD1, "--tolm=-1"],
    "max-iters-sbgd": ["run", *QUAD1, "--max-iters", "0"],
    "h-gd": ["run", *QUAD1, "--method", "gd", "--h", "0"],
    "tolres-gdbt": ["run", *QUAD1, "--method", "gdbt", "--tolres=-1"],
    "max-iters-gdbt": ["run", *QUAD1, "--method", "gdbt", "--max-iters", "0"],
    "mu": ["run", *QUAD1, "--mu", "0"],
    "dimension-zero": ["run", "--objective", "ackley", "--d", "0"],
    "seed-negative": ["run", *QUAD1, "--seed=-1"],
    "runs": ["bench", *QUAD1, "--m", "0", "--jobs", "1"],
    "jobs": ["bench", *QUAD1, "--m", "2", "--jobs", "0"],
    "p-and-q": ["run", *QUAD1, "--p", "0", "--q", "0"],
    "lambda-and-q": ["run", *QUAD1, "--lambda", "0", "--q", "0"],
    "agents": ["run", *QUAD1, "--n", "0"],
    "sweep-2d": ["sweep", "--objective", "ackley", "--d", "2", "--from=-3", "--to=3", "--steps", "5"],
    "sweep-steps": ["sweep", *QUAD1, "--from=-3", "--to=3", "--steps", "0"],
    "sweep-from-nan": ["sweep", *QUAD1, "--from=nan", "--to=3", "--steps", "5"],
    "sweep-to-inf": ["sweep", *QUAD1, "--from=-3", "--to=inf", "--steps", "5"],
    "sweep-span-overflow": ["sweep", *QUAD1, "--from=-1e308", "--to=1e308", "--steps", "5"],
    "seed-env": ["run", *QUAD1],
    **{f"non-finite-{key}-{value}": ["bench", *SMALL_GDBT, f"--{key}={value}"]
       for key in FLOAT_KEYS for value in ("nan", "inf", "-inf")},
    **{f"{flag}-{name}": ["bench", *SMALL_GDBT, f"--{flag}", path]
       for flag in ("csv", "hist")
       for name, path in (("no-directory", f"{TMP}/absent/out.csv"),
                          ("under-file", f"{TMP}/not-json.json/out.csv"), ("directory", TMP))},
    "csv-empty": ["bench", "--preset", "flatbasin-gdbt-n30", "--m", "2", "--jobs", "1", "--csv="],
    "csv-hist-same-file": ["bench", *SMALL_GDBT, "--csv", f"{TMP}/out.csv", "--hist", "out.csv"],
    "hist-bin-width-inf": ["bench", *SMALL_GDBT, "--hist", f"{TMP}/h.csv", "--hist-bin-width", "inf"],
    "hist-bin-width-zero": ["bench", *SMALL_GDBT, "--hist", f"{TMP}/h.csv", "--hist-bin-width", "0"],
    "hist-coord-range": ["bench", *SMALL_GDBT, "--hist", f"{TMP}/h.csv", "--hist-coord", "1"],
    "hist-coord-needed": ["bench", "--objective", "ackley", "--d", "2", "--method", "gdbt", "--n", "3", "--m", "2",
                          "--jobs", "1", "--hist", f"{TMP}/h.csv"],
    "hist-coord-without-hist": ["bench", *SMALL_GDBT, "--hist-coord", "0"],
    "hist-bin-width-without-hist": ["bench", *SMALL_GDBT, "--hist-bin-width", "0.5"],
    "unread-gdbt-swarm-keys": ["run", "--objective", "ackley", "--d", "2", "--method", "gdbt", "--n", "3",
                               "--tolm", "0.5", "--p", "7", "--q", "3", "--tolmerge", "9"],
    "unread-sbgd-h": ["run", "--objective", "ackley", "--d", "2", "--n", "3", "--method", "sbgd", "--h", "7"],
    "unread-mu-ackley": ["run", "--objective", "ackley", "--d", "2", "--n", "3", "--mu", "5"],
    "unread-sweep-batch-keys": ["sweep", "--objective", "ackley1d", "--from", "0", "--to", "1", "--steps", "3",
                                "--n", "3", "--seed", "5", "--init-box=7,8"],
}
ERROR_ENV = {"seed-env": {SEED_ENV_VAR: "many"}}


def _flags(doc: dict) -> list[str]:
    out = []
    for key, value in doc.items():
        if key == "init_box":
            out.append(f"--init-box={value[0]},{value[1]}")
        else:
            out += [f"--{key.replace('_', '-')}", str(value)]
    return out


def commands() -> dict[str, tuple[list[str], dict[str, str]]]:
    """The captured CLI argument lists and extra environment, by output file stem."""
    presets = sorted(p.stem for p in (SRC / "swarmdescent" / "presets").glob("*.json"))
    out = {}
    for preset in presets:
        for jobs in (1, 2):
            out[f"bench-{preset}-jobs{jobs}"] = ["bench", "--preset", preset, "--jobs", str(jobs)]
        out[f"run-{preset}"] = ["run", "--preset", preset]
    for objective in SWEEP_OBJECTIVES:
        for method in SWEEP_METHODS:
            out[f"sweep-{objective}-{method}"] = [
                "sweep", "--objective", objective, "--method", method,
                "--from=-3", "--to=3", "--steps", "200",
            ]
            out[f"sweep20-{objective}-{method}"] = [
                "sweep", "--objective", objective, "--method", method,
                "--from=-3.1", "--to=2.9", "--steps", "20",
            ]
    out["help"] = ["--help"]
    for command in ("run", "bench", "sweep"):
        out[f"help-{command}"] = [command, "--help"]
    files = ["--csv", f"{TMP}/runs.csv", "--hist", f"{TMP}/hist.csv"]
    out["files-flatbasin"] = ["bench", "--preset", "flatbasin-sbgd21-n30", "--m", "20", *files]
    out["files-ackley2d"] = ["bench", "--preset", "ackley2d-b10-sbgd11-n100", "--m", "10", *files,
                             "--hist-coord", "0", "--hist-bin-width", "0.5"]
    out["merge-ackley2d"] = ["bench", "--preset", "ackley2d-b10-sbgd11-n100", "--m", "20", "--tolmerge", "0.5",
                             "--jobs", "1"]
    out["merge-ackley1d"] = ["bench", "--preset", "ackley1d-sbgd11-n20", "--m", "50", "--tolmerge", "0.05",
                             "--jobs", "1"]
    out["merge-ackley1d-m300"] = ["bench", "--preset", "ackley1d-sbgd11-n20", "--m", "300", "--tolmerge", "0.05",
                                  "--jobs", "1"]
    out["shift-c-ackley2d"] = ["bench", "--preset", "ackley2d-b10-gdbt-n100", "--m", "10", "--c", "-7.25",
                               "--jobs", "1"]
    out["shift-c-ackley20d"] = ["bench", "--preset", "ackley20d-sbgd21-n50", "--m", "5", "--c", "1e6",
                                "--jobs", "1"]
    out["guard-ackley2d"] = ["bench", "--objective", "ackley", "--d", "2", "--method", "gdbt", "--n", "20",
                             "--m", "3", "--jobs", "1", "--init-box=65000,66100"]
    out["stall-ackley1d-gamma0.999"] = ["run", "--objective", "ackley1d", "--n", "1", "--tolres", "0",
                                        "--gamma", "0.999", "--max-iters", "3000"]
    out["long-ladder-ackley2d-gdbt"] = ["bench", "--objective", "ackley", "--d", "2", "--method", "gdbt",
                                        "--gamma", "0.999", "--n", "5", "--m", "2", "--seed", "1", "--jobs", "1"]
    out["stall-ackley1d-gdbt"] = ["bench", "--objective", "ackley1d", "--method", "gdbt", "--n", "3", "--m", "3",
                                  "--tolres", "0", "--max-iters", "200", "--jobs", "1"]
    for name, objective, d, method, n, m in (("ackley3d", "ackley", 3, "gdbt", 20, 3),
                                             ("rastrigin5d", "rastrigin", 5, "sbgd", 10, 3),
                                             ("dropwave7d", "dropwave", 7, "sbgd", 10, 2)):
        out[f"row-sum-{name}-{method}"] = ["bench", "--objective", objective, "--d", str(d), "--method", method,
                                           "--n", str(n), "--m", str(m), "--seed", "1", "--jobs", "1"]
    for method in ("gdbt", "sbgd"):
        out[f"rosenbrock2d-{method}"] = ["bench", "--objective", "rosenbrock2d", "--method", method, "--n", "5",
                                         "--m", "2", "--seed", "1", "--max-iters", "100", "--jobs", "1"]
    for method, n in (("sbgd", "1"), ("gdbt", "2")):
        out[f"overflow-rosenbrock2d-{method}"] = ["bench", "--objective", "rosenbrock2d", "--method", method,
                                                  "--n", n, "--m", "1", "--seed", "1", "--jobs", "1",
                                                  "--init-box=1e200,2e200"]
    out["overflow-ackley2d-h0"] = ["run", "--objective", "ackley", "--d", "2", "--n", "2", "--h0", "1e308",
                                   "--lambda", "0.5"]
    for method in METHOD_NAMES:
        config = f"{TMP}/all-keys-{method}.json"
        out[f"all-keys-{method}-bench-config"] = ["bench", "--config", config, "--jobs", "1"]
        out[f"all-keys-{method}-run-config"] = ["run", "--config", config]
        read = {key: value for key, value in ALL_KEYS.items() if key not in METHOD_KEYS or key in READS[method]}
        out[f"all-keys-{method}-bench-flags"] = ["bench", *_flags({**read, "method": method}), "--jobs", "1"]
    out = {stem: (argv, {}) for stem, argv in out.items()}
    for name, argv in ERRORS.items():
        out[f"error-{name}"] = (argv, ERROR_ENV.get(name, {}))
    return out


def _set_environ(env: dict[str, str | None]) -> None:
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


@contextlib.contextmanager
def _environ(env: dict[str, str | None]):
    """``os.environ`` updated by ``env``, where None unsets a variable, and restored on exit."""
    saved = {key: os.environ.get(key) for key in env}
    _set_environ(env)
    try:
        yield
    finally:
        _set_environ(saved)


def run_subprocess(argv: list[str], env: dict[str, str | None]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one command in a fresh interpreter, in the working directory.

    ``env`` updates this process's environment for the command; None unsets a variable.
    """
    with _environ({"PYTHONPATH": str(SRC), **env}):
        proc = subprocess.run([sys.executable, "-m", "swarmdescent", *argv], capture_output=True, text=True)
    return proc.stdout, proc.stderr, proc.returncode


def run_in_process(argv: list[str], env: dict[str, str | None]) -> tuple[str, str, int]:
    """What :func:`run_subprocess` returns, from ``swarmdescent.cli.main`` called in this process.

    Warnings print to stderr under a fresh interpreter's filters and numpy's
    default error handling, each once per command, and line ends are
    translated as a text-mode pipe does.
    """
    import numpy as np

    from swarmdescent.cli import main

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    out, err = io.StringIO(newline=None), io.StringIO(newline=None)
    with _environ(env), warnings.catch_warnings(), np.errstate(all="warn", under="ignore"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.resetwarnings()
        for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning, ResourceWarning):
            warnings.simplefilter("ignore", category)
        warnings.showwarning = show
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code or 0
    return out.getvalue(), err.getvalue(), code


def capture(out_dir: Path, in_process: bool = False, stems=None) -> None:
    """Write the capture files of every command, or of the commands named in ``stems``, into ``out_dir``."""
    run = run_in_process if in_process else run_subprocess
    out_dir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    for stem, (args, extra_env) in commands().items():
        if stems is not None and stem not in stems:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in CONFIG_FILES.items():
                Path(tmp, name).write_text(text)
            os.chdir(tmp)
            try:
                stdout, stderr, code = run([a.replace(TMP, tmp) for a in args],
                                           {"COLUMNS": "80", SEED_ENV_VAR: None, **extra_env})
            finally:
                os.chdir(cwd)
            written = {p.name: p.read_text() for p in Path(tmp).iterdir() if p.name not in CONFIG_FILES}
        texts = {"stdout": stdout, "stderr": stderr, "rc": f"{code}\n", **written}
        for suffix, text in texts.items():
            text = WARNING_SOURCE.sub(r"\1:LINE:", text.replace(tmp, "TMP"))
            (out_dir / f"{stem}.{suffix}").write_text(text)
        print(f"{stem}: exit {code}", flush=True)


_COMPREHENSIONS = ("<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>")


def function_lines(path: Path) -> set[int]:
    """The lines of a module's functions, which a call runs.

    Module and class bodies run at import, and so do the comprehensions
    written in them, which compile to functions of their own.
    """
    todo, lines = [(compile(path.read_text(), str(path), "exec"), False)], set()
    while todo:
        code, in_function = todo.pop()
        called = in_function or (code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in _COMPREHENSIONS)
        todo += [(const, called) for const in code.co_consts if isinstance(const, types.CodeType)]
        if called:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


@contextlib.contextmanager
def traced_lines():
    """Yield the lines run in each package file, by path, filled in while the block runs."""
    reached = {}
    prefix = str(PACKAGE) + os.sep

    def trace_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return trace_line

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        yield reached
    finally:
        sys.settrace(previous)


def unreached(reached: dict[str, set[int]]) -> list[str]:
    """One ``file:first-last: source`` line per run of package function lines that ``reached`` lacks."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        ran = reached.get(str(path), set())
        run = []
        for line in [*sorted(function_lines(path)), None]:
            if line is not None and line not in ran:
                run.append(line)
            elif run:
                span = str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}"
                out.append(f"{path.relative_to(PACKAGE.parent)}:{span}: {source[run[0] - 1].strip()}")
                run = []
    return out


def environment() -> str:
    """The versions the captured bits depend on: Python, numpy, and the platform with its C library."""
    libc = " ".join(platform.libc_ver())
    return (f"python {platform.python_version()}, numpy {metadata.version('numpy')}, "
            f"{platform.system()} {platform.machine()} {libc}")


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of each file in ``directory``, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def manifest(directory: Path) -> str:
    """The digest manifest of a capture: a header naming :func:`environment`, then one line per file."""
    lines = ["# SHA-256 of each file tools/capture_outputs.py writes.",
             f"# environment: {environment()}"]
    lines += [f"{digest}  {name}" for name, digest in digests(directory).items()]
    return "\n".join(lines) + "\n"


def read_manifest(text: str) -> tuple[str, dict[str, str]]:
    """The environment and the digests by file name that :func:`manifest` wrote."""
    env, files = None, {}
    for line in text.splitlines():
        if line.startswith("# environment: "):
            env = line.removeprefix("# environment: ")
        elif not line.startswith("#"):
            digest, name = line.split("  ", 1)
            files[name] = digest
    return env, files


def differences(new: Path, old: Path) -> list[str]:
    """One line for each file that differs between two captures or that only one holds."""
    names = {p.name for p in new.iterdir()} | {p.name for p in old.iterdir()}
    out = []
    for name in sorted(names):
        if not (new / name).is_file():
            out.append(f"missing from {new}: {name}")
        elif not (old / name).is_file():
            out.append(f"missing from {old}: {name}")
        elif (new / name).read_bytes() != (old / name).read_bytes():
            out.append(f"differs: {name}")
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("dir", type=Path, help="directory to capture into")
    parser.add_argument("--in-process", action="store_true",
                        help="call the CLI in this process instead of in fresh interpreters")
    parser.add_argument("--audit", action="store_true",
                        help="call the CLI in this process under a line trace and print the package "
                             "lines that no command ran")
    parser.add_argument("--digests", type=Path, metavar="FILE",
                        help="write the SHA-256 manifest of the capture to FILE")
    parser.add_argument("--against", type=Path, metavar="OLD_DIR",
                        help="an earlier capture to compare the new one with")
    opts = parser.parse_args(argv)
    if opts.against is not None and not opts.against.is_dir():
        parser.error(f"--against: no directory {opts.against}")
    if opts.audit:
        with traced_lines() as reached:
            capture(opts.dir, in_process=True)
        for line in unreached(reached):
            print(line)
    else:
        capture(opts.dir, opts.in_process)
    if opts.digests is not None:
        opts.digests.write_text(manifest(opts.dir))
    if opts.against is None:
        return 0
    found = differences(opts.dir, opts.against)
    for line in found:
        print(line)
    print(f"{len(found)} files differ from {opts.against}" if found
          else f"every file equals {opts.against}'s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
