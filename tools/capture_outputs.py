"""Capture the CLI's output for every shipped preset, the basin sweeps, help and error paths.

    python3 tools/capture_outputs.py DIR [--against OLD_DIR]

For each command below, writes ``DIR/<name>.stdout``, ``.stderr`` and
``.rc`` (the exit code), plus ``DIR/<name>.<file>`` for each file the
command writes.  The commands run one at a time in fresh interpreters,
against the package in this checkout's ``src/``, each in its own temporary
directory, whose path reads ``TMP`` in the captured text:

* ``bench --preset P --jobs 1`` and ``--jobs 2`` and ``run --preset P`` for
  every shipped preset, at the preset's own ``m``;
* ``sweep --objective O --method M --from=-3 --to=3 --steps 200`` for the
  1-D objectives ``ackley1d``, ``rastrigin1d`` and ``flatbasin1d`` and the
  methods ``sbgd`` and ``gdbt``;
* ``--help`` of the program and of each subcommand;
* ``bench --csv --hist`` on a 1-D and a 2-D preset, with the CSV files;
* two batches that merge thousands of agents: ``bench --preset
  ackley2d-b10-sbgd11-n100 --m 20 --tolmerge 0.5`` and ``bench --preset
  ackley1d-sbgd11-n20 --m 50 --tolmerge 0.05``;
* two Ackley batches with a value shift, which the screened kernel's bound
  must carry: ``bench --preset ackley2d-b10-gdbt-n100 --m 10 --c -7.25`` and
  ``bench --preset ackley20d-sbgd21-n50 --m 5 --c 1e6``;
* an Ackley batch whose trial points cross ``|z| = 2^16``, where a ladder
  call holding a point beyond it is bounded by ``e`` for every point instead
  of the screened kernel's Taylor bound: ``bench --objective ackley --d 2
  --method gdbt --n 20 --m 3 --init-box=65000,66100``;
* for each method, every config key set to a value other than its default,
  by config file (``bench`` and ``run``) and by flags (``bench``); the flags
  case passes only the method keys that method reads, since a flag that the
  run does not read is an error;
* the usage and configuration errors (exit code 2): unknown, mistyped and
  missing keys, objectives, presets and methods, a preset named by a path, a
  config file that is not JSON and one that holds a JSON array, malformed
  init boxes, out-of-range parameters, each float key set to ``nan``,
  ``inf`` and ``-inf`` by flag, an init box of infinite width by flag and
  one with an infinite bound by config file, a 2-D sweep, sweeps from
  ``nan``, to ``inf`` and over a span that overflows, a malformed seed
  variable, ``--csv`` and ``--hist`` paths in a missing directory, under a
  file or naming a directory, ``--csv`` and ``--hist`` naming one file, an
  infinite ``--hist-bin-width``, ``--hist-coord`` or ``--hist-bin-width``
  without ``--hist``, and flags the run does not read: swarm keys to
  ``gdbt``, ``--h`` to ``sbgd``, ``--mu`` to ``ackley``, and ``--n``,
  ``--seed`` and ``--init-box`` to a sweep.

With ``--against OLD_DIR``, the new capture is then compared byte for byte
with an earlier one, for example of the parent of a change that must not
alter any result: each file that differs, or that only one of the two
directories holds, is printed, and the exit code is 1 if there is any.
Capture into a new or empty ``DIR``, so that no stale file takes part.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SWEEP_OBJECTIVES = ("ackley1d", "rastrigin1d", "flatbasin1d")
SWEEP_METHODS = ("sbgd", "gdbt")
METHODS = ("sbgd", "gd", "gdbt", "adam")
SEED_ENV_VAR = "SWARM_DESCENT_SEED"
TMP = "{tmp}"

# Every config key at a value other than its default, each value distinct.
ALL_KEYS = {
    "objective": "quadratic", "d": 2, "b": 0.5, "c": 0.25, "mu": 2.0, "n": 3, "m": 2,
    "seed": 4, "init_box": [-2.0, 1.0], "h": 0.05, "p": 1.5, "q": 2.0, "lambda": 0.3,
    "gamma": 0.8, "h0": 0.5, "tolm": 0.002, "tolmerge": 0.01, "tolres": 0.001, "max_iters": 50,
}

# The method keys each method reads.
READS = {
    "sbgd": ("p", "q", "lambda", "gamma", "h0", "tolm", "tolmerge", "tolres", "max_iters"),
    "gd": ("h", "tolres", "max_iters"),
    "gdbt": ("lambda", "gamma", "h0", "tolres", "max_iters"),
    "adam": ("h", "tolres", "max_iters"),
}
METHOD_KEYS = {key for keys in READS.values() for key in keys}

# Config files written into each command's directory, by file name.
CONFIG_FILES = {
    **{f"all-keys-{m}.json": json.dumps({**ALL_KEYS, "method": m}) for m in METHODS},
    "unknown-key.json": json.dumps({"objective": "quadratic", "d": 1, "frobnicate": 1}),
    "wrong-type.json": json.dumps({"objective": "quadratic", "d": 1, "n": "ten"}),
    "unknown-method.json": json.dumps({"objective": "quadratic", "d": 1, "method": "newton"}),
    "init-box-arity.json": json.dumps({"objective": "quadratic", "d": 1, "init_box": [1.0, 2.0, 3.0]}),
    "init-box-infinite.json": json.dumps({"objective": "ackley", "d": 2, "method": "gdbt", "n": 3, "m": 2,
                                          "init_box": [[-math.inf, 0.0], [1.0, 2.0]]}),
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
    "gamma": ["run", *QUAD1, "--gamma", "1.5"],
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
    "csv-hist-same-file": ["bench", *SMALL_GDBT, "--csv", f"{TMP}/out.csv", "--hist", "out.csv"],
    "hist-bin-width-inf": ["bench", *SMALL_GDBT, "--hist", f"{TMP}/h.csv", "--hist-bin-width", "inf"],
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
    out["shift-c-ackley2d"] = ["bench", "--preset", "ackley2d-b10-gdbt-n100", "--m", "10", "--c", "-7.25",
                               "--jobs", "1"]
    out["shift-c-ackley20d"] = ["bench", "--preset", "ackley20d-sbgd21-n50", "--m", "5", "--c", "1e6",
                                "--jobs", "1"]
    out["guard-ackley2d"] = ["bench", "--objective", "ackley", "--d", "2", "--method", "gdbt", "--n", "20",
                             "--m", "3", "--jobs", "1", "--init-box=65000,66100"]
    for method in METHODS:
        config = f"{TMP}/all-keys-{method}.json"
        out[f"all-keys-{method}-bench-config"] = ["bench", "--config", config, "--jobs", "1"]
        out[f"all-keys-{method}-run-config"] = ["run", "--config", config]
        read = {key: value for key, value in ALL_KEYS.items() if key not in METHOD_KEYS or key in READS[method]}
        out[f"all-keys-{method}-bench-flags"] = ["bench", *_flags({**read, "method": method}), "--jobs", "1"]
    out = {stem: (argv, {}) for stem, argv in out.items()}
    for name, argv in ERRORS.items():
        out[f"error-{name}"] = (argv, ERROR_ENV.get(name, {}))
    return out


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
    parser.add_argument("--against", type=Path, metavar="OLD_DIR",
                        help="an earlier capture to compare the new one with")
    opts = parser.parse_args(argv)
    if opts.against is not None and not opts.against.is_dir():
        parser.error(f"--against: no directory {opts.against}")
    out_dir = opts.dir
    out_dir.mkdir(parents=True, exist_ok=True)
    base_env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    base_env.pop(SEED_ENV_VAR, None)
    for stem, (args, extra_env) in commands().items():
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in CONFIG_FILES.items():
                Path(tmp, name).write_text(text)
            proc = subprocess.run(
                [sys.executable, "-m", "swarmdescent", *(a.replace(TMP, tmp) for a in args)],
                capture_output=True, text=True, env={**base_env, **extra_env}, cwd=tmp,
            )
            written = {p.name: p.read_text() for p in Path(tmp).iterdir() if p.name not in CONFIG_FILES}
        texts = {"stdout": proc.stdout, "stderr": proc.stderr, "rc": f"{proc.returncode}\n", **written}
        for suffix, text in texts.items():
            (out_dir / f"{stem}.{suffix}").write_text(text.replace(tmp, "TMP"))
        print(f"{stem}: exit {proc.returncode}", flush=True)
    if opts.against is None:
        return 0
    found = differences(out_dir, opts.against)
    for line in found:
        print(line)
    print(f"{len(found)} files differ from {opts.against}" if found
          else f"every file equals {opts.against}'s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
