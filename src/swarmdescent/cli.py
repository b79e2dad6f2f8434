"""Command-line front end: single runs, experiment batches, basin sweeps.

Configuration is a flat declarative document (JSON) with one schema shared
by config files, shipped presets, and command-line flags: the table
:data:`~swarmdescent.harness.CONFIG_KEYS`, which also says which commands,
methods and objectives read each key.  Sources merge in fixed precedence:
built-in defaults, then ``--preset``, then ``--config``, then explicit
flags; the ``SWARM_DESCENT_SEED`` environment variable slots between config
files and the ``--seed`` flag.  An explicit flag that the run does not read
is an error.  The effective configuration is echoed in every emitted report.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from importlib import resources

import numpy as np

from .harness import (
    CONFIG_KEYS,
    HIST_BIN_WIDTH,
    SEED_ENV_VAR,
    basin_sweep,
    config_from_dict,
    histogram_coord,
    method_from_dict,
    method_name,
    objective_from_dict,
    report_to_dict,
    run_experiment,
    solution_histogram,
    write_histogram_csv,
    write_report_csv,
)

__all__ = ["main"]

# The keys a preset, a config file or a flag may set.
_SETTABLE = [key for key, spec in CONFIG_KEYS.items() if spec.help is not None]


class ConfigError(ValueError):
    """A configuration document or flag set that fails validation."""


def _validate_document(doc: dict, source: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    out = {}
    for key, value in doc.items():
        if key not in _SETTABLE:
            raise ConfigError(f"{source}: unknown key {key!r}; known keys: {', '.join(sorted(_SETTABLE))}")
        expected = CONFIG_KEYS[key].kind
        if isinstance(value, bool) or not isinstance(value, (int, float) if expected is float else expected):
            raise ConfigError(f"{source}: key {key!r} must be {expected.__name__}, got {value!r}")
        value = expected(value)
        # NaN and infinities pass the parameter classes' range checks or make
        # reports that are not strict JSON, so no source may set them.
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{source}: key {key!r} must be finite, got {value!r}")
        out[key] = value
    return out


def preset_names() -> list[str]:
    """Names of the presets shipped with the package."""
    root = resources.files(__package__) / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    """Load a shipped preset document by name."""
    names = preset_names()
    if name not in names:
        raise ConfigError(f"unknown preset {name!r}; available presets: {', '.join(names)}")
    doc = json.loads((resources.files(__package__) / "presets" / f"{name}.json").read_text())
    return _validate_document(doc, f"preset {name!r}")


def _parse_init_box(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    try:
        return [float(parts[0]), float(parts[1])]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric LO,HI, got {text!r}") from None


def _merge_config(args: argparse.Namespace) -> tuple:
    """The run's config document, and the objective and method it names.

    An explicit flag that nothing in the run reads is refused.  Presets and
    config files may hold such keys: one document serves several commands
    and methods.
    """
    doc = {key: spec.default for key, spec in CONFIG_KEYS.items() if spec.default is not None}
    if args.preset is not None:
        doc.update(load_preset(args.preset))
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config!r} is not valid JSON: {exc}") from exc
        doc.update(_validate_document(loaded, f"config file {args.config!r}"))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            doc["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
    flags = {key: value for key, value in vars(args).items() if key in CONFIG_KEYS and value is not None}
    doc.update(_validate_document(flags, "command line"))
    if "objective" not in doc:
        raise ConfigError("an objective is required (--objective or a preset/config file)")
    method = method_from_dict(doc)
    objective = objective_from_dict(doc)
    run = {"command": args.command, "method": method_name(method), "objective": objective.kind.value}
    for key in flags:
        for role, name in run.items():
            readers = getattr(CONFIG_KEYS[key], role + "s")
            if name not in readers:
                raise ConfigError(f"--{key.replace('_', '-')} is not read by {role} {name}, only by "
                                  f"{role}{'s' if len(readers) > 1 else ''} {', '.join(readers)}")
    return doc, objective, method


def cmd_run(args: argparse.Namespace) -> int:
    doc, objective, method = _merge_config(args)
    doc["m"] = 1
    report = report_to_dict(run_experiment(config_from_dict(doc, objective, method), jobs=1))
    print(json.dumps({"config": report["config"], "result": report["per_run"][0]}, indent=2))
    return 0


def _check_output_path(flag: str, path: str) -> None:
    """Refuse an output path that cannot be written, before any work and without touching it."""
    parent = os.path.dirname(path) or "."
    if not path:
        problem = "the path is empty"
    elif os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"no directory {parent!r}"
    elif not (os.access(path, os.W_OK) if os.path.exists(path) else os.access(parent, os.W_OK | os.X_OK)):
        problem = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write {flag} file {path!r}: {problem}")


def cmd_bench(args: argparse.Namespace) -> int:
    if args.hist is None:
        for flag, value in (("--hist-bin-width", args.hist_bin_width), ("--hist-coord", args.hist_coord)):
            if value is not None:
                raise ConfigError(f"{flag} needs --hist")
    bin_width = HIST_BIN_WIDTH if args.hist_bin_width is None else args.hist_bin_width
    cfg = config_from_dict(*_merge_config(args))
    if args.hist is not None:
        histogram_coord(cfg.objective.dimension, bin_width, args.hist_coord)
    for flag, path in (("--csv", args.csv), ("--hist", args.hist)):
        if path is not None:
            _check_output_path(flag, path)
    if None not in (args.csv, args.hist) and os.path.realpath(args.csv) == os.path.realpath(args.hist):
        raise ConfigError(f"--csv and --hist name the same file {args.hist!r}")
    report = run_experiment(cfg, jobs=args.jobs)
    if args.csv is not None:
        write_report_csv(report, args.csv)
    if args.hist is not None:
        histogram = solution_histogram(report.per_run, bin_width=bin_width, coord=args.hist_coord)
        write_histogram_csv(histogram, args.hist)
    print(json.dumps(report_to_dict(report), indent=2))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _, objective, method = _merge_config(args)
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    # A NaN or infinite end makes the span NaN or infinite too.
    if not math.isfinite(args.stop - args.start):
        raise ConfigError(f"--from and --to must be finite, with a finite span between them, "
                          f"got --from={args.start!r} --to={args.stop!r}")
    grid = np.linspace(args.start, args.stop, args.steps)
    print("\n".join(f"{x0!r},{x_final!r}" for x0, x_final in basin_sweep(objective, method, grid)))
    return 0


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--preset", help="name of a shipped preset to start from")
    parser.add_argument("--config", help="path to a JSON config file")
    # A key several commands read is a flag of each, so that one that does not
    # read it can name those that do; a key one command reads (m) is a flag of
    # that command alone, after the others.
    shared = [key for key in _SETTABLE if len(CONFIG_KEYS[key].commands) > 1]
    for key in shared + [key for key in _SETTABLE if CONFIG_KEYS[key].commands == (command,)]:
        spec = CONFIG_KEYS[key]
        options = ({"type": _parse_init_box, "metavar": "LO,HI"} if spec.kind is list
                   else {"type": spec.kind, "choices": spec.choices})
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=spec.help, **options)


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.

    Parsing leaves it unchanged, and it reads the terminal width each time
    it formats help or usage, so every call can reuse it.
    """
    parser = argparse.ArgumentParser(
        prog="swarmdescent",
        description="Swarm-based gradient descent: runs, benchmarks, basin sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded run and print its JSON result")
    _add_config_flags(p_run, "run")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a seeded batch and print the JSON report")
    _add_config_flags(p_bench, "bench")
    p_bench.add_argument("--jobs", type=int, default=None,
                         help="parallel worker processes (default: all cores)")
    p_bench.add_argument("--csv", help="also write one CSV row per run to this path")
    p_bench.add_argument("--hist", help="also write a solution histogram CSV to this path")
    p_bench.add_argument("--hist-bin-width", dest="hist_bin_width", type=float, default=None,
                         help="histogram bin width (default 1e-4)")
    p_bench.add_argument("--hist-coord", dest="hist_coord", type=int, default=None,
                         help="solution coordinate to histogram (default: the only one)")
    p_bench.set_defaults(func=cmd_bench)

    p_sweep = sub.add_parser("sweep", help="map a 1-D grid of starts to terminal points as CSV")
    _add_config_flags(p_sweep, "sweep")
    p_sweep.add_argument("--from", dest="start", type=float, required=True,
                         help="first grid point")
    p_sweep.add_argument("--to", dest="stop", type=float, required=True,
                         help="last grid point")
    p_sweep.add_argument("--steps", type=int, required=True,
                         help="number of grid points")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
