"""Command-line front end: single runs, experiment batches, basin sweeps.

Configuration is a flat declarative document (JSON) with one schema shared
by config files, shipped presets, and command-line flags.  Sources merge in
fixed precedence: built-in defaults, then ``--preset``, then ``--config``,
then explicit flags; the ``SWARM_DESCENT_SEED`` environment variable slots
between config files and the ``--seed`` flag.  The effective configuration
is echoed in every emitted report.

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
    METHOD_NAMES,
    basin_sweep,
    config_from_dict,
    histogram_coord,
    method_from_dict,
    objective_from_dict,
    report_to_dict,
    run_experiment,
    solution_histogram,
    write_histogram_csv,
    write_report_csv,
)
from .objectives import OBJECTIVE_NAMES

__all__ = ["main"]

SEED_ENV_VAR = "SWARM_DESCENT_SEED"

# The one declarative schema shared by presets, config files, and flags:
# each key's type and its flag's help text.
_SCHEMA: dict[str, tuple[type, str]] = {
    "objective": (str, f"one of: {', '.join(OBJECTIVE_NAMES)}"),
    "d": (int, "ambient dimension (fixed-dimension objectives infer it)"),
    "b": (float, "minimizer shift applied along the all-ones direction"),
    "c": (float, "additive offset of the minimum value"),
    "mu": (float, "curvature of the quadratic objective"),
    "method": (str, "optimizer to run"),
    "n": (int, "number of agents"),
    "m": (int, "number of independent runs"),
    "seed": (int, f"base seed (overrides ${SEED_ENV_VAR})"),
    "init_box": (list, "uniform initialization box, e.g. --init-box=-3,-1"),
    "h": (float, "step size for gd/adam"),
    "p": (float, "mass-transition exponent"),
    "q": (float, "relative-mass exponent in the step rule"),
    "lambda": (float, "descent parameter"),
    "gamma": (float, "backtracking shrinkage factor"),
    "h0": (float, "initial backtracking step"),
    "tolm": (float, "mass elimination threshold"),
    "tolmerge": (float, "agent merge distance"),
    "tolres": (float, "residual stopping threshold"),
    "max_iters": (int, "iteration cap"),
}

# The keys no parameter class owns; the classes' own defaults fill the rest.
_DEFAULTS: dict = {"method": "sbgd", "n": 1, "m": 1, "seed": 0}


class ConfigError(ValueError):
    """A configuration document or flag set that fails validation."""


def _validate_document(doc: dict, source: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    out = {}
    for key, value in doc.items():
        if key not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ConfigError(f"{source}: unknown key {key!r}; known keys: {known}")
        expected, _ = _SCHEMA[key]
        if expected is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)
        elif expected is int and isinstance(value, int) and not isinstance(value, bool):
            value = int(value)
        elif not isinstance(value, expected) or isinstance(value, bool):
            raise ConfigError(
                f"{source}: key {key!r} must be {expected.__name__}, got {value!r}"
            )
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


def _merge_config(args: argparse.Namespace) -> dict:
    doc = dict(_DEFAULTS)
    if getattr(args, "preset", None) is not None:
        doc.update(load_preset(args.preset))
    if getattr(args, "config", None) is not None:
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
    flags = {
        key: value
        for key, value in vars(args).items()
        if key in _SCHEMA and value is not None
    }
    doc.update(_validate_document(flags, "command line"))
    if "objective" not in doc:
        raise ConfigError("an objective is required (--objective or a preset/config file)")
    return doc


def cmd_run(args: argparse.Namespace) -> int:
    doc = _merge_config(args)
    doc["m"] = 1
    report = report_to_dict(run_experiment(config_from_dict(doc), jobs=1))
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
    bin_width = 1e-4 if args.hist_bin_width is None else args.hist_bin_width
    cfg = config_from_dict(_merge_config(args))
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
    doc = _merge_config(args)
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    # A NaN or infinite end makes the span NaN or infinite too.
    if not math.isfinite(args.stop - args.start):
        raise ConfigError(f"--from and --to must be finite, with a finite span between them, "
                          f"got --from={args.start!r} --to={args.stop!r}")
    grid = np.linspace(args.start, args.stop, args.steps)
    for x0, x_final in basin_sweep(objective_from_dict(doc), method_from_dict(doc), grid):
        print(f"{x0!r},{x_final!r}")
    return 0


# Flags whose parsing differs from their key's type.
_FLAG_OPTIONS = {
    "method": {"choices": METHOD_NAMES},
    "init_box": {"type": _parse_init_box, "metavar": "LO,HI"},
}


def _add_flag(parser: argparse.ArgumentParser, key: str) -> None:
    kind, text = _SCHEMA[key]
    options = {"type": kind, **_FLAG_OPTIONS.get(key, {})}
    parser.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **options)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="name of a shipped preset to start from")
    parser.add_argument("--config", help="path to a JSON config file")
    for key in _SCHEMA:
        if key != "m":  # the batch size: a flag of bench alone
            _add_flag(parser, key)


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
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a seeded batch and print the JSON report")
    _add_config_flags(p_bench)
    _add_flag(p_bench, "m")
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
    _add_config_flags(p_sweep)
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
