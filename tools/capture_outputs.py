"""Capture the CLI's output for every shipped preset and the 1-D basin sweeps.

    python3 tools/capture_outputs.py DIR

For each command below, writes ``DIR/<name>.stdout``, ``.stderr`` and
``.rc`` (the exit code).  The commands run one at a time in fresh
interpreters, against the package in this checkout's ``src/``:

* ``bench --preset P --jobs 1`` and ``--jobs 2`` for every shipped preset,
  at the preset's own ``m``;
* ``sweep --objective O --method M --from=-3 --to=3 --steps 200`` for the
  1-D objectives ``ackley1d``, ``rastrigin1d`` and ``flatbasin1d`` and the
  methods ``sbgd`` and ``gdbt``.

Two captures of the same behaviour, for example before and after a change
that must not alter any result, compare with ``diff -r DIR1 DIR2``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SWEEP_OBJECTIVES = ("ackley1d", "rastrigin1d", "flatbasin1d")
SWEEP_METHODS = ("sbgd", "gdbt")


def commands() -> dict[str, list[str]]:
    """The captured CLI argument lists, by output file stem."""
    presets = sorted(p.stem for p in (SRC / "swarmdescent" / "presets").glob("*.json"))
    out = {}
    for preset in presets:
        for jobs in (1, 2):
            out[f"bench-{preset}-jobs{jobs}"] = ["bench", "--preset", preset, "--jobs", str(jobs)]
    for objective in SWEEP_OBJECTIVES:
        for method in SWEEP_METHODS:
            out[f"sweep-{objective}-{method}"] = [
                "sweep", "--objective", objective, "--method", method,
                "--from=-3", "--to=3", "--steps", "200",
            ]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SWARM_DESCENT_SEED", None)
    for stem, args in commands().items():
        proc = subprocess.run([sys.executable, "-m", "swarmdescent", *args],
                              capture_output=True, text=True, env=env)
        (out_dir / f"{stem}.stdout").write_text(proc.stdout)
        (out_dir / f"{stem}.stderr").write_text(proc.stderr)
        (out_dir / f"{stem}.rc").write_text(f"{proc.returncode}\n")
        print(f"{stem}: exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
