"""One cold start of the CLI, run in a fresh interpreter.

    python3 perfbench/coldstart.py SRC setup ARGV...   # stop where the first run would begin
    python3 perfbench/coldstart.py SRC import          # time `import swarmdescent` alone

``setup`` goes through ``swarmdescent.cli.main`` with ``ARGV``, so it
covers imports, argument parsing, preset load and config build, and prints
``ready`` the moment the CLI hands the config to the harness.  ``import``
prints the seconds that ``import swarmdescent`` took.
"""

import sys
import time


class _Ready(BaseException):
    """Raised at the first run; a BaseException so that the CLI's error boundary lets it through."""


def _stop(*args, **kwargs):
    print("ready", flush=True)
    raise _Ready


def main(argv: list[str]) -> int:
    src, mode, *cli_argv = argv
    sys.path.insert(0, src)
    if mode == "import":
        start = time.perf_counter()
        import swarmdescent  # noqa: F401
        print(repr(time.perf_counter() - start), flush=True)
        return 0
    from swarmdescent import cli

    cli.run_experiment = _stop
    cli.basin_sweep = _stop
    try:
        rc = cli.main(cli_argv)
    except _Ready:
        return 0
    print(f"the CLI returned {rc} before its first run", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
