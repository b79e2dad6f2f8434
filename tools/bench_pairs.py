"""Before/after benchmark pairs: the parent checkout against the change, in alternating order.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json \
        [--workloads W1,W2] [--pairs 10] [--seed-base 7000]

Each directory is a checkout holding ``perfbench/`` and ``BENCHMARK.json``,
and both must hold the same benchmark: checkouts whose ``perfbench/`` files
(other than the git-ignored ``out/`` and ``__pycache__/``) or
``BENCHMARK.json`` differ are refused.
Pair ``i`` runs ``perfbench/run.py --workload W --seed SEED_BASE+i --seconds
S --trace 0`` once in each checkout, the parent first in even pairs and the
change first in odd ones; ``S`` is the change's ``BENCHMARK.json``
``run_seconds``.  Both sides run with ``PYTHONDONTWRITEBYTECODE=1``, so
neither reads bytecode the other left behind.  The default workloads are
all those ``BENCHMARK.json`` lists.

Pairs are meant to run on two fresh copies (``git archive`` or ``git
clone``): on a shared 2-vCPU VM, the change side run in a working checkout
once read 1.03 where a fresh copy of the same tree read 0.99.  A checkout that holds ``.git``,
``.hypothesis``, ``.pytest_cache`` or a ``__pycache__`` under ``src/`` or
``perfbench/`` is named in one warning line on stderr; the run goes on.

``OUT.json`` gets every raw result, the digests of both sides' ``src/`` and
of the shared benchmark, what each side holds that a fresh copy would not
(``leftovers``), numpy's version and, for each workload and
end-to-end metric, each side's median and quartiles, the number of pairs
the change won (ties count for neither side), the ratio of the change's
median to the parent's, and whether that ratio is worse than the metric's
``bound`` in ``BENCHMARK.json`` allows (``over_bound``): above ``1 + bound``
for a metric where lower is better, below ``1 - bound`` where higher is.
Each row also gets a ``verdict``: ``gain`` when the change won at least
9/10 of the pairs and its median is better than the parent's by more than
the parent's quartile spread ``q3 - q1``, ``over bound`` when the ratio is
over its bound, and ``level`` otherwise.
The same summary is then printed as a markdown table, with each ratio over
its bound marked.  The exit code is 1 if any run failed, was not
``correct`` or had failed operations, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
# What git, the tests and imports leave in a checkout; a fresh copy holds none.
LEFTOVERS = (".git", ".hypothesis", ".pytest_cache")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one ``perfbench/run.py`` run, with its exit code and stderr tail."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=checkout,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    return {"exit_code": proc.returncode, "stderr_tail": proc.stderr.strip().splitlines()[-5:],
            **result}


def run_ok(result: dict) -> bool:
    return result["exit_code"] == 0 and result.get("correct") is True and result.get("failed") == 0


def files_digest(root: Path, files) -> str:
    """SHA-256 over the paths, relative to ``root``, and the bytes of ``files``."""
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_digest(checkout: Path) -> str:
    """SHA-256 over the checkout's ``src/`` files, which identifies the code run."""
    src = checkout / "src"
    return files_digest(src, (p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts))


def benchmark_digest(checkout: Path) -> str:
    """SHA-256 over ``BENCHMARK.json`` and the ``perfbench/`` files, which identifies the benchmark.

    The git-ignored ``perfbench/out/`` and ``__pycache__/`` directories are left out.
    """
    bench = checkout / "perfbench"
    files = [p for p in bench.rglob("*") if p.is_file()
             and p.relative_to(bench).parts[0] != "out" and "__pycache__" not in p.parts]
    return files_digest(checkout, files + [checkout / "BENCHMARK.json"])


def leftovers(checkout: Path) -> list[str]:
    """The paths, relative to ``checkout``, it holds that a fresh copy would not."""
    found = [name for name in LEFTOVERS if (checkout / name).exists()]
    for top in ("src", "perfbench"):
        found += sorted(p.relative_to(checkout).as_posix() for p in (checkout / top).rglob("__pycache__"))
    return found


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: each side's median and quartiles, the change's wins and median ratio."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        rows = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [] for side in SIDES}
            wins = losses = 0
            for pair in pairs.values():
                got = {side: pair.get(side, {}).get("metrics", {}).get(name, {}).get("value")
                       for side in SIDES}
                if None in got.values():
                    continue
                for side in SIDES:
                    values[side].append(got[side])
                gain = got["parent"] - got["change"] if lower else got["change"] - got["parent"]
                wins += gain > 0
                losses += gain < 0
            if not values["parent"]:
                continue
            row = {"pairs": len(values["parent"]), "change_wins": wins, "change_losses": losses}
            for side in SIDES:
                q1, median, q3 = quartiles(values[side])
                row[side] = {"median": median, "q1": q1, "q3": q3}
            base = row["parent"]["median"]
            ratio = row["change"]["median"] / base if base else None
            row["ratio"] = ratio
            row["over_bound"] = ratio is not None and (ratio - 1.0 if lower else 1.0 - ratio) > metric["bound"]
            parent, change = row["parent"], row["change"]
            gap = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
            if 10 * wins >= 9 * row["pairs"] and gap > parent["q3"] - parent["q1"]:
                row["verdict"] = "gain"
            else:
                row["verdict"] = "over bound" if row["over_bound"] else "level"
            rows[name] = row
        summary[workload] = rows
    return summary


def summary_table(summary: dict) -> str:
    """The summary as a markdown table: one row per workload and metric."""
    def cell(side: dict) -> str:
        return f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"

    def ratio(row: dict) -> str:
        if row["ratio"] is None:
            return "n/a"
        return f"**{row['ratio']:.3f} over bound**" if row["over_bound"] else f"{row['ratio']:.3f}"

    lines = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] | change wins "
             "| verdict | change/parent |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for workload, rows in summary.items():
        for metric, row in rows.items():
            lines.append(f"| `{workload}` | `{metric}` | {cell(row['parent'])} | "
                         f"{cell(row['change'])} | {row['change_wins']}/{row['pairs']} | {row['verdict']} | "
                         f"{ratio(row)} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("out", type=Path, help="JSON file to write, e.g. BENCH_6.json")
    parser.add_argument("--workloads", help="comma-separated workload names (default: all)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seed-base", type=int, default=7000,
                        help="seed of the first pair; pair i uses SEED_BASE + i (default 7000)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed_base < 0:
        parser.error("--pairs must be >= 1 and --seed-base >= 0")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        for name in ("perfbench/run.py", "BENCHMARK.json"):
            if not (checkout / name).is_file():
                parser.error(f"{side} checkout has no {name}")
    bench_sha256 = {side: benchmark_digest(checkout) for side, checkout in checkouts.items()}
    if bench_sha256["parent"] != bench_sha256["change"]:
        parser.error("the checkouts' perfbench/ files or BENCHMARK.json differ; "
                     "pairs must run the same benchmark on both sides")
    stale = {side: leftovers(checkout) for side, checkout in checkouts.items()}
    if any(stale.values()):
        print("warning: not a fresh copy: " + "; ".join(
            f"{side} {checkouts[side]} holds {', '.join(names)}" for side, names in stale.items() if names),
            file=sys.stderr, flush=True)
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_once(checkouts[side], workload, seed, seconds)
                runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                             "position": position, "result": result})
                wall = result.get("metrics", {}).get("wall_s", {}).get("value")
                print(f"{workload} pair {pair} seed {seed} {side}: wall_s {wall} "
                      f"{'ok' if run_ok(result) else 'FAILED'}", flush=True)

    doc = {
        "command": f"perfbench/run.py --seconds {seconds} --trace 0",
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "src_sha256": {side: source_digest(checkout) for side, checkout in checkouts.items()},
        "bench_sha256": bench_sha256["change"],
        "leftovers": stale,
        "numpy": metadata.version("numpy"),
        "pairs": args.pairs,
        "seed_base": args.seed_base,
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(summary_table(doc["summary"]))
    bad = [r for r in runs if not run_ok(r["result"])]
    for r in bad:
        print(f"bad run: {r['workload']} seed {r['seed']} {r['side']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
