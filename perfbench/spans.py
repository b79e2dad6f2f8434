"""Spans and counters around the calls into each swarmdescent layer.

The package itself carries no tracing.  While a :class:`Tracer` is active it
replaces the module-level names through which one layer calls the next with
timing wrappers, and restores them afterwards.  A span's self time is its
duration minus the durations of the spans it directly encloses, so a layer's
self time is the time spent in its own code.  Spans recorded in pool workers
stay in the workers; traced rounds therefore run sequentially.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

_MISSING = object()


class _JsonProxy:
    """Stands in for the ``json`` module inside the CLI so that ``dumps`` can be timed."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _count_eval(counts, result, parent):
    counts["eval_points"] += len(result)
    if parent == "linesearch.backtrack":
        counts["rungs"] += 1


def _count_backtrack(counts, result, parent):
    h, _, n_evals = result
    accepted = int((h > 0.0).sum())
    counts["agent_steps"] += h.size
    counts["trial_evals"] += n_evals
    counts["accepted"] += accepted
    counts["stalled"] += h.size - accepted


def _count_iteration(counts, result, parent):
    stats = result[2]
    counts["eliminated"] += stats.eliminated
    counts["merged"] += stats.merged


def _count_baseline(counts, result, parent):
    counts["sweeps"] += result.iterations


class Tracer:
    """Records spans ``(name, parent, start, end, self_time)`` and work counters in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []

    def wrap(self, name: str, fn, count=None):
        stack = self._stack
        spans = self.spans
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append((name, parent and parent[0], start, end, duration - frame[1]))
            if count is not None:
                count(counts, result, parent and parent[0])
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, sd):
        """Wrap the layer boundaries of the imported package ``sd`` for the duration of the block."""
        cli, harness, swarm, baselines = sd.cli, sd.harness, sd.swarm, sd.baselines
        objective = sd.objectives.Objective
        targets = [
            (objective, "evaluate_many", "objectives.eval", _count_eval),
            (objective, "gradient_many", "objectives.grad", None),
            (swarm, "backtrack_batch", "linesearch.backtrack", _count_backtrack),
            (baselines, "backtrack_batch", "linesearch.backtrack", _count_backtrack),
            (swarm, "sbgd_iteration", "swarm.iteration", _count_iteration),
            (swarm, "transfer_mass", "swarm.transfer", None),
            (swarm, "relative_heights", "swarm.transfer", None),
            (harness, "run_sbgd", "swarm.run", None),
            (harness, "run_baseline", "baselines.run", _count_baseline),
            (harness, "sample_initial_positions", "harness.sample", None),
            (cli, "run_experiment", "harness.run_experiment", None),
            (cli, "basin_sweep", "harness.basin_sweep", None),
            (cli, "report_to_dict", "harness.serialize", None),
            (cli, "print", "harness.serialize", None),
        ]
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = owner.__dict__.get(attr, _MISSING)
                saved.append((owner, attr, original))
                fn = print if original is _MISSING else original
                setattr(owner, attr, self.wrap(name, fn, count))
            saved.append((cli, "json", cli.json))
            cli.json = _JsonProxy(cli.json, self.wrap("harness.serialize", cli.json.dumps))
            yield self.wrap("cli.main", cli.main)
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def write(self, path, count: int) -> None:
        """Write the first ``count`` spans as JSON lines, times in seconds from the first start."""
        spans = self.spans[:count]
        t0 = min((s[2] for s in spans), default=0.0)
        with open(path, "w") as fh:
            for name, parent, start, end, self_time in spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start - t0,
                                     "end": end - t0, "self": self_time}) + "\n")


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it; the median below forty samples."""
    if n < 40:
        return 0.5
    return math.floor(100.0 * (1.0 - 10.0 / n)) / 100.0


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round, from the spans and counters of ``rounds`` rounds."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    run_ms = []
    for name, _, start, end, self_time in tracer.spans:
        calls[name] += 1
        self_s[name] += self_time
        if name in ("swarm.run", "baselines.run"):
            run_ms.append(1e3 * (end - start))
    c = tracer.counts

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    eval_calls = calls["objectives.eval"]
    eval_s = self_s["objectives.eval"]
    return {
        "objectives.eval_calls": eval_calls / rounds,
        "objectives.eval_points": c["eval_points"] / rounds,
        "objectives.points_per_call": ratio(c["eval_points"], eval_calls),
        "objectives.eval_s": eval_s / rounds,
        "objectives.grad_calls": calls["objectives.grad"] / rounds,
        "objectives.grad_s": self_s["objectives.grad"] / rounds,
        "objectives.eval_us_per_call": 1e6 * ratio(eval_s, eval_calls),
        "objectives.eval_ns_per_point": 1e9 * ratio(eval_s, c["eval_points"]),
        "linesearch.calls": calls["linesearch.backtrack"] / rounds,
        "linesearch.self_s": layer_self("linesearch"),
        "linesearch.rungs_per_call": ratio(c["rungs"], calls["linesearch.backtrack"]),
        "linesearch.evals_per_agent_step": ratio(c["trial_evals"], c["agent_steps"]),
        "linesearch.accept_ratio": ratio(c["accepted"], c["trial_evals"]),
        "linesearch.stalled": c["stalled"] / rounds,
        "swarm.iterations": calls["swarm.iteration"] / rounds,
        "swarm.eliminated": c["eliminated"] / rounds,
        "swarm.merged": c["merged"] / rounds,
        "swarm.self_s": layer_self("swarm"),
        "swarm.transfer_s": self_s["swarm.transfer"] / rounds,
        "baselines.sweeps": c["sweeps"] / rounds,
        "baselines.self_s": layer_self("baselines"),
        "harness.run_ms_p50": statistics.median(run_ms) if run_ms else 0.0,
        "harness.run_ms_tail": _quantile(run_ms, tail_percentile(len(run_ms))) if run_ms else 0.0,
        "harness.sample_s": self_s["harness.sample"] / rounds,
        "harness.serialize_s": self_s["harness.serialize"] / rounds,
        "cli.self_s": layer_self("cli"),
    }
