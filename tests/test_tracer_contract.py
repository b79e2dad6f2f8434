"""The benchmark's tracer must still find the package functions it wraps.

``perfbench/spans.py`` times each layer by replacing module-level names
(``swarm.sbgd_iteration``, ``swarm.transfer_mass``, ``swarm.backtrack_batch``,
``baselines.backtrack_batch`` and others) while a traced round runs.  A renamed
or bypassed name leaves its metrics at 0 without any error, so a tiny traced
``bench`` run of the swarm and of GD(BT) must report work in each of them.
"""

import importlib.util
from pathlib import Path

import swarmdescent
from swarmdescent import cli  # noqa: F401  (the tracer reads swarmdescent.cli)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bench_reports_every_swarm_layer(capsys):
    spans = _spans_module()
    tracer = spans.Tracer()
    with tracer.patched(swarmdescent) as traced_main:
        rc = traced_main(["bench", "--preset", "ackley2d-b10-sbgd11-n100", "--m", "2", "--n", "30",
                          "--jobs", "1"])
    capsys.readouterr()
    assert rc == 0
    metrics = spans.layer_metrics(tracer, 1)
    for name in ("swarm.iterations", "swarm.eliminated", "swarm.transfer_s", "linesearch.calls"):
        assert metrics[name] > 0, name
    # Leaving the block restores every wrapped name.
    assert swarmdescent.swarm.sbgd_iteration.__module__ == "swarmdescent.swarm"
    assert not hasattr(swarmdescent.swarm.sbgd_iteration, "__wrapped__")


def test_traced_gdbt_bench_reports_its_ladder_work(capsys):
    # GD(BT) reaches the ladder through baselines.backtrack_batch, whose
    # (h, f_new, n_evals) result the tracer unpacks.
    spans = _spans_module()
    tracer = spans.Tracer()
    with tracer.patched(swarmdescent) as traced_main:
        rc = traced_main(["bench", "--preset", "ackley2d-b10-gdbt-n100", "--m", "2", "--n", "30",
                          "--jobs", "1"])
    capsys.readouterr()
    assert rc == 0
    metrics = spans.layer_metrics(tracer, 1)
    for name in ("linesearch.calls", "linesearch.evals_per_agent_step", "objectives.eval_calls"):
        assert metrics[name] > 0, name
