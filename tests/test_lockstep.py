"""Run independence of the lockstep run loop.

Every run of a batch must come out bit for bit as it does alone and as the
per-run reference loops in ``per_run_oracle`` produce it, whatever the
other runs of the batch do: merge, lose agents, stall, diverge or run out
of iterations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_run_oracle import oracle_baseline, oracle_sbgd

from swarmdescent.baselines import BaselineMethod, BaselineParams, run_baseline, run_baseline_batch
from swarmdescent.harness import ExperimentConfig, run_experiment, sample_initial_positions
from swarmdescent.linesearch import BacktrackParams
from swarmdescent.objectives import make_objective
from swarmdescent.swarm import SBGDParams, StopReason, run_sbgd, run_sbgd_batch

_OBJECTIVES_BY_DIM = {
    1: ("flatbasin1d", "rastrigin1d", "ackley1d", "quadratic"),
    2: ("ackley", "dropwave", "rastrigin", "rosenbrock2d"),
    20: ("ackley", "rastrigin", "quadratic"),
}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _assert_same(got, want):
    assert np.array_equal(_bits(got.x_sol), _bits(want.x_sol))
    assert _bits(got.f_sol) == _bits(want.f_sol)
    assert (got.iterations, got.objective_evals, got.gradient_evals, got.stop_reason) == (
        want.iterations, want.objective_evals, want.gradient_evals, want.stop_reason)


@st.composite
def _starts(draw, n_max):
    """An objective and ``(R, N, d)`` starts mixing spread, mirrored, clustered and near-minimizer runs."""
    d = draw(st.sampled_from(sorted(_OBJECTIVES_BY_DIM)))
    obj = make_objective(draw(st.sampled_from(_OBJECTIVES_BY_DIM[d])), d)
    n_runs = draw(st.integers(1, 12))
    n = draw(st.integers(1, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = []
    for _ in range(n_runs):
        kind = draw(st.sampled_from(["spread", "mirrored", "clustered", "tip"]))
        if kind == "spread":
            runs.append(rng.uniform(-3.0, 3.0, (n, d)))
        elif kind == "mirrored":
            # Agents in pairs x, -x: on the even objectives their heights tie
            # exactly, so the first of the lowest pair must be the minimizer.
            half = rng.uniform(-3.0, 3.0, ((n + 1) // 2, d))
            runs.append(np.concatenate([half, -half])[:n])
        elif kind == "clustered":
            # Within tolmerge of each other: merges, and light agents to eliminate.
            runs.append(rng.uniform(-3.0, 3.0, d) + rng.normal(0.0, 3e-4, (n, d)))
        else:
            # Next to the minimizer, where Ackley's cone tip stalls a lone agent.
            runs.append(obj.minimizer + rng.uniform(-1e-15, 1e-15, (n, d)))
    return obj, np.stack(runs)


_SBGD_PARAMS = st.builds(
    lambda p, tolm, tolmerge, max_iters, lam: SBGDParams(
        p=p, tolm=tolm, tolmerge=tolmerge, max_iters=max_iters, backtrack=BacktrackParams(lam=lam)),
    p=st.floats(0.5, 3.0),
    tolm=st.sampled_from([1e-4, 1e-2]),
    tolmerge=st.sampled_from([0.0, 1e-3, 0.5, np.inf]),
    max_iters=st.integers(1, 30),
    lam=st.floats(0.05, 0.9),
)


@settings(deadline=None, max_examples=60)
@given(_starts(60), _SBGD_PARAMS)
def test_swarm_runs_are_independent_of_their_batch(case, params):
    obj, starts = case
    batch = run_sbgd_batch(obj, starts, params)
    assert len(batch) == starts.shape[0]
    for x0, got in zip(starts, batch):
        _assert_same(got, run_sbgd(obj, x0, params))
        _assert_same(got, oracle_sbgd(obj, x0, params))


_BASELINE_PARAMS = st.one_of(
    st.builds(lambda h, it: BaselineParams(method=BaselineMethod.GD_FIXED, h=h, max_iters=it),
              st.sampled_from([0.1, 0.8]), st.integers(1, 200)),
    st.builds(lambda lam, it: BaselineParams(method=BaselineMethod.GD_BACKTRACK,
                                             backtrack=BacktrackParams(lam=lam), max_iters=it),
              st.floats(0.05, 0.9), st.integers(1, 60)),
    st.builds(lambda h, it: BaselineParams(method=BaselineMethod.ADAM, h=h, max_iters=it),
              st.sampled_from([0.01, 0.1]), st.integers(1, 200)),
)


@settings(deadline=None, max_examples=60)
@given(_starts(30), _BASELINE_PARAMS)
def test_baseline_runs_are_independent_of_their_batch(case, params):
    obj, starts = case
    batch = run_baseline_batch(obj, starts, params)
    assert len(batch) == starts.shape[0]
    for x0, got in zip(starts, batch):
        _assert_same(got, run_baseline(obj, x0, params))
        _assert_same(got, oracle_baseline(obj, x0, params))


def test_diverging_fixed_step_keeps_its_nan_runs():
    # GD(0.8) blows up on the flat basin; the NaN solutions of those runs
    # must come out of a batch as they do alone, beside a finite run.
    obj = make_objective("flatbasin1d")
    params = BaselineParams(method=BaselineMethod.GD_FIXED, h=0.8)
    rng = np.random.default_rng(3)
    starts = np.stack([rng.uniform(-3.0, -1.0, (30, 1)) for _ in range(4)]
                      + [np.repeat(obj.minimizer[None], 30, axis=0)])
    batch = run_baseline_batch(obj, starts, params)
    assert all(np.isnan(r.f_sol) for r in batch[:-1])
    assert batch[-1].f_sol == obj.evaluate(batch[-1].x_sol)
    for x0, got in zip(starts, batch):
        _assert_same(got, oracle_baseline(obj, x0, params))


def test_one_batch_mixes_every_stop_reason():
    # Lone agents: one beside Ackley's cone tip stalls, one on the minimizer
    # converges, one far away runs out of iterations.
    obj = make_objective("ackley", 2)
    starts = np.array([[[2e-15, 0.0]], [[0.0, 0.0]], [[2.5, 2.5]]])
    params = SBGDParams(max_iters=5)
    batch = run_sbgd_batch(obj, starts, params)
    assert [r.stop_reason for r in batch] == [
        StopReason.SINGLE_STALLED_AGENT, StopReason.RESIDUAL, StopReason.MAX_ITERS]
    for x0, got in zip(starts, batch):
        _assert_same(got, oracle_sbgd(obj, x0, params))


def test_eliminating_and_merging_runs_share_a_batch():
    obj = make_objective("ackley", 2)
    rng = np.random.default_rng(5)
    spread = rng.uniform(2.0, 8.0, (20, 2))
    cluster = np.full((20, 2), 0.2) + rng.normal(0.0, 3e-4, (20, 2))
    starts = np.stack([spread, cluster, spread[::-1]])
    batch = run_sbgd_batch(obj, starts, SBGDParams())
    for x0, got in zip(starts, batch):
        alone = run_sbgd(obj, x0, SBGDParams(), keep_history=True)
        assert sum(s.eliminated for s in alone.history) > 0
        _assert_same(got, alone)
        _assert_same(got, oracle_sbgd(obj, x0, SBGDParams()))
    merged = run_sbgd(obj, cluster, SBGDParams(), keep_history=True).history
    assert sum(s.merged for s in merged) > 0


@pytest.mark.parametrize("jobs, n_runs", [(2, 5), (3, 7)])
@pytest.mark.parametrize(
    "method",
    [SBGDParams(), BaselineParams(method=BaselineMethod.GD_BACKTRACK)],
    ids=["sbgd", "gdbt"],
)
def test_pool_shards_match_one_block_and_the_per_run_loop(jobs, n_runs, method):
    cfg = ExperimentConfig(objective=make_objective("dropwave", 2), method=method,
                           n_agents=12, n_runs=n_runs, seed=9)
    pooled = run_experiment(cfg, jobs=jobs).per_run
    whole = run_experiment(cfg, jobs=1).per_run
    oracle = oracle_sbgd if isinstance(method, SBGDParams) else oracle_baseline
    for k, (got, want) in enumerate(zip(pooled, whole)):
        _assert_same(got, want)
        _assert_same(got, oracle(cfg.objective, sample_initial_positions(cfg, k), method))
