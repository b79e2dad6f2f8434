"""Acceptance checks against the published benchmark numbers.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line; run this module with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they complete.  Success-rate bounds are binomial
tolerance bands around the published table values at the desk-scale run
counts used here; all batches are seeded, so every number below is
reproducible bit for bit.
"""

import json
import time

import numpy as np
from per_run_oracle import one_row_backtrack

from swarmdescent.baselines import BaselineMethod, BaselineParams, run_baseline
from swarmdescent.cli import main as cli_main
from swarmdescent.harness import (
    ExperimentConfig,
    precondition_and_correct,
    run_experiment,
)
from swarmdescent.linesearch import BacktrackParams
from swarmdescent.objectives import make_objective
from swarmdescent.swarm import SBGDParams, run_sbgd

SEED = 42

VANILLA = SBGDParams(p=1.0, q=1.0, backtrack=BacktrackParams(lam=0.2, gamma=0.9, h0=1.0))
HEAVY = SBGDParams(p=2.0, q=1.0, backtrack=BacktrackParams(lam=0.2, gamma=0.9, h0=1.0))
GDBT = BaselineParams(method=BaselineMethod.GD_BACKTRACK, backtrack=BacktrackParams(lam=0.2))
GDBT_03 = BaselineParams(method=BaselineMethod.GD_BACKTRACK, backtrack=BacktrackParams(lam=0.3))


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _bench(objective, method, n_agents, n_runs, lo=-3.0, hi=3.0):
    cfg = ExperimentConfig(
        objective=objective,
        method=method,
        n_agents=n_agents,
        n_runs=n_runs,
        seed=SEED,
        init_lo=(lo,),
        init_hi=(hi,),
    )
    return run_experiment(cfg)


def test_criterion_1_flat_basin_method_comparison():
    # Published table: SBGD_21 100%, GD(BT) 21.8%, GD(0.8) 0%, Adam(0.1) 0%
    # at N = 30 from U[-3, -1].
    t0 = time.perf_counter()
    obj = make_objective("flatbasin1d")
    swarm = _bench(obj, HEAVY, 30, 200, -3.0, -1.0).success_rate
    bt = _bench(obj, GDBT, 30, 200, -3.0, -1.0).success_rate
    gd = _bench(obj, BaselineParams(method=BaselineMethod.GD_FIXED, h=0.8), 30, 200, -3.0, -1.0).success_rate
    adam = _bench(obj, BaselineParams(method=BaselineMethod.ADAM, h=0.1), 30, 200, -3.0, -1.0).success_rate
    elapsed = time.perf_counter() - t0
    ok = swarm >= 0.97 and 0.10 <= bt <= 0.35 and gd <= 0.02 and adam <= 0.02 and elapsed <= 120
    _verdict(
        "criterion 1 (flat-basin table)",
        ok,
        f"sbgd21={swarm:.3f} (>=0.97) gdbt={bt:.3f} (in [0.10,0.35]) "
        f"gd08={gd:.3f} (<=0.02) adam={adam:.3f} (<=0.02) [{elapsed:.0f}s/120s]",
    )


def test_criterion_2_one_dimensional_tables():
    # Published table: 100% success with ~1e-9/1e-10 squared error for the
    # 1-D Ackley and Rastrigin benchmarks at N = 20.
    t0 = time.perf_counter()
    parts = []
    ok = True
    for name in ("ackley1d", "rastrigin1d"):
        rep = _bench(make_objective(name), VANILLA, 20, 200)
        ok = ok and rep.success_rate >= 0.99 and rep.mean_sq_error <= 1e-6
        parts.append(f"{name}: rate={rep.success_rate:.3f} mse={rep.mean_sq_error:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 120
    _verdict(
        "criterion 2 (1-D tables)",
        ok,
        "; ".join(parts) + f" (rate>=0.99, mse<=1e-6) [{elapsed:.0f}s/120s]",
    )


def test_criterion_3_shifted_2d_ackley():
    # Published table row B = 10, N = 100: swarm 98.4% vs backtracking 0.6%.
    t0 = time.perf_counter()
    obj = make_objective("ackley", 2, shift_b=10.0)
    swarm = _bench(obj, VANILLA, 100, 200).success_rate
    bt = _bench(obj, GDBT_03, 100, 200).success_rate
    elapsed = time.perf_counter() - t0
    ok = swarm >= 0.93 and bt <= 0.05 and elapsed <= 300
    _verdict(
        "criterion 3 (2-D Ackley, B=10)",
        ok,
        f"sbgd={swarm:.3f} (>=0.93) gdbt={bt:.3f} (<=0.05) [{elapsed:.0f}s/300s]",
    )


def test_criterion_4_drop_wave():
    # Published table at N = 30, lambda = 0.3: swarm 100% vs backtracking 35.5%.
    t0 = time.perf_counter()
    obj = make_objective("dropwave", 2)
    sbgd = SBGDParams(p=1.0, backtrack=BacktrackParams(lam=0.3))
    swarm = _bench(obj, sbgd, 30, 200).success_rate
    bt = _bench(obj, GDBT_03, 30, 200).success_rate
    elapsed = time.perf_counter() - t0
    ok = swarm >= 0.97 and 0.20 <= bt <= 0.50 and elapsed <= 300
    _verdict(
        "criterion 4 (2-D drop-wave)",
        ok,
        f"sbgd={swarm:.3f} (>=0.97) gdbt={bt:.3f} (in [0.20,0.50]) [{elapsed:.0f}s/300s]",
    )


def test_criterion_5_preconditioned_20d_ackley():
    # Averaging the per-run solutions and correcting by plain descent lands
    # on the 20-D Ackley minimizer to machine-level accuracy.
    t0 = time.perf_counter()
    obj = make_objective("ackley", 20)
    method = SBGDParams(p=2.0, q=1.0, backtrack=BacktrackParams(lam=0.2, gamma=0.9, h0=2.0))
    report = _bench(obj, method, 50, 50)
    corr = precondition_and_correct(report)
    elapsed = time.perf_counter() - t0
    ok = corr.err_inf <= 1e-6 and elapsed <= 600
    _verdict(
        "criterion 5 (20-D Ackley preconditioner)",
        ok,
        f"err_inf={corr.err_inf:.2e} (<=1e-6) after {corr.iterations} correction steps "
        f"[{elapsed:.0f}s/600s]",
    )


def test_criterion_6_contraction_rate_on_the_quadratic():
    # Single-agent descent on 1/2 x^2 obeys the linear convergence bound
    # F(X^n) <= (1 - 2*mu*gamma*lam*(1-lam)/L)^n F(X^0) with mu = L = 1,
    # as an exact floating-point inequality at every iteration.
    obj = make_objective("quadratic", 1)
    details = []
    ok = True
    for lam in (0.2, 0.5, 0.8):
        params = SBGDParams(backtrack=BacktrackParams(lam=lam, gamma=0.9, h0=1.0))
        result = run_sbgd(obj, [[3.0]], params, keep_history=True)
        rate = 1.0 - 2.0 * 0.9 * lam * (1.0 - lam)
        f0 = obj.evaluate([3.0])
        holds = all(
            stats.heights[0] <= rate ** (n + 1) * f0
            for n, stats in enumerate(result.history)
        )
        ok = ok and holds
        details.append(f"lam={lam}: rate={rate:.3f} n={result.iterations} holds={holds}")
    _verdict("criterion 6 (contraction rate)", ok, "; ".join(details))


def test_criterion_7_invariant_suite():
    # Six invariant families, 1000 random cases each.
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)

    # (a-c) run random swarms with history and harvest per-iteration facts:
    # mass conservation, Armijo descent as evaluated, and the minimizer track.
    objs = [
        make_objective("rastrigin1d"),
        make_objective("flatbasin1d"),
        make_objective("dropwave", 2),
        make_objective("ackley", 2),
    ]
    mass_checks = descent_checks = track_checks = 0
    while min(mass_checks, descent_checks, track_checks) < 1000:
        obj = objs[rng.integers(len(objs))]
        n = int(rng.integers(2, 9))
        x0 = rng.uniform(-3.0, 3.0, (n, obj.dimension))
        params = SBGDParams(p=float(rng.uniform(0.5, 3.0)), max_iters=50)
        result = run_sbgd(obj, x0, params, keep_history=True)
        best = np.inf
        for stats in result.history:
            assert abs(stats.masses.sum() - 1.0) <= 1e-12
            mass_checks += 1
            track = stats.heights.min()
            assert track <= best
            best = track
            track_checks += 1
            stepped = stats.step_sizes > 0.0
            lhs = stats.heights_after_step[stepped]
            rhs = (
                stats.heights_before[stepped]
                - stats.effective_descent[stepped]
                * stats.step_sizes[stepped]
                * stats.grad_sq_norms[stepped]
            )
            assert np.all(lhs <= rhs)
            descent_checks += int(np.count_nonzero(stepped))

    # (d) accepted steps on the quadratic never shrink past the ladder bound.
    for _ in range(1000):
        mu = float(rng.uniform(0.5, 4.0))
        quad = make_objective("quadratic", 1, mu=mu)
        x = np.array([float(rng.uniform(0.5, 3.0))])
        c = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.5, 0.95))
        params = BacktrackParams(lam=c, gamma=gamma, h0=float(rng.uniform(0.5, 3.0)))
        h, _, _ = one_row_backtrack(quad, x, quad.gradient(x), c, params, f_x=quad.evaluate(x))
        assert h > 0.0
        if h < params.h0:
            assert h >= (2.0 * gamma / mu) * (1.0 - c)

    # (e) one swarm agent and backtracking descent walk identical paths.
    pool = objs + [make_objective("quadratic", 3)]
    for _ in range(1000):
        obj = pool[rng.integers(len(pool))]
        x0 = rng.uniform(-3.0, 3.0, (1, obj.dimension))
        bt = BacktrackParams(
            lam=float(rng.uniform(0.05, 0.95)),
            gamma=float(rng.uniform(0.5, 0.95)),
            h0=float(rng.uniform(0.5, 2.0)),
        )
        swarm = run_sbgd(obj, x0, SBGDParams(backtrack=bt, max_iters=200), keep_history=True)
        base = run_baseline(
            obj,
            x0,
            BaselineParams(method=BaselineMethod.GD_BACKTRACK, backtrack=bt, max_iters=200),
            keep_history=True,
        )
        assert swarm.f_sol == base.f_sol
        assert swarm.iterations == base.iterations
        assert np.array_equal(swarm.x_sol, base.x_sol)
        assert len(swarm.history) == len(base.history)
        for stats, X in zip(swarm.history, base.history):
            assert np.array_equal(stats.positions[0], X[0])

    # (f) analytic gradients against central differences, off the cone tips.
    grad_pool = objs + [
        make_objective("quadratic", 2, mu=2.0),
        make_objective("rosenbrock2d"),
        make_objective("ackley", 5, shift_b=1.0),
        make_objective("rastrigin", 3, shift_b=0.5),
    ]
    checked = 0
    while checked < 1000:
        obj = grad_pool[rng.integers(len(grad_pool))]
        x = rng.uniform(-3.0, 3.0, obj.dimension)
        if np.linalg.norm(x - obj.minimizer) < 1e-3:
            continue
        g = obj.gradient(x)
        fd = np.empty_like(g)
        for i in range(obj.dimension):
            e = np.zeros(obj.dimension)
            e[i] = 1e-6
            fd[i] = (obj.evaluate(x + e) - obj.evaluate(x - e)) / 2e-6
        assert np.all(np.abs(g - fd) <= 1e-5 * (1.0 + np.abs(g)))
        checked += 1

    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 7 (invariant suite)",
        True,
        f"mass={mass_checks} armijo={descent_checks} track={track_checks} "
        f"step-bound=1000 parity=1000 gradients={checked} random cases hold "
        f"[{elapsed:.0f}s]",
    )


def test_criterion_8_preset_determinism(capsys):
    # Two executions of a shipped preset produce byte-identical JSON reports.
    argv = ["bench", "--preset", "flatbasin-sbgd21-n30"]
    rc1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    rc2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    ok = rc1 == 0 and rc2 == 0 and out1 == out2
    rate = json.loads(out1)["success_rate"]
    with capsys.disabled():
        _verdict(
            "criterion 8 (preset determinism)",
            ok and rate >= 0.97,
            f"byte-identical={out1 == out2} over {len(out1)} chars, success_rate={rate}",
        )


def test_20d_loss_ordering_remains_qualitative():
    # The full 20-D tables need m = 1000 runs at N up to 200; at desk scale
    # we keep the published qualitative ordering: the swarm's average final
    # loss stays below plain backtracking descent on the shifted Rastrigin.
    t0 = time.perf_counter()
    obj = make_objective("rastrigin", 20, shift_b=5.0)
    swarm_method = SBGDParams(
        p=2.0,
        q=1.0,
        backtrack=BacktrackParams(lam=0.8, gamma=0.5, h0=1.0),
        tolm=1e-3,
        tolmerge=1e-1,
        tolres=1e-2,
    )
    swarm_loss = _bench(obj, swarm_method, 50, 50).avg_loss
    bt_loss = _bench(obj, GDBT, 50, 50).avg_loss
    elapsed = time.perf_counter() - t0
    _verdict(
        "20-D qualitative check",
        swarm_loss <= bt_loss,
        f"sbgd21 avg_loss={swarm_loss:.2f} <= gdbt avg_loss={bt_loss:.2f} [{elapsed:.0f}s]",
    )
