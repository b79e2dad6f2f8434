"""Tests for the non-communicating baselines: GD(h), GD(BT), and Adam."""

import numpy as np
import pytest

from swarmdescent.baselines import BaselineMethod, BaselineParams, run_baseline, run_baseline_batch
from swarmdescent.linesearch import BacktrackParams
from swarmdescent.objectives import make_objective
from swarmdescent.swarm import SBGDParams, StopReason, run_sbgd

QUAD1 = make_objective("quadratic", 1)
FLAT = make_objective("flatbasin1d")


def _params(method, **kw):
    return BaselineParams(method=method, **kw)


class TestFixedStep:
    def test_contraction_map_first_iterate(self):
        result = run_baseline(
            QUAD1, [[1.0]], _params(BaselineMethod.GD_FIXED, h=0.8, max_iters=1)
        )
        assert result.x_sol[0] == 1.0 - 0.8
        assert result.stop_reason is StopReason.MAX_ITERS

    def test_converges_geometrically(self):
        result = run_baseline(QUAD1, [[1.0]], _params(BaselineMethod.GD_FIXED, h=0.8))
        assert result.stop_reason is StopReason.RESIDUAL
        assert abs(result.x_sol[0]) < 1e-4

    def test_per_agent_retirement_budget(self):
        # Agent 0 (at 1e-6) retires after its first sweep; agent 1 halves
        # its distance each sweep and retires on sweep 15, so the run spends
        # 2 + 14 gradient evaluations and two final objective evaluations.
        result = run_baseline(
            QUAD1, [[1e-6], [2.0]], _params(BaselineMethod.GD_FIXED, h=0.5)
        )
        assert result.iterations == 15
        assert result.gradient_evals == 16
        assert result.objective_evals == 2
        assert result.x_sol[0] == 5e-7

    def test_divergence_is_contained(self):
        # h = 2.5 on the quadratic grows the error by 1.5x every sweep until
        # the position overflows and goes nan; such an agent retires quietly
        # and must never be elected over a finite one.
        result = run_baseline(
            QUAD1, [[1.0], [0.0]], _params(BaselineMethod.GD_FIXED, h=2.5, max_iters=2000)
        )
        assert result.x_sol[0] == 0.0
        assert result.f_sol == 0.0
        lone = run_baseline(
            QUAD1, [[1.0]], _params(BaselineMethod.GD_FIXED, h=2.5, max_iters=2000)
        )
        assert np.isnan(lone.f_sol)
        assert lone.stop_reason is StopReason.RESIDUAL

    def test_flat_basin_from_left_half_always_fails(self):
        # The fixed step is far above the local 2/L stability bound, so the
        # agents blow up (to nan); either way no run ends in the success box.
        rng = np.random.default_rng(15)
        params = _params(BaselineMethod.GD_FIXED, h=0.8)
        for _ in range(5):
            result = run_baseline(FLAT, rng.uniform(-3.0, -1.0, (30, 1)), params)
            assert not (abs(result.x_sol[0] - FLAT.minimizer[0]) <= 0.25)


class TestAdam:
    def test_first_step_matches_reference_recursion(self):
        result = run_baseline(
            QUAD1, [[1.0]], _params(BaselineMethod.ADAM, h=0.1, max_iters=1)
        )
        b1, b2, eps = 0.9, 0.999, 1e-8
        g = 1.0
        m_hat = ((1.0 - b1) * g) / (1.0 - b1)
        v_hat = ((1.0 - b2) * g * g) / (1.0 - b2)
        expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + eps)
        assert result.x_sol[0] == expected
        # Bias correction makes the first update magnitude ~ the step scale.
        assert abs(result.x_sol[0] - 1.0) == pytest.approx(0.1, abs=1e-6)

    def test_terminates_outside_global_basin_on_flat_basin(self):
        result = run_baseline(FLAT, [[-2.0]], _params(BaselineMethod.ADAM, h=0.1))
        assert abs(result.x_sol[0] - FLAT.minimizer[0]) > 0.25

    def test_quadratic_run_reaches_minimum(self):
        # Adam's oscillating updates meet the residual threshold a bit away
        # from the exact minimum, but well inside its neighborhood.
        result = run_baseline(QUAD1, [[2.0]], _params(BaselineMethod.ADAM, h=0.1))
        assert result.stop_reason is StopReason.RESIDUAL
        assert abs(result.x_sol[0]) < 0.1


class TestBacktracking:
    def test_gd08_also_fails_from_minus_two(self):
        result = run_baseline(FLAT, [[-2.0]], _params(BaselineMethod.GD_FIXED, h=0.8))
        assert not (abs(result.x_sol[0] - FLAT.minimizer[0]) <= 0.25)

    def test_objective_never_increases_along_sweeps(self):
        params = _params(BaselineMethod.GD_BACKTRACK)
        result = run_baseline(FLAT, [[-2.5]], params, keep_history=True)
        values = [FLAT.evaluate_many(X)[0] for X in result.history]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_single_agent_is_bitwise_identical_to_the_swarm(self):
        # With one agent the swarm carries full relative mass and its step
        # rule collapses to plain backtracking gradient descent; both code
        # paths must then produce the same trajectory bit for bit.
        rng = np.random.default_rng(19)
        objs = [
            make_objective("quadratic", 2),
            make_objective("rastrigin1d"),
            FLAT,
            make_objective("ackley", 2),
        ]
        for _ in range(40):
            obj = objs[rng.integers(len(objs))]
            x0 = rng.uniform(-3.0, 3.0, (1, obj.dimension))
            bt = BacktrackParams(
                lam=float(rng.uniform(0.05, 0.95)),
                gamma=float(rng.uniform(0.5, 0.95)),
                h0=float(rng.uniform(0.5, 2.0)),
            )
            swarm = run_sbgd(
                obj, x0, SBGDParams(backtrack=bt, max_iters=300), keep_history=True
            )
            base = run_baseline(
                obj,
                x0,
                _params(BaselineMethod.GD_BACKTRACK, backtrack=bt, max_iters=300),
                keep_history=True,
            )
            assert np.array_equal(swarm.x_sol, base.x_sol)
            assert swarm.f_sol == base.f_sol
            assert swarm.iterations == base.iterations
            assert len(swarm.history) == len(base.history)
            for stats, X in zip(swarm.history, base.history):
                assert np.array_equal(stats.positions[0], X[0])


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="method"):
            BaselineParams(method="gd")
        with pytest.raises(ValueError, match="h must be positive"):
            _params(BaselineMethod.GD_FIXED, h=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            _params(BaselineMethod.GD_FIXED, max_iters=0)
        for tolres in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="tolres must be non-negative"):
                _params(BaselineMethod.GD_BACKTRACK, tolres=tolres)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            run_baseline(
                make_objective("quadratic", 2), [[1.0]], _params(BaselineMethod.GD_FIXED)
            )

    @pytest.mark.parametrize("method", list(BaselineMethod))
    @pytest.mark.parametrize("starts", [[[np.nan]], [[np.inf], [0.5]], [[0.5], [-np.inf]]])
    def test_rejects_non_finite_starts(self, method, starts):
        # A NaN start used to run GD(BT) to a NaN "solution" reported as converged.
        obj = make_objective("ackley1d")
        with pytest.raises(ValueError, match="init_positions must be finite"):
            run_baseline(obj, starts, _params(method))
        with pytest.raises(ValueError, match="init_positions must be finite"):
            run_baseline_batch(obj, [[[1.0]] * len(starts), starts], _params(method))

    def test_history_off_by_default(self):
        result = run_baseline(QUAD1, [[1.0]], _params(BaselineMethod.GD_FIXED, h=0.5))
        assert result.history is None
