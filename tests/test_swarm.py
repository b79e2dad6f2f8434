"""Tests for the swarm dynamics: mass bookkeeping, stepping, merging, stopping."""

import numpy as np
import pytest
from per_run_oracle import reference_merge

from swarmdescent.linesearch import BacktrackParams
from swarmdescent.objectives import make_objective
from swarmdescent.swarm import (
    SBGDParams,
    StopReason,
    Swarm,
    _merge_agents,
    _run_argmin,
    relative_heights,
    run_sbgd,
    sbgd_iteration,
    transfer_mass,
)

QUAD1 = make_objective("quadratic", 1)


class TestRelativeHeights:
    def test_spread_heights(self):
        eta = relative_heights([1.0, 2.0, 3.0])
        assert eta[0] == 0.0
        assert eta[1] == pytest.approx(0.5, abs=1e-9)
        assert eta[2] == pytest.approx(1.0, abs=1e-9)
        assert np.all(eta < 1.0)

    def test_flat_heights(self):
        assert np.array_equal(relative_heights([2.0, 2.0, 2.0]), [0.0, 0.0, 0.0])

    def test_single_agent(self):
        assert np.array_equal(relative_heights([5.0]), [0.0])

    def test_argmin_is_exactly_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = rng.normal(size=rng.integers(1, 12))
            eta = relative_heights(f)
            assert eta[np.argmin(f)] == 0.0
            assert np.all((eta >= 0.0) & (eta <= 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_heights([])
        with pytest.raises(ValueError):
            relative_heights([[1.0, 2.0]])
        with pytest.raises(ValueError):
            relative_heights([1.0], eps=0.0)


class TestTransferMass:
    def test_linear_transition(self):
        out = transfer_mass([1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 1.0], 1.0, 0)
        assert out == pytest.approx([5 / 6, 1 / 6, 0.0], abs=1e-15)

    def test_quadratic_transition(self):
        out = transfer_mass([1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 1.0], 2.0, 0)
        assert out == pytest.approx([0.75, 0.25, 0.0], abs=1e-15)

    def test_lone_agent_keeps_everything(self):
        assert np.array_equal(transfer_mass([1.0], [0.0], 3.0, 0), [1.0])

    def test_explicit_total_folds_in_recovered_mass(self):
        # Mass reclaimed from eliminated agents enters through `total` and
        # lands on the minimizer.
        out = transfer_mass([0.5, 0.3], [0.0, 0.5], 1.0, 0, total=1.0)
        assert out[1] == 0.3 * 0.5
        assert out[0] == 1.0 - out[1]

    def test_conservation_and_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 15))
            m = rng.uniform(0.01, 1.0, n)
            m /= m.sum()
            eta = rng.uniform(0.0, 1.0, n)
            i_min = int(rng.integers(n))
            eta[i_min] = 0.0
            p = float(rng.uniform(0.2, 4.0))
            out = transfer_mass(m, eta, p, i_min)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert out[i_min] >= m[i_min]
            others = np.arange(n) != i_min
            assert np.all(out[others] <= m[others])
            assert np.all(out >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="relative height 0"):
            transfer_mass([0.5, 0.5], [0.1, 0.9], 1.0, 0)
        with pytest.raises(ValueError, match="out of range"):
            transfer_mass([1.0], [0.0], 1.0, 1)
        with pytest.raises(ValueError, match="p must be positive"):
            transfer_mass([1.0], [0.0], 0.0, 0)
        with pytest.raises(ValueError):
            transfer_mass([0.5, 0.5], [0.0], 1.0, 0)


class TestIteration:
    def test_single_agent_reduces_to_plain_backtracking(self):
        swarm = Swarm.from_positions([[1.0]])
        out, residual, stats = sbgd_iteration(swarm, QUAD1, SBGDParams())
        # Full relative mass, so c = lam = 0.2 and the quadratic accepts h = 1.
        assert stats.effective_descent[0] == 0.2
        assert stats.step_sizes[0] == 1.0
        assert np.array_equal(out.positions, [[0.0]])
        assert residual == 1.0
        assert out.masses[0] == 1.0

    def test_mass_composition_matches_the_pieces(self):
        # Three equal agents at 1, 2, 3 on the 1-D quadratic: the post-transition
        # masses must equal transfer_mass applied to relative_heights of the
        # heights [0.5, 2, 4.5], and the minimizer ends up heaviest.
        params = SBGDParams(p=1.0)
        swarm = Swarm.from_positions([[1.0], [2.0], [3.0]])
        _, _, stats = sbgd_iteration(swarm, QUAD1, params)
        f = np.array([0.5, 2.0, 4.5])
        m_new = transfer_mass(
            np.full(3, 1 / 3), relative_heights(f, params.eps_eta), 1.0, 0, total=1.0
        )
        expected_coeff = 0.2 * (m_new / m_new.max()) ** 1.0
        assert int(np.argmax(m_new)) == 0
        assert expected_coeff[0] == 0.2
        assert np.array_equal(stats.effective_descent, expected_coeff)

    def test_close_agents_merge_to_the_lower_one(self):
        # Both agents step straight to 0 and land within tolmerge: one merged
        # agent survives, carrying the whole swarm mass.
        swarm = Swarm.from_positions([[0.5], [0.50005]])
        out, _, stats = sbgd_iteration(swarm, QUAD1, SBGDParams())
        assert stats.merged == 1
        assert out.size == 1
        assert out.positions[0, 0] == 0.0
        assert out.masses[0] == pytest.approx(1.0, abs=1e-12)

    def test_light_agents_are_eliminated_against_initial_count(self):
        # Threshold is tolm / N0 = 1e-4 / 4; the 1e-5 agent goes, the rest
        # keep stepping (h0 = 0.3 keeps them apart, so no merge confusion).
        params = SBGDParams(p=1.0, backtrack=BacktrackParams(h0=0.3))
        swarm = Swarm.from_positions(
            [[0.0], [0.5], [1.0], [2.0]], masses=[0.5, 0.3, 0.2 - 1e-5, 1e-5]
        )
        out, _, stats = sbgd_iteration(swarm, QUAD1, params)
        assert stats.eliminated == 1
        assert stats.merged == 0
        assert out.size == 3
        assert abs(out.total_mass - 1.0) <= 1e-12
        assert out.initial_count == 4

    def test_minimizer_survives_elimination_even_at_tiny_mass(self):
        swarm = Swarm.from_positions(
            [[0.0], [3.0]], masses=[1e-6, 1.0 - 1e-6], initial_count=4
        )
        out, _, stats = sbgd_iteration(swarm, QUAD1, SBGDParams())
        assert stats.eliminated == 0
        assert abs(out.total_mass - 1.0) <= 1e-12


class TestRunSBGD:
    def test_convex_swarm_collapses_to_the_minimum(self):
        obj = make_objective("quadratic", 2)
        rng = np.random.default_rng(9)
        result = run_sbgd(obj, rng.uniform(-3.0, 3.0, (5, 2)), SBGDParams())
        assert result.stop_reason is StopReason.RESIDUAL
        assert np.all(np.abs(result.x_sol) < 1e-4)
        assert result.f_sol < 1e-6
        assert result.f_sol == obj.evaluate(result.x_sol)

    def test_stop_residual_and_iteration_count(self):
        result = run_sbgd(QUAD1, [[1.0]], SBGDParams())
        # Step 1 jumps to the minimum (residual 1), step 2 does not move.
        assert result.stop_reason is StopReason.RESIDUAL
        assert result.iterations == 2
        assert result.x_sol[0] == 0.0

    def test_history_residuals_are_floats_as_from_an_unlabelled_swarm(self):
        obj = make_objective("ackley", 2)
        x0 = np.random.default_rng(4).uniform(-3.0, 3.0, (6, 2))
        history = run_sbgd(obj, x0, SBGDParams(), keep_history=True).history
        assert history and all(type(s.residual) is float for s in history)
        _, residual, stats = sbgd_iteration(Swarm.from_positions(x0), obj, SBGDParams())
        assert type(residual) is float and type(stats.residual) is float
        assert stats.residual == history[0].residual
        # A labelled swarm reports one residual per run.
        labelled = Swarm(np.concatenate([x0, x0]), np.full(12, 1 / 6), initial_count=6,
                         runs=np.repeat([0, 3], 6))
        _, residual, _ = sbgd_iteration(labelled, obj, SBGDParams())
        assert residual.shape == (2,) and np.all(residual == history[0].residual)

    def test_stop_max_iters(self):
        result = run_sbgd(QUAD1, [[1.0]], SBGDParams(max_iters=1))
        assert result.stop_reason is StopReason.MAX_ITERS
        assert result.iterations == 1

    def test_stop_single_stalled_agent(self):
        # Next to the Ackley cone tip every backtracking rung overshoots, the
        # lone agent takes a zero step, and the run reports the stall.
        obj = make_objective("ackley", 1)
        result = run_sbgd(obj, [[2e-15]], SBGDParams())
        assert result.stop_reason is StopReason.SINGLE_STALLED_AGENT
        assert result.iterations == 1
        assert result.x_sol[0] == 2e-15

    def test_flat_basin_lands_in_the_global_box(self):
        # N = 30 agents from the left half-box reliably cross over to the
        # global minimizer near 1.5355 under the p = 2 dynamics.
        obj = make_objective("flatbasin1d")
        params = SBGDParams(p=2.0)
        rng = np.random.default_rng(27)
        for _ in range(10):
            result = run_sbgd(obj, rng.uniform(-3.0, -1.0, (30, 1)), params)
            assert abs(result.x_sol[0] - obj.minimizer[0]) <= 0.25

    def test_history_invariants_over_random_runs(self):
        # Mass conservation, a non-increasing minimizer track, a non-growing
        # crowd, and Armijo descent exactly as evaluated, on every iteration
        # of a mix of landscapes.
        rng = np.random.default_rng(33)
        objs = [
            make_objective("rastrigin1d"),
            make_objective("flatbasin1d"),
            make_objective("dropwave", 2),
        ]
        for _ in range(20):
            obj = objs[rng.integers(len(objs))]
            n = int(rng.integers(2, 9))
            x0 = rng.uniform(-3.0, 3.0, (n, obj.dimension))
            params = SBGDParams(p=float(rng.uniform(0.5, 3.0)), max_iters=60)
            result = run_sbgd(obj, x0, params, keep_history=True)
            assert result.history
            best = np.inf
            count = n
            for stats in result.history:
                assert abs(stats.masses.sum() - 1.0) <= 1e-12
                track = stats.heights.min()
                assert track <= best
                best = track
                assert stats.positions.shape[0] <= count
                count = stats.positions.shape[0]
                stepped = stats.step_sizes > 0.0
                lhs = stats.heights_after_step[stepped]
                rhs = (
                    stats.heights_before[stepped]
                    - stats.effective_descent[stepped]
                    * stats.step_sizes[stepped]
                    * stats.grad_sq_norms[stepped]
                )
                assert np.all(lhs <= rhs)

    def test_history_off_by_default(self):
        assert run_sbgd(QUAD1, [[1.0]], SBGDParams()).history is None

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            run_sbgd(make_objective("quadratic", 2), [[1.0]], SBGDParams())


class TestValidation:
    def test_swarm_shapes(self):
        with pytest.raises(ValueError):
            Swarm.from_positions(np.zeros((0, 1)))
        with pytest.raises(ValueError):
            Swarm.from_positions(np.zeros(3))
        with pytest.raises(ValueError):
            Swarm.from_positions([[1.0], [2.0]], masses=[1.0])
        with pytest.raises(ValueError):
            Swarm.from_positions([[1.0]], masses=[-0.5])

    def test_params(self):
        with pytest.raises(ValueError, match="p must be positive"):
            SBGDParams(p=0.0)
        with pytest.raises(ValueError, match="tolm"):
            SBGDParams(tolm=-1.0)
        with pytest.raises(ValueError, match="eps_eta"):
            SBGDParams(eps_eta=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            SBGDParams(max_iters=0)

    def test_q_single_source_of_truth(self):
        params = SBGDParams(backtrack=BacktrackParams(q=2.0))
        assert params.q == 2.0


def _merge_inputs(kind, seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 120)), int(rng.choice([1, 2, 20]))
    if kind == "clustered":
        centers = rng.uniform(-3.0, 3.0, (3, d))
        pos = centers[rng.integers(0, 3, n)] + rng.normal(0.0, 1e-3, (n, d))
    elif kind == "boundary":
        # Neighbours tolmerge = 1e-3 apart, up to rounding: right at the threshold.
        pos = np.zeros((n, d))
        pos[:, 0] = 1e-3 * np.arange(n)
    elif kind == "underflow":
        # Distinct first coordinates, gaps whose squares underflow: every
        # norm reads 0 though the first coordinates differ by more than tol.
        pos = 1e-170 * rng.integers(0, 3, (n, d))
        pos[:, 0] = 1e-170 * rng.permutation(n)
    else:
        pos = rng.uniform(-3.0, 3.0, (n, d))
    if kind in ("nan", "inf"):
        bad = rng.random((n, d)) < 0.3
        pos[bad] = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf], bad.sum())
        pos[: n // 2] = pos[0]
    masses = rng.uniform(0.1, 1.0, n)
    heights = rng.normal(0.0, 1.0, n)
    return pos, masses, heights


@pytest.mark.parametrize("tol", [0.0, 1e-200, 1e-3, 0.5, np.inf])
@pytest.mark.parametrize("kind", ["clustered", "random", "boundary", "underflow", "nan", "inf"])
def test_merge_matches_greedy_loop(kind, tol):
    for seed in range(20):
        pos, masses, heights = _merge_inputs(kind, seed)
        with np.errstate(invalid="ignore"):  # inf - inf between infinite positions
            got = _merge_agents(pos, masses, heights, tol)
            want = reference_merge(pos, masses, heights, tol)
        assert got[3] == want[3]
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b, equal_nan=True)


def test_run_argmin_picks_what_np_argmin_picks_in_each_run():
    # Ties go to the first index, and a NaN, when a run has one, beats every number.
    rng = np.random.default_rng(8)
    for _ in range(300):
        counts = rng.integers(1, 6, rng.integers(1, 6))
        values = rng.choice([0.0, 1.0, -1.0, np.nan, np.inf, -np.inf], counts.sum())
        bounds = np.concatenate(([0], np.cumsum(counts)))
        want = [a + np.argmin(values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(_run_argmin(values, bounds), want)
