"""Tests for the swarm dynamics: mass bookkeeping, stepping, merging, stopping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from per_run_oracle import reference_merge

from swarmdescent.linesearch import BacktrackParams
from swarmdescent.objectives import make_objective
from swarmdescent.swarm import (
    _GATHERED_RUNS,
    SBGDParams,
    StopReason,
    _merge_agents,
    _run_argmin,
    _run_sums,
    _close_pairs,
    _Swarm,
    relative_heights,
    run_sbgd,
    run_sbgd_batch,
    sbgd_iteration,
    transfer_mass,
)

QUAD1 = make_objective("quadratic", 1)
EPS = SBGDParams().eps_eta


def _one_run(n):
    """The run boundaries of a swarm holding one run of ``n`` agents."""
    return np.array([0, n])


def _eta(heights):
    """Relative heights of one run's heights at the default ``eps_eta``."""
    f = np.array(heights, dtype=float)
    return relative_heights(f, EPS, _one_run(f.size))


def _transfer(masses, eta, p, i_min, total=None):
    """One run's mass transition; ``total`` defaults to the sum of ``masses``."""
    m = np.array(masses, dtype=float)
    total = m.sum() if total is None else total
    return transfer_mass(m, np.array(eta, dtype=float), p, np.array([i_min]), np.array([total]),
                         _one_run(m.size))


def _swarm(positions, masses=None, obj=QUAD1):
    """A one-run swarm at ``positions``, with equal masses 1/n by default."""
    pos = np.array(positions, dtype=float)
    n = pos.shape[0]
    m = np.full(n, 1.0 / n) if masses is None else np.array(masses, dtype=float)
    return _Swarm(pos, m, obj.evaluate_many(pos), np.zeros(n, dtype=int))


class TestRelativeHeights:
    def test_spread_heights(self):
        eta = _eta([1.0, 2.0, 3.0])
        assert eta[0] == 0.0
        assert eta[1] == pytest.approx(0.5, abs=1e-9)
        assert eta[2] == pytest.approx(1.0, abs=1e-9)
        assert np.all(eta < 1.0)

    def test_flat_heights(self):
        assert np.array_equal(_eta([2.0, 2.0, 2.0]), [0.0, 0.0, 0.0])

    def test_single_agent(self):
        assert np.array_equal(_eta([5.0]), [0.0])

    def test_argmin_is_exactly_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = rng.normal(size=rng.integers(1, 12))
            eta = _eta(f)
            assert eta[np.argmin(f)] == 0.0
            assert np.all((eta >= 0.0) & (eta <= 1.0))


class TestTransferMass:
    def test_linear_transition(self):
        out = _transfer([1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 1.0], 1.0, 0)
        assert out == pytest.approx([5 / 6, 1 / 6, 0.0], abs=1e-15)

    def test_quadratic_transition(self):
        out = _transfer([1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 1.0], 2.0, 0)
        assert out == pytest.approx([0.75, 0.25, 0.0], abs=1e-15)

    def test_lone_agent_keeps_everything(self):
        assert np.array_equal(_transfer([1.0], [0.0], 3.0, 0), [1.0])

    def test_explicit_total_folds_in_recovered_mass(self):
        # Mass reclaimed from eliminated agents enters through `total` and
        # lands on the minimizer.
        out = _transfer([0.5, 0.3], [0.0, 0.5], 1.0, 0, total=1.0)
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
            out = _transfer(m, eta, p, i_min)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert out[i_min] >= m[i_min]
            others = np.arange(n) != i_min
            assert np.all(out[others] <= m[others])
            assert np.all(out >= 0.0)

    def test_validation(self):
        with pytest.raises(RuntimeError, match="relative height 0"):
            _transfer([0.5, 0.5], [0.1, 0.9], 1.0, 0)


class TestIteration:
    def test_single_agent_reduces_to_plain_backtracking(self):
        out, residual, stats = sbgd_iteration(_swarm([[1.0]]), QUAD1, SBGDParams(), 1)
        # Full relative mass, so c = lam = 0.2 and the quadratic accepts h = 1.
        assert stats.effective_descent[0] == 0.2
        assert stats.step_sizes[0] == 1.0
        assert np.array_equal(out.positions, [[0.0]])
        assert np.array_equal(residual, [1.0])
        assert out.masses[0] == 1.0

    def test_mass_composition_matches_the_pieces(self):
        # Three equal agents at 1, 2, 3 on the 1-D quadratic: the post-transition
        # masses must equal transfer_mass applied to relative_heights of the
        # heights [0.5, 2, 4.5], and the minimizer ends up heaviest.
        params = SBGDParams(p=1.0)
        _, _, stats = sbgd_iteration(_swarm([[1.0], [2.0], [3.0]]), QUAD1, params, 3)
        m_new = _transfer(np.full(3, 1 / 3), _eta([0.5, 2.0, 4.5]), 1.0, 0, total=1.0)
        expected_coeff = 0.2 * (m_new / m_new.max()) ** 1.0
        assert int(np.argmax(m_new)) == 0
        assert expected_coeff[0] == 0.2
        assert np.array_equal(stats.effective_descent, expected_coeff)

    def test_close_agents_merge_to_the_lower_one(self):
        # Both agents step straight to 0 and land within tolmerge: one merged
        # agent survives, carrying the whole swarm mass.
        out, _, stats = sbgd_iteration(_swarm([[0.5], [0.50005]]), QUAD1, SBGDParams(), 2)
        assert stats.merged == 1
        assert out.positions.shape == (1, 1)
        assert out.positions[0, 0] == 0.0
        assert out.masses[0] == pytest.approx(1.0, abs=1e-12)

    def test_light_agents_are_eliminated_against_initial_count(self):
        # Threshold is tolm / N0 = 1e-4 / 4; the 1e-5 agent goes, the rest
        # keep stepping (h0 = 0.3 keeps them apart, so no merge confusion).
        params = SBGDParams(p=1.0, backtrack=BacktrackParams(h0=0.3))
        swarm = _swarm([[0.0], [0.5], [1.0], [2.0]], masses=[0.5, 0.3, 0.2 - 1e-5, 1e-5])
        out, _, stats = sbgd_iteration(swarm, QUAD1, params, 4)
        assert stats.eliminated == 1
        assert stats.merged == 0
        assert out.positions.shape == (3, 1)
        assert abs(out.masses.sum() - 1.0) <= 1e-12

    def test_minimizer_survives_elimination_even_at_tiny_mass(self):
        swarm = _swarm([[0.0], [3.0]], masses=[1e-6, 1.0 - 1e-6])
        out, _, stats = sbgd_iteration(swarm, QUAD1, SBGDParams(), 4)
        assert stats.eliminated == 0
        assert abs(out.masses.sum() - 1.0) <= 1e-12


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
        # The iteration itself reports one residual per run, a lone run included.
        _, residual, stats = sbgd_iteration(_swarm(x0, obj=obj), obj, SBGDParams(), 6)
        assert residual.shape == (1,) and stats.residual is residual
        assert residual[0] == history[0].residual
        both = _swarm(np.concatenate([x0, x0]), np.full(12, 1 / 6), obj)._replace(runs=np.repeat([0, 3], 6))
        _, residual, _ = sbgd_iteration(both, obj, SBGDParams(), 6)
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

    @pytest.mark.parametrize("starts", [[[np.nan]], [[np.inf], [0.5]], [[0.5], [-np.inf]]])
    def test_rejects_non_finite_starts(self, starts):
        obj = make_objective("ackley1d")
        with pytest.raises(ValueError, match="init_positions must be finite"):
            run_sbgd(obj, starts)
        with pytest.raises(ValueError, match="init_positions must be finite"):
            run_sbgd_batch(obj, [[[1.0]] * len(starts), starts])


class TestValidation:
    def test_params(self):
        with pytest.raises(ValueError, match="p must be positive"):
            SBGDParams(p=0.0)
        with pytest.raises(ValueError, match="tolm"):
            SBGDParams(tolm=-1.0)
        for name in ("tolm", "tolmerge", "tolres"):
            with pytest.raises(ValueError, match=f"{name} must be non-negative"):
                SBGDParams(**{name: float("nan")})
        with pytest.raises(ValueError, match="max_iters"):
            SBGDParams(max_iters=0)

    def test_q_is_a_swarm_field_checked_first(self):
        assert SBGDParams().q == 1.0
        assert SBGDParams(q=2.0).q == 2.0
        for bad in (0.0, float("nan")):
            with pytest.raises(ValueError, match=f"^q must be positive, got {bad}$"):
                SBGDParams(q=bad)
        # A bad q is reported ahead of every other bad field.
        with pytest.raises(ValueError, match="^q must be positive"):
            SBGDParams(q=0.0, p=0.0, tolm=-1.0, max_iters=0)
        with pytest.raises(TypeError):
            BacktrackParams(q=1.0)


_MERGE_KINDS = ["clustered", "random", "boundary", "underflow", "tied", "nan", "inf"]
_MERGE_TOLS = [0.0, 1e-200, 1e-3, 0.5, np.inf]


def _merge_inputs(kind, seed, d=None):
    """Positions, masses and heights of one run; ``d``, if given, overrides the drawn dimension."""
    rng = np.random.default_rng(seed)
    n, drawn = int(rng.integers(1, 120)), int(rng.choice([1, 2, 20]))
    d = drawn if d is None else d
    if kind == "clustered":
        centers = rng.uniform(-3.0, 3.0, (3, d))
        pos = centers[rng.integers(0, 3, n)] + rng.normal(0.0, 1e-3, (n, d))
    elif kind == "boundary":
        # Neighbours tolmerge = 1e-3 apart, up to rounding: right at the threshold.
        pos = np.zeros((n, d))
        pos[:, 0] = 1e-3 * np.arange(n)
    elif kind == "tied":
        # First coordinates tied in groups, so the sort orders each group as
        # it likes; the second coordinate steps 6e-4, so that agents one step
        # apart lie within tolmerge = 1e-3 of each other and two steps apart
        # do not.
        pos = np.zeros((n, d))
        pos[:, 0] = 0.25 * rng.integers(0, 4, n)
        if d > 1:
            pos[:, 1] = 6e-4 * rng.integers(0, 5, n)
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


@pytest.mark.parametrize("tol", _MERGE_TOLS)
@pytest.mark.parametrize("kind", _MERGE_KINDS)
def test_merge_matches_greedy_loop(kind, tol):
    for seed in range(20):
        pos, masses, heights = _merge_inputs(kind, seed)
        with np.errstate(invalid="ignore"):  # inf - inf between infinite positions
            got = _merge_agents(pos, masses, heights, tol, np.zeros(masses.size, dtype=int))
            want = reference_merge(pos, masses, heights, tol)
        assert got[3] == want[3]
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b, equal_nan=True)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([1, 2, 20]),
    st.lists(st.tuples(st.sampled_from(_MERGE_KINDS), st.integers(0, 2**32 - 1), st.booleans(),
                       st.booleans()), min_size=1, max_size=4),
    st.sampled_from(_MERGE_TOLS),
)
def test_merge_keeps_runs_apart(d, draws, tol):
    # Runs side by side merge as each would alone, even where a run's first
    # agent sits on the previous run's last one.
    runs = []
    for kind, seed, lone, touch in draws:
        pos, masses, heights = (a[:1] if lone else a for a in _merge_inputs(kind, seed, d))
        if touch and runs:
            pos[0] = runs[-1][0][-1]
        runs.append((pos, masses, heights))
    labels = np.repeat(3 * np.arange(len(runs)), [r[1].size for r in runs])
    pos, masses, heights = (np.concatenate(a) for a in zip(*runs))
    with np.errstate(invalid="ignore"):  # inf - inf between infinite positions
        got_pos, got_masses, got_heights, merged, kept = _merge_agents(pos, masses, heights, tol, labels)
        want = [reference_merge(*run, tol) for run in runs]
    assert merged == sum(w[3] for w in want)
    assert (kept is None) == (merged == 0)
    kept = np.ones(masses.size, dtype=bool) if kept is None else kept
    assert [np.count_nonzero(kept[labels == 3 * k]) for k in range(len(runs))] == [w[1].size for w in want]
    want_pos, want_masses, want_heights = (np.concatenate([w[k] for w in want]) for k in range(3))
    assert np.array_equal(got_pos, want_pos, equal_nan=True)
    assert np.array_equal(got_masses, want_masses)
    assert np.array_equal(got_heights, want_heights)
    assert np.array_equal(pos[kept], want_pos, equal_nan=True)
    assert np.array_equal(heights[kept], want_heights)


@pytest.mark.parametrize("last_label", [300, 70000])
def test_close_pairs_match_a_check_of_every_pair(last_label):
    # Over 256 runs, so the labels no longer fit in a byte (nor, up to
    # 70000, in two), of 1-6 agents each: tied and distinct first
    # coordinates, and second coordinates a step of 6e-4 apart.
    rng = np.random.default_rng(last_label)
    counts = rng.integers(1, 7, 300)
    runs = np.repeat(np.linspace(0, last_label, counts.size).astype(int), counts)
    n = runs.size
    pos = np.column_stack((0.3 * rng.integers(0, 3, n) + rng.choice([0.0, 4e-4, 2e-3], n),
                           6e-4 * rng.integers(0, 4, n)))
    tol = 1e-3
    diffs = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(diffs * diffs, axis=2))
    want = np.nonzero(np.triu(dist < tol, 1) & (runs[:, None] == runs[None, :]))
    assert want[0].size > 100
    got = _close_pairs(pos, runs, tol)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_run_argmin_picks_what_np_argmin_picks_in_each_run():
    # Ties go to the first index, and a NaN, when a run has one, beats every number.
    rng = np.random.default_rng(8)
    for _ in range(300):
        counts = rng.integers(1, 6, rng.integers(1, 6))
        values = rng.choice([0.0, 1.0, -1.0, np.nan, np.inf, -np.inf], counts.sum())
        bounds = np.concatenate(([0], np.cumsum(counts)))
        want = [a + np.argmin(values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(_run_argmin(values, bounds), want)


# Values whose sums take every special path: signed zeros, subnormals,
# infinities (opposite ones add to NaN), NaNs of both signs, magnitudes
# whose sums overflow, and 1e16 beside 1.0, which tells one order of
# additions from another.
_SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf,
                            1e300, -1e300, np.nan, -np.nan, 1e16, 1.0])


@st.composite
def _run_layouts(draw):
    """Values and run boundaries: empty runs and runs of 1-7, 8-128 and over 128 values.

    Batches fall on both sides of ``_GATHERED_RUNS``, so both the per-run
    loop and the gather are exercised.
    """
    n_runs = draw(st.integers(1, 3 * _GATHERED_RUNS))
    counts = draw(st.lists(st.one_of(st.sampled_from([0, 1, 7, 8]), st.integers(1, 7),
                                      st.integers(8, 128), st.integers(129, 300)),
                           min_size=n_runs, max_size=n_runs))
    bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(bounds[-1])
    special = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    spread = draw(st.sampled_from([1, 20, 300]))
    values = np.where(special, rng.choice(_SPECIAL_VALUES, n),
                      rng.standard_normal(n) * 10.0 ** rng.integers(-spread, spread + 1, n))
    return values, bounds


def _equal_runs(n_runs, length):
    values = np.random.default_rng(length).standard_normal(n_runs * length) * 1e8
    return values, np.arange(0, n_runs * length + 1, length)


@settings(deadline=None, max_examples=300)
@given(_run_layouts())
# Enough runs for a gather, but all of them long: each is summed once, alone.
@example(_equal_runs(10, 100))
# Ten short runs, which are gathered.
@example(_equal_runs(10, 3))
def test_run_sums_match_each_runs_own_sum_bitwise(layout):
    values, bounds = layout
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array([values[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
        got = _run_sums(values, bounds)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
