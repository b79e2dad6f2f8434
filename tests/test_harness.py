"""Tests for the experiment harness: sampling, aggregation, corrections, I/O."""

import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from per_run_oracle import oracle_correct

from swarmdescent import harness
from swarmdescent.baselines import BaselineMethod, BaselineParams
from swarmdescent.harness import (
    _MIN_BLOCK_RUNS,
    ExperimentConfig,
    ExperimentReport,
    basin_sweep,
    is_success,
    precondition_and_correct,
    report_to_dict,
    run_experiment,
    sample_initial_positions,
    solution_histogram,
    write_histogram_csv,
    write_report_csv,
)
from swarmdescent.linesearch import BacktrackParams
from swarmdescent.objectives import make_objective
from swarmdescent.swarm import RunResult, SBGDParams, StopReason


def _quad_config(**kw):
    defaults = dict(
        objective=make_objective("quadratic", 2),
        method=SBGDParams(),
        n_agents=3,
        n_runs=6,
        seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def _stub_run(x_sol):
    x = np.atleast_1d(np.asarray(x_sol, dtype=float))
    return RunResult(
        x_sol=x,
        f_sol=float(np.sum(x * x) / 2.0),
        iterations=1,
        objective_evals=1,
        gradient_evals=1,
        stop_reason=StopReason.RESIDUAL,
    )


class TestSuccess:
    def test_exact_hit(self):
        assert is_success([1.0, 2.0], [1.0, 2.0])

    def test_one_coordinate_outside(self):
        assert not is_success([0.3, 0.0], [0.0, 0.0])

    def test_boundary_is_closed(self):
        assert is_success([1.25], [1.0])
        assert is_success([0.75], [1.0])
        assert not is_success([1.0 + 0.2500001], [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            is_success([1.0, 2.0], [1.0])


class TestSampling:
    def test_positions_fill_the_box(self):
        cfg = _quad_config(n_agents=500, init_lo=(-1.0, 2.0), init_hi=(0.0, 6.0))
        pos = sample_initial_positions(cfg, 0)
        assert pos.shape == (500, 2)
        assert np.all(pos[:, 0] >= -1.0) and np.all(pos[:, 0] <= 0.0)
        assert np.all(pos[:, 1] >= 2.0) and np.all(pos[:, 1] <= 6.0)
        assert pos[:, 1].max() > 5.0  # actually spreads over the box

    def test_stream_follows_documented_derivation(self):
        # Run k draws from default_rng(SeedSequence(seed, spawn_key=(k,))),
        # one uniform per coordinate, agent index slowest.
        cfg = _quad_config(seed=123)
        rng = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(2,)))
        expected = rng.uniform([-3.0, -3.0], [3.0, 3.0], size=(3, 2))
        assert np.array_equal(sample_initial_positions(cfg, 2), expected)

    def test_runs_are_distinct_and_reproducible(self):
        cfg = _quad_config()
        a = sample_initial_positions(cfg, 0)
        b = sample_initial_positions(cfg, 1)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, sample_initial_positions(cfg, 0))


class TestRunExperiment:
    def test_deterministic_field_for_field(self):
        cfg = _quad_config()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.success_rate == r2.success_rate
        assert r1.mean_sq_error == r2.mean_sq_error
        assert r1.mean_abs_error == r2.mean_abs_error
        assert r1.avg_loss == r2.avg_loss
        assert np.array_equal(r1.mean_solution, r2.mean_solution)
        for a, b in zip(r1.per_run, r2.per_run):
            assert np.array_equal(a.x_sol, b.x_sol)
            assert a.f_sol == b.f_sol
            assert a.iterations == b.iterations

    def test_parallel_runs_match_serial(self, pool_starts):
        cfg = _quad_config(n_runs=2 * _MIN_BLOCK_RUNS)
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=2)
        assert pool_starts == [2]
        assert serial.success_rate == parallel.success_rate
        for a, b in zip(serial.per_run, parallel.per_run):
            assert np.array_equal(a.x_sol, b.x_sol)
            assert a.f_sol == b.f_sol

    @pytest.mark.parametrize(
        "n_runs, jobs, blocks",
        [
            (1, 2, 1),
            (2 * _MIN_BLOCK_RUNS - 1, 2, 1),  # too few runs for two blocks
            (2 * _MIN_BLOCK_RUNS, 2, 2),
            (3 * _MIN_BLOCK_RUNS, 1, 1),
            (3 * _MIN_BLOCK_RUNS + 5, 100, 3),  # jobs above what the runs fill
            (100 * _MIN_BLOCK_RUNS, 4, 4),
            (100 * _MIN_BLOCK_RUNS, None, 6),  # all cores
            (5 * _MIN_BLOCK_RUNS, None, 5),
        ],
    )
    def test_block_count(self, monkeypatch, n_runs, jobs, blocks):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 6)
        assert harness._block_count(n_runs, jobs) == blocks

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_rejected(self, jobs, pool_starts):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            harness._block_count(100 * _MIN_BLOCK_RUNS, jobs)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_experiment(_quad_config(n_runs=1), jobs=jobs)
        assert pool_starts == []

    def test_aggregates_recompute_from_per_run(self):
        cfg = _quad_config(n_runs=10)
        report = run_experiment(cfg)
        solutions = np.stack([r.x_sol for r in report.per_run])
        diffs = solutions - cfg.objective.minimizer
        d = cfg.objective.dimension
        successes = np.all(np.abs(diffs) <= cfg.success_half_width, axis=1)
        assert report.success_rate == np.count_nonzero(successes) / cfg.n_runs
        assert report.mean_sq_error == float(np.mean(np.sum(diffs * diffs, axis=1)) / d)
        assert report.mean_abs_error == float(np.mean(np.sqrt(np.sum(diffs * diffs, axis=1))))
        assert report.avg_loss == float(np.mean([r.f_sol for r in report.per_run]))
        assert np.array_equal(report.mean_solution, solutions.mean(axis=0))

    @pytest.mark.parametrize(
        "method",
        [
            SBGDParams(),
            BaselineParams(method=BaselineMethod.GD_FIXED, h=0.5),
            BaselineParams(method=BaselineMethod.GD_BACKTRACK),
            BaselineParams(method=BaselineMethod.ADAM, h=0.1),
        ],
        ids=["sbgd", "gd", "gdbt", "adam"],
    )
    def test_convex_problem_always_succeeds(self, method):
        cfg = _quad_config(method=method, n_agents=5, n_runs=10, seed=1)
        report = run_experiment(cfg)
        assert report.success_rate == 1.0
        assert report.mean_sq_error < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _quad_config(n_agents=0)
        with pytest.raises(ValueError):
            _quad_config(n_runs=0)
        with pytest.raises(ValueError):
            _quad_config(seed=-1)
        with pytest.raises(ValueError):
            _quad_config(init_lo=(3.0,), init_hi=(-3.0,))
        with pytest.raises(ValueError):
            _quad_config(init_lo=(-3.0, -3.0, -3.0))
        with pytest.raises(ValueError):
            _quad_config(method="sbgd")

    def test_config_document_errors(self):
        doc = {"objective": "quadratic", "d": 1, "method": "sbgd", "n": 1, "m": 1, "seed": 0}
        with pytest.raises(ValueError, match="unknown method 'newton'; expected one of: sbgd, "):
            harness.method_from_dict({**doc, "method": "newton"})
        with pytest.raises(ValueError, match=r"init_box must be \[lo, hi\], got \[1.0, 2.0, 3.0\]"):
            harness.config_from_dict({**doc, "init_box": [1.0, 2.0, 3.0]},
                                     harness.objective_from_dict(doc), harness.method_from_dict(doc))

    def test_fixed_parameters_are_class_constants(self):
        # A key no source sets (help None) reads a class constant, which no
        # constructor takes; every settable method or objective key is a field.
        for key, spec in harness.CONFIG_KEYS.items():
            owner, _, path = (spec.field or "").partition(".")
            if owner == "objective":
                holders = [make_objective("quadratic", 1)]
            elif owner == "method":
                holders = [harness.method_from_dict({"method": name}) for name in spec.methods]
            else:
                continue
            *parents, name = path.split(".")
            for holder in holders:
                for parent in parents:
                    holder = getattr(holder, parent)
                fields = {f.name for f in dataclasses.fields(holder)}
                if spec.help is None:
                    assert name not in fields and getattr(type(holder), name) == getattr(holder, name), key
                else:
                    assert name in fields, key

    def test_fixed_parameters_are_not_arguments(self):
        report = run_experiment(_quad_config(n_runs=1))
        for call in (lambda: _quad_config(success_half_width=0.5),
                     lambda: is_success([1.4], [1.0], half_width=0.5),
                     lambda: precondition_and_correct(report, obj=make_objective("quadratic", 2)),
                     lambda: precondition_and_correct(report, params=BacktrackParams()),
                     lambda: BacktrackParams(h_floor=1e-10),
                     lambda: SBGDParams(eps_eta=1e-6),
                     lambda: BaselineParams(method=BaselineMethod.ADAM, adam_beta1=0.5)):
            with pytest.raises(TypeError):
                call()
        assert ExperimentConfig.success_half_width == report.config.success_half_width == 0.25

    @pytest.mark.parametrize("lo, hi", [
        (-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan),
        (-1e308, 1e308),  # finite bounds whose width overflows
        ((-np.inf, 0.0), (1.0, 2.0)), ((0.0, -1e308), (1.0, 1e308)),
    ])
    def test_init_box_must_be_finite_and_of_finite_width(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="init box must have finite bounds and a finite width"):
                _quad_config(init_lo=lo, init_hi=hi)


class TestCorrection:
    def test_already_converged_mean(self):
        obj = make_objective("quadratic", 2)
        report = ExperimentReport(
            config=_quad_config(),
            success_rate=1.0,
            mean_sq_error=0.0,
            mean_abs_error=0.0,
            avg_loss=0.0,
            mean_solution=obj.minimizer,
            per_run=[],
            successes=[],
        )
        corr = precondition_and_correct(report)
        assert np.array_equal(corr.x_corrected, obj.minimizer)
        assert corr.err_inf == 0.0
        assert corr.converged
        assert corr.iterations == 0

    def test_descends_mean_onto_the_minimum(self):
        obj = make_objective("quadratic", 1)
        report = ExperimentReport(
            config=_quad_config(objective=obj),
            success_rate=1.0,
            mean_sq_error=0.0,
            mean_abs_error=0.0,
            avg_loss=0.0,
            mean_solution=np.array([0.5]),
            per_run=[],
            successes=[],
        )
        corr = precondition_and_correct(report)
        assert corr.converged
        assert corr.iterations == 1
        assert corr.err_inf == 0.0

    def test_shifted_20d_rastrigin_lands_on_a_wrong_minimizer(self):
        # With the half-integer shift the per-run solutions scatter across
        # neighboring wells; correcting their mean converges cleanly -- onto
        # a minimizer about one lattice spacing away from the true one.
        obj = make_objective("rastrigin", 20, shift_b=1.5)
        method = SBGDParams(
            p=2.0,
            q=1.0,
            backtrack=BacktrackParams(lam=0.8, gamma=0.5, h0=1.0),
            tolm=1e-3,
            tolmerge=1e-1,
            tolres=1e-2,
        )
        cfg = ExperimentConfig(
            objective=obj, method=method, n_agents=50, n_runs=20, seed=42
        )
        corr = precondition_and_correct(run_experiment(cfg))
        assert corr.converged
        assert 0.5 <= corr.err_inf <= 2.5


_CORRECTION_OBJECTIVES = {
    1: ("ackley1d", "flatbasin1d", "rastrigin1d", "quadratic"),
    2: ("ackley", "dropwave", "rastrigin", "rosenbrock2d"),
    20: ("ackley", "rastrigin", "quadratic"),
}


@st.composite
def _correction_cases(draw):
    """A landscape, a mean solution near or far from its minimizer, ladder settings and both caps."""
    d = draw(st.sampled_from(sorted(_CORRECTION_OBJECTIVES)))
    obj = make_objective(draw(st.sampled_from(_CORRECTION_OBJECTIVES[d])), d,
                         shift_b=draw(st.sampled_from([0.0, 1.5])))
    scale = draw(st.sampled_from([2e-15, 1e-6, 0.1, 1.0, 3.0]))
    mean = obj.minimizer + scale * draw(hnp.arrays(np.float64, d, elements=st.floats(-1.0, 1.0)))
    params = BacktrackParams(lam=draw(st.floats(0.05, 0.9)), gamma=draw(st.floats(0.5, 0.95)),
                             h0=draw(st.floats(0.5, 2.0)))
    return obj, mean, params, draw(st.sampled_from([1e-3, 1e-8, 0.0])), draw(st.sampled_from([0, 1, 3, 300]))


@settings(deadline=None, max_examples=80)
@given(_correction_cases())
# A stalling start at the Ackley cone tip, and the 20-D Ackley correction at its defaults.
@example((make_objective("ackley", 1), np.array([2e-15]), BacktrackParams(), 1e-3, 10000))
@example((make_objective("ackley", 20), np.full(20, 0.01), BacktrackParams(h0=2.0), 1e-3, 10000))
def test_correction_matches_the_single_point_loop_bitwise(case):
    obj, mean, params, grad_tol, max_iters = case
    report = ExperimentReport(
        config=ExperimentConfig(objective=obj, method=SBGDParams(backtrack=params), n_agents=1,
                                n_runs=1, seed=0),
        success_rate=0.0,
        mean_sq_error=0.0,
        mean_abs_error=0.0,
        avg_loss=0.0,
        mean_solution=mean,
        per_run=[],
        successes=[],
    )
    got = precondition_and_correct(report, grad_tol=grad_tol, max_iters=max_iters)
    want = oracle_correct(obj, mean, grad_tol, params, max_iters)
    assert np.array_equal(got.x_corrected.view(np.int64), want.x_corrected.view(np.int64))
    assert np.float64(got.f_corrected).view(np.int64) == np.float64(want.f_corrected).view(np.int64)
    assert (got.err_inf, got.converged, got.iterations) == (want.err_inf, want.converged, want.iterations)


class TestHistogram:
    def test_identical_solutions_one_bin(self):
        hist = solution_histogram([_stub_run([1.00005]) for _ in range(7)])
        assert len(hist) == 1
        center, count = hist[0]
        assert count == 7
        assert abs(center - 1.00005) <= 1e-4

    def test_two_clusters(self):
        runs = [_stub_run([-1.5])] * 3 + [_stub_run([1.5])] * 5
        hist = solution_histogram(runs)
        assert len(hist) == 2
        assert sum(c for _, c in hist) == 8
        assert hist[0][0] < 0.0 < hist[1][0]

    def test_non_finite_solutions_fall_in_no_bin(self):
        with np.errstate(over="ignore", invalid="ignore"):  # the stubs' f_sol
            runs = [_stub_run([x]) for x in (np.nan, np.inf, -np.inf, 1e300, -1e300, 0.5, 0.5)]
            huge = [_stub_run([1e300])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = solution_histogram(runs, bin_width=0.25)
        assert [c for _, c in hist] == [1, 2, 1]
        assert hist[1] == (0.625, 2)
        assert hist[0][0] == pytest.approx(-1e300) and hist[2][0] == pytest.approx(1e300)
        # An index past 2**63 must not wrap around into another bin.
        assert solution_histogram(huge, bin_width=1e-4)[0][0] > 0.0
        assert solution_histogram(runs[:1]) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solution_histogram(huge, bin_width=1e-10) == []

    def test_multidimensional_needs_a_coordinate(self):
        runs = [_stub_run([1.0, 2.0])]
        with pytest.raises(ValueError, match="coord"):
            solution_histogram(runs)
        hist = solution_histogram(runs, coord=1)
        assert hist[0][1] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            solution_histogram([])
        with pytest.raises(ValueError):
            solution_histogram([_stub_run([1.0])], bin_width=0.0)
        with pytest.raises(ValueError):
            solution_histogram([_stub_run([1.0, 2.0])], coord=2)

    def test_flat_basin_backtracking_mass_stays_left(self):
        # From the left half-box, plain backtracking descent mostly ends at
        # the local minimizer between -2 and -1, not at the global one.
        cfg = ExperimentConfig(
            objective=make_objective("flatbasin1d"),
            method=BaselineParams(method=BaselineMethod.GD_BACKTRACK),
            n_agents=30,
            n_runs=200,
            seed=42,
            init_lo=(-3.0,),
            init_hi=(-1.0,),
        )
        report = run_experiment(cfg)
        center, _ = max(solution_histogram(report.per_run), key=lambda bc: bc[1])
        assert -2.0 <= center <= -1.0


class TestBasinSweep:
    def test_quadratic_all_starts_reach_zero(self):
        pairs = basin_sweep(
            make_objective("quadratic", 1), SBGDParams(), [-2.0, 0.5, 2.0]
        )
        assert [x0 for x0, _ in pairs] == [-2.0, 0.5, 2.0]
        assert all(abs(xf) < 1e-3 for _, xf in pairs)

    def test_flat_basin_fixed_step_fails_outside_the_global_well(self):
        obj = make_objective("flatbasin1d")
        params = BaselineParams(method=BaselineMethod.GD_FIXED, h=0.8)
        pairs = basin_sweep(obj, params, [-2.5, 0.5, 2.5])
        for _, xf in pairs:
            assert not is_success([xf], obj.minimizer)

    def test_single_point_grid(self):
        assert len(basin_sweep(make_objective("quadratic", 1), SBGDParams(), [1.0])) == 1

    def test_requires_one_dimension(self):
        with pytest.raises(ValueError, match="1-D"):
            basin_sweep(make_objective("quadratic", 2), SBGDParams(), [1.0])
        with pytest.raises(ValueError):
            basin_sweep(make_objective("quadratic", 1), SBGDParams(), [])


class TestSerialization:
    def test_report_json_roundtrip(self):
        report = run_experiment(_quad_config(n_runs=3))
        doc = json.loads(json.dumps(report_to_dict(report), indent=2))
        assert doc == report_to_dict(report)
        assert doc["success_rate"] == report.success_rate
        assert doc["mean_sq_error"] == report.mean_sq_error
        assert doc["mean_solution"] == list(report.mean_solution)
        assert len(doc["per_run"]) == 3
        assert doc["config"]["objective"]["name"] == "quadratic"
        assert doc["config"]["method"]["lambda"] == 0.2
        assert doc["config"]["seed"] == 5
        run0 = doc["per_run"][0]
        assert run0["x_sol"] == list(report.per_run[0].x_sol)
        assert run0["stop_reason"] == report.per_run[0].stop_reason.value
        assert run0["success"] in (True, False)

    def test_report_csv(self, tmp_path):
        report = run_experiment(_quad_config(n_runs=4))
        path = tmp_path / "runs.csv"
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:3] == ["run", "seed", "success"]
        assert "x0" in header
        assert len(body) == 4
        assert body[0][0] == "0"
        assert body[0][1] == "5.0"  # base seed, run index
        # Floats survive the trip exactly.
        x0_col = header.index("x0")
        assert float(body[2][x0_col]) == report.per_run[2].x_sol[0]

    def test_histogram_csv(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram_csv([(0.5, 3), (1.5, 2)], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_center", "count"]
        assert rows[1] == ["0.5", "3"]
        assert rows[2] == ["1.5", "2"]
