"""Swarm-based gradient descent for global optimization.

Communicating agents carry masses that flow toward the current best agent;
heavy agents take careful Armijo-backtracked steps while light agents roam.
The package bundles the swarm optimizer, non-communicating baselines
(fixed-step GD, backtracking GD, Adam), benchmark objectives with exact
gradients, and a seeded experiment harness with a CLI front end.
"""

from .baselines import BaselineMethod, BaselineParams, run_baseline, run_baseline_batch
from .harness import (
    CorrectionResult,
    ExperimentConfig,
    ExperimentReport,
    basin_sweep,
    is_success,
    precondition_and_correct,
    report_to_dict,
    run_experiment,
    solution_histogram,
)
from .linesearch import BacktrackParams, backtrack_batch
from .objectives import Objective, ObjectiveKind, OBJECTIVE_NAMES, make_objective
from .swarm import IterationStats, RunResult, SBGDParams, StopReason, run_sbgd, run_sbgd_batch

__version__ = "0.1.0"

__all__ = [
    "BacktrackParams",
    "BaselineMethod",
    "BaselineParams",
    "CorrectionResult",
    "ExperimentConfig",
    "ExperimentReport",
    "IterationStats",
    "OBJECTIVE_NAMES",
    "Objective",
    "ObjectiveKind",
    "RunResult",
    "SBGDParams",
    "StopReason",
    "backtrack_batch",
    "basin_sweep",
    "is_success",
    "make_objective",
    "precondition_and_correct",
    "report_to_dict",
    "run_baseline",
    "run_baseline_batch",
    "run_experiment",
    "run_sbgd",
    "run_sbgd_batch",
    "solution_histogram",
    "__version__",
]
