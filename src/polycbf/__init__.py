"""Polynomial control-barrier filtering and driving-style identification.

Safety filtering for planar double-integrator vehicles via quadratic
programs over polynomial class-K barrier conditions, ridge identification of
other agents' barrier coefficients from observed clearances, and an adaptive
ramp-merge loop that couples the two.
"""

from .barrier import AlphaVector, SafetyConfig, basis, hdot, kappa, safety_value
from .controller import (DEFAULT_LIMITS, ControlLimits, NominalPlan, QpSolution,
                         build_safety_constraint, nominal_control, safe_control)
from .dynamics import DEFAULT_DT, VehicleState, step
from .errors import (ConfigurationError, DegenerateConstraintError, DomainError,
                     RankDeficiencyError)
from .learner import AlphaEstimate, BarrierSample, RidgeConfig, StyleLearner, check_convergence
from .scenario import (InvarianceSettings, PredictionSummary, PredictionTrial,
                       PredictSettings, RoadGeometry, ScenarioConfig, SweepEntry,
                       SweepSettings, TrajectoryLog, TrialMetrics, TrialRecord,
                       VehicleSpec, default_geometry, experiment_behavior_sweep,
                       experiment_invariance, experiment_prediction,
                       invariance_trial_setup, prediction_trial_setup, simulate,
                       sweep_trial_config)
from .adaptive import (DEFAULT_POLICY, AdaptiveComparison, AdaptiveRecord,
                       AdaptiveSettings, MismatchTrial, StylePolicy, aggressiveness_score,
                       experiment_assumption_mismatch, experiment_prediction_in_loop,
                       run_adaptive_merge, select_alpha)

__version__ = "0.1.0"

__all__ = [
    "AlphaVector", "SafetyConfig", "basis", "hdot", "kappa", "safety_value",
    "ControlLimits", "DEFAULT_LIMITS", "NominalPlan", "QpSolution",
    "build_safety_constraint", "nominal_control", "safe_control",
    "DEFAULT_DT", "VehicleState", "step",
    "ConfigurationError", "DegenerateConstraintError", "DomainError",
    "RankDeficiencyError",
    "AlphaEstimate", "BarrierSample", "RidgeConfig", "StyleLearner", "check_convergence",
    "InvarianceSettings", "PredictSettings", "PredictionSummary", "PredictionTrial",
    "RoadGeometry", "ScenarioConfig", "SweepEntry", "SweepSettings", "TrajectoryLog",
    "TrialMetrics", "TrialRecord", "VehicleSpec", "default_geometry",
    "experiment_behavior_sweep", "experiment_invariance", "experiment_prediction",
    "invariance_trial_setup", "prediction_trial_setup", "simulate",
    "sweep_trial_config",
    "DEFAULT_POLICY", "AdaptiveComparison", "AdaptiveRecord", "AdaptiveSettings",
    "MismatchTrial", "StylePolicy", "aggressiveness_score",
    "experiment_assumption_mismatch",
    "experiment_prediction_in_loop", "run_adaptive_merge", "select_alpha",
    "__version__",
]
