"""driftlab: drift-plus-penalty control under non-stationary states.

Simulation of the delayed-feedback control loop with distribution detection,
an exact LP oracle for the stationary-equivalent problem, closed-form
guarantee evaluators, and empirical estimators that let the guarantees be
checked against Monte Carlo behavior.
"""

from .config import ConfigError, config_from_dict, read_config
from .distributions import (
    CoveringSet,
    FiniteDistribution,
    GeometricSchedule,
    PiecewiseSchedule,
    ProductStateSpace,
    Schedule,
    l1_distance,
    nearest_member,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    DriftlabError,
    EstimationError,
)
from .lp import LpInstance, LpSolution, gap_delta, g_of_x, instance_for, solve_lp
from .simulate import (
    EnsembleResult,
    RunTrace,
    SimConfig,
    run,
    run_ensemble,
)
from .strategies import ActionModel, CostModel, StrategySpace

__all__ = [
    "ActionModel",
    "CostModel",
    "EnsembleResult",
    "LpInstance",
    "LpSolution",
    "RunTrace",
    "SimConfig",
    "StrategySpace",
    "config_from_dict",
    "gap_delta",
    "g_of_x",
    "instance_for",
    "read_config",
    "run",
    "run_ensemble",
    "solve_lp",
    "ConfigError",
    "ConfigurationError",
    "CoveringSet",
    "DimensionError",
    "DomainError",
    "DriftlabError",
    "EstimationError",
    "FiniteDistribution",
    "GeometricSchedule",
    "PiecewiseSchedule",
    "ProductStateSpace",
    "Schedule",
    "l1_distance",
    "nearest_member",
]

__version__ = "0.1.0"
