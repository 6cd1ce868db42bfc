"""driftlab: drift-plus-penalty control under non-stationary states.

Simulation of the delayed-feedback control loop with distribution detection,
an exact LP oracle for the stationary-equivalent problem, closed-form
guarantee evaluators, and empirical estimators that let the guarantees be
checked against Monte Carlo behavior.
"""

from .distributions import (
    CoveringSet,
    FiniteDistribution,
    GeometricSchedule,
    PiecewiseSchedule,
    ProductStateSpace,
    Schedule,
    divergence,
    l1_distance,
    metric_entropy,
    nearest_member,
    sample,
    stationary,
    tv_distance,
    window_loglik,
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
from .strategies import (
    ActionModel,
    CostModel,
    PureStrategy,
    StrategySpace,
    apply_strategy,
    decode_strategy,
    encode_strategy,
    strategy_count,
)

__all__ = [
    "ActionModel",
    "CostModel",
    "EnsembleResult",
    "LpInstance",
    "LpSolution",
    "PureStrategy",
    "RunTrace",
    "SimConfig",
    "StrategySpace",
    "apply_strategy",
    "decode_strategy",
    "encode_strategy",
    "gap_delta",
    "g_of_x",
    "instance_for",
    "run",
    "run_ensemble",
    "solve_lp",
    "strategy_count",
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
    "divergence",
    "l1_distance",
    "metric_entropy",
    "nearest_member",
    "sample",
    "stationary",
    "tv_distance",
    "window_loglik",
]

__version__ = "0.1.0"
