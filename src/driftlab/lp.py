"""Exact solution of the stationary-equivalent linear programs.

The program over strategy mixtures is  min r_0.theta  subject to
r_k.theta <= c_k + x, sum theta = 1, theta >= 0; G(x) is its optimal value
as a function of the slack perturbation x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .distributions import CoveringSet, FiniteDistribution, nearest_member
from .errors import ConfigurationError, DimensionError, DomainError
from .strategies import CostModel, StrategySpace

SOLUTION_TOL = 1e-9


@dataclass(frozen=True)
class LpInstance:
    """Dense strategy-mixture LP: objective row r[0], constraint rows r[1:]."""

    r: np.ndarray  # (K+1, F)
    c: np.ndarray  # (K,)
    x: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64).ravel()
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)
        if r.ndim != 2 or r.shape[0] != c.size + 1:
            raise DimensionError(
                f"r shaped {r.shape} inconsistent with {c.size} constraints"
            )
        if r.shape[1] < 1:
            raise ConfigurationError("need at least one strategy column")
        if self.x < 0:
            raise DomainError(f"perturbation x must be >= 0, got {self.x}")

    @property
    def n_strategies(self) -> int:
        return self.r.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.c.size

    def perturbed(self, x: float) -> "LpInstance":
        return LpInstance(r=self.r, c=self.c, x=x)


@dataclass(frozen=True)
class LpSolution:
    theta: np.ndarray | None
    value: float
    status: str  # optimal | infeasible | unbounded-guard
    reduced_costs: np.ndarray | None = field(default=None, repr=False)
    slack: np.ndarray | None = field(default=None, repr=False)  # c + x - r[1:] theta


def instance_for(space: StrategySpace, member: FiniteDistribution) -> LpInstance:
    """Build the mixture LP under a candidate state distribution."""
    return LpInstance(r=space.r_table(member), c=space.cost.c)


def solve_lp(inst: LpInstance) -> LpSolution:
    """Optimal basic solution via the two-phase Bland simplex; deterministic."""
    res = simplex.solve(
        c=inst.r[0],
        A_ub=inst.r[1:],
        b_ub=inst.c + inst.x,
        A_eq=np.ones((1, inst.n_strategies)),
        b_eq=np.ones(1),
    )
    if res.status == "infeasible":
        return LpSolution(None, float("inf"), "infeasible")
    if res.status == "unbounded":  # the ratio test skips entries <= PIVOT_EPS
        return LpSolution(None, float("-inf"), "unbounded-guard")
    if res.x.min() < -SOLUTION_TOL:
        raise RuntimeError(f"solver returned theta_min={res.x.min()!r}")
    theta = np.maximum(res.x, 0.0)  # pivots can leave a zero weight at -1e-17: clear it
    if abs(theta.sum() - 1.0) > SOLUTION_TOL:
        raise RuntimeError(f"solver returned sum(theta)={theta.sum()!r}")
    slack = inst.c + inst.x - inst.r[1:] @ theta
    if (slack < -SOLUTION_TOL).any():
        raise RuntimeError(f"solver violated a constraint by {-slack.min()!r}")
    return LpSolution(theta, res.value, "optimal", res.reduced_costs, slack)


def g_of_x(inst: LpInstance, x: float) -> float:
    """Optimal value with constraint levels c_k + x; +inf when infeasible."""
    return solve_lp(inst.perturbed(x)).value


def lipschitz_probe(inst: LpInstance) -> tuple[float, float]:
    """(c_hat, G(0)): a Lipschitz constant of G on x >= 0, from one solve.

    G is convex and non-increasing, and the optimal duals lambda_k >= 0 of
    the constraint rows at x = 0 are a subgradient there, so
    |G(x) - G(y)| <= sum_k lambda_k |x - y| for all x, y >= 0.  The duals are
    the reduced costs of the slack columns.
    """
    sol = solve_lp(inst)
    if sol.status != "optimal":
        raise DomainError(f"the LP at x={inst.x} has no optimum (status {sol.status})")
    n, K = inst.n_strategies, inst.n_constraints
    duals = sol.reduced_costs[n : n + K]
    return float(np.maximum(duals, 0.0).sum()), sol.value


def gap_delta(
    pi: FiniteDistribution,
    covering: CoveringSet,
    cost: CostModel,
    nu: float,
) -> float:
    """max_k b_max,k (d(pi, nearest member) + nu), the LP substitution gap."""
    if nu <= 0:
        raise DomainError(f"nu must be > 0, got {nu}")
    _, d = nearest_member(covering, pi, warn=False)
    return float(cost.b_max.max() * (d + nu))
