"""Exact solution of the stationary-equivalent linear programs.

The program over strategy mixtures is  min r_0.theta  subject to
r_k.theta <= c_k + x, sum theta = 1, theta >= 0; G(x) is its optimal value
as a function of the slack perturbation x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import simplex
from .distributions import CoveringSet, FiniteDistribution, nearest_member
from .errors import ConfigurationError, DimensionError, DomainError
from .simulate import selection_candidates
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

    def __post_init__(self):
        if self.status == "optimal":
            th = np.asarray(self.theta, dtype=np.float64)
            if th.min() < -SOLUTION_TOL:
                raise RuntimeError(f"solver returned theta_min={th.min()!r}")
            # pivots can leave a zero weight at -1e-17: clear it
            th = np.maximum(th, 0.0)
            object.__setattr__(self, "theta", th)
            if abs(th.sum() - 1.0) > SOLUTION_TOL:
                raise RuntimeError(f"solver returned sum(theta)={th.sum()!r}")


def instance_for(space: StrategySpace, member: FiniteDistribution, x: float = 0.0) -> LpInstance:
    """Build the mixture LP under a candidate state distribution."""
    return LpInstance(r=space.r_table(member), c=space.cost.c, x=x)


def candidate_instance(inst: LpInstance) -> tuple[LpInstance, np.ndarray]:
    """``inst`` on its ``selection_candidates`` columns, and their ascending ids.

    Each dropped column is weakly dominated in every row, objective and
    constraints alike, by a kept one.  Moving a mixture's weight from it onto
    that column keeps every constraint at every x and does not raise the
    objective, so the optimum value is the full table's, and a solution maps
    back by ``theta_full[ids] = theta``.
    """
    ids = selection_candidates(inst.r)
    return LpInstance(r=inst.r[:, ids], c=inst.c, x=inst.x), ids


def solve_lp(inst: LpInstance) -> LpSolution:
    """Optimal basic solution via the two-phase Bland simplex; deterministic."""
    res = simplex.solve(
        c=inst.r[0],
        A_ub=inst.r[1:] if inst.n_constraints else None,
        b_ub=inst.c + inst.x if inst.n_constraints else None,
        A_eq=np.ones((1, inst.n_strategies)),
        b_eq=np.ones(1),
    )
    if res.status == "infeasible":
        return LpSolution(None, float("inf"), "infeasible")
    if res.status == "unbounded":  # cannot occur on the simplex, guarded anyway
        return LpSolution(None, float("-inf"), "unbounded-guard")
    sol = LpSolution(res.x, res.value, "optimal", res.reduced_costs)
    slack = inst.c + inst.x - inst.r[1:] @ res.x if inst.n_constraints else np.zeros(0)
    if inst.n_constraints and slack.min() < -SOLUTION_TOL:
        raise RuntimeError(f"solver violated a constraint by {-slack.min()!r}")
    if abs(res.value - float(inst.r[0] @ res.x)) > SOLUTION_TOL * max(1.0, abs(res.value)):
        raise RuntimeError("solver objective mismatch")
    return sol


def g_of_x(inst: LpInstance, x: float) -> float:
    """Optimal value with constraint levels c_k + x; +inf when infeasible."""
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    return solve_lp(inst.perturbed(x)).value


def lipschitz_probe(inst: LpInstance, grid: Sequence[float]) -> tuple[float, np.ndarray]:
    """Empirical Lipschitz constant of G over adjacent grid points, and G on
    the grid.

    A lower bound on the true constant; grids should bracket the range of
    perturbations the caller will reason about.
    """
    xs = np.asarray(list(grid), dtype=np.float64)
    if xs.size < 2:
        raise DomainError("lipschitz_probe needs at least two grid points")
    if np.any(np.diff(xs) <= 0):
        raise DomainError("grid must be strictly increasing")
    vals = []
    for x in xs:
        v = g_of_x(inst, float(x))
        if math.isinf(v):
            raise DomainError(f"grid point x={x} is infeasible")
        vals.append(v)
    slopes = [
        abs(vals[i + 1] - vals[i]) / (xs[i + 1] - xs[i]) for i in range(xs.size - 1)
    ]
    return max(slopes), np.array(vals)


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
