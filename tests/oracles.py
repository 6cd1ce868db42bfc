"""Scalar references and property checks that only the tests run: the
one-value-at-a-time forms of what the package computes on whole arrays, the
LP optimality certificate, and the Theorem-1 property suite.
"""

import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from driftlab.distributions import (
    CoveringSet, FiniteDistribution, ProductStateSpace, inverse_cdf, l1_distance, nearest_member,
)
from driftlab.errors import ConfigurationError, DimensionError, DomainError
from driftlab.guarantees import MODE_DEFAULT, _check_mode, _phi
from driftlab.lp import (
    LpInstance, LpSolution, g_of_x, gap_delta, instance_for, lipschitz_probe, solve_lp,
)
from driftlab.simulate import EnsembleResult
from driftlab.strategies import ActionModel, CostModel, StrategyCodec, StrategySpace


def cdf(dist: FiniteDistribution) -> np.ndarray:
    return np.cumsum(dist.probs)


def sample(dist: FiniteDistribution, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over the stored outcome order; identical seed, identical draw."""
    return int(inverse_cdf(cdf(dist), rng.random()))


def tv_distance(p: FiniteDistribution, q: FiniteDistribution) -> float:
    return 0.5 * l1_distance(p, q)


def metric_entropy(covering: CoveringSet) -> float:
    return math.log(covering.size)


def window_loglik(member: FiniteDistribution, window: Sequence[int]) -> float:
    """Average log-likelihood (1/w) sum log member(w_s) over the window.

    Returns -inf when the member puts zero mass on any observed outcome.
    """
    w = np.asarray(window, dtype=np.int64)
    if w.size == 0:
        raise DomainError("window must be nonempty")
    if w.min() < 0 or w.max() >= len(member):
        raise DomainError("window contains out-of-range outcome ids")
    p = member.probs[w]
    if np.any(p <= 0):
        return float("-inf")
    return float(np.log(p).mean())


def divergence(
    pi_tau: FiniteDistribution,
    p_j: FiniteDistribution,
    p_istar: FiniteDistribution,
) -> float:
    """Per-slot expectation E_pi[log(P_j / P_istar)].

    Equals -KL(P_istar || P_j) when pi_tau = P_istar; requires both members
    to carry mass wherever pi_tau does.
    """
    if not (len(pi_tau) == len(p_j) == len(p_istar)):
        raise DimensionError("distribution lengths differ")
    support = pi_tau.probs > 0
    if np.any(p_j.probs[support] <= 0) or np.any(p_istar.probs[support] <= 0):
        raise DomainError("zero member mass on a supported outcome")
    ratio = np.zeros(len(pi_tau))
    ratio[support] = np.log(p_j.probs[support]) - np.log(p_istar.probs[support])
    return float(np.dot(pi_tau.probs, ratio))


def schedule_at(schedule, t: int) -> FiniteDistribution:
    """The schedule's state distribution at slot t."""
    if t < 0:
        raise DomainError("slot index must be nonnegative")
    return FiniteDistribution(schedule.weights_matrix(t + 1)[t].copy())



@dataclass(frozen=True)
class PureStrategy:
    """Per-user deterministic maps local state id -> local action id."""

    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "tables", tuple(tuple(int(a) for a in t) for t in self.tables)
        )


def strategy_count(actions: ActionModel, states: ProductStateSpace) -> int:
    """F = prod_i |A_i|^{|Omega_i|}, guarded against unenumerable sizes."""
    return StrategyCodec.of(actions, states).total


def decode_strategy(
    m: int, actions: ActionModel, states: ProductStateSpace
) -> PureStrategy:
    """Strategy id -> strategy, digits in ``StrategyCodec`` order."""
    slots = iter(StrategyCodec.of(actions, states).decode(m)[::-1])
    return PureStrategy(tuple(tuple(islice(slots, w)) for w in states.counts))


def encode_strategy(
    s: PureStrategy, actions: ActionModel, states: ProductStateSpace
) -> int:
    codec = StrategyCodec.of(actions, states)
    if tuple(map(len, s.tables)) != states.counts:
        raise DimensionError("strategy tables do not match the state space")
    return codec.encode([a for table in s.tables for a in table][::-1])


def apply_strategy(
    s: PureStrategy,
    omega_id: int,
    actions: ActionModel,
    states: ProductStateSpace,
) -> int:
    """Joint action id produced when each user applies its own table to its
    own state component (the distributed-decision condition)."""
    comps = states.decode(omega_id)
    return actions.encode([s.tables[i][w] for i, w in enumerate(comps)])


def actions_of(space: StrategySpace) -> np.ndarray:
    """(F, |Omega|) joint action of each strategy in each joint state."""
    return space.cell_of // space.states.total


def realized_cube(space: StrategySpace) -> np.ndarray:
    """(K+1, F, |Omega|) realized costs p_k(a(m, omega), omega), looked up
    strategy by strategy through ``actions_of``."""
    return space.cost.tables[:, actions_of(space), np.arange(space.states.total)]


def r_vector(space: StrategySpace, m: int, lam: FiniteDistribution) -> np.ndarray:
    """Average cost/penalty vector of strategy m under distribution lam."""
    space._check_dist(lam)
    return space.cost.tables[:, actions_of(space)[m], np.arange(space.states.total)] @ lam.probs


def b_value(space: StrategySpace, pi: FiniteDistribution) -> float:
    """Curvature constant: max_m (1/2) sum_k E_pi |p_k - c_k|^2."""
    space._check_dist(pi)
    return 0.5 * float(np.max(space.curvature_rows[1] @ pi.probs))



def mcdiarmid_tail(eps: float, c_list: Sequence[float]) -> float:
    """exp(-2 eps^2 / sum c_i^2) for independent bounded differences."""
    c = np.asarray(list(c_list), dtype=np.float64)
    if eps < 0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    if c.size == 0 or np.any(c <= 0):
        raise DomainError("bounded-difference constants must be positive")
    return math.exp(-2.0 * eps * eps / float(np.sum(c * c)))


def pe_upper(
    tau: int,
    D: int,
    w_tau: int,
    zeta: float,
    div_tau: float,
    M: int,
    mode: str = MODE_DEFAULT,
) -> float:
    """Detection-error bound at slot tau (raw; may exceed 1).

    ``div_tau`` is the smallest magnitude, over wrong members, of the
    window-averaged expected log-likelihood ratio.  Slots whose window is
    incomplete get the uniform-pick error 1/M.
    """
    _check_mode(mode)
    if M < 1:
        raise ConfigurationError(f"M must be >= 1, got {M}")
    if tau <= D + w_tau - 1:
        return 1.0 / M
    return math.exp(-_phi(zeta, div_tau, w_tau, mode) + math.log(M))



def lyapunov_drift(q_before: np.ndarray, q_after: np.ndarray) -> tuple[float, float, float]:
    """(L_before, L_after, drift) with L = ||Q||^2 / 2."""
    lb = 0.5 * float(np.dot(q_before, q_before))
    la = 0.5 * float(np.dot(q_after, q_after))
    return lb, la, la - lb


def interval_error_rate(ensemble: EnsembleResult, alpha: int, t: int) -> float:
    """Fraction of runs with at least one wrong detection in [alpha, t]."""
    if t < alpha:
        raise DimensionError(f"need t >= alpha, got [{alpha}, {t}]")
    return float(ensemble.errors[:, alpha : t + 1].any(axis=1).mean())



def chord_lipschitz(inst: LpInstance, grid: Sequence[float]) -> tuple[float, np.ndarray]:
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


def optimality_certificate(inst: LpInstance, sol: LpSolution, tol: float = 1e-7) -> bool:
    """Post-hoc check that no strategy column has negative reduced cost."""
    if sol.status != "optimal" or sol.reduced_costs is None:
        return False
    return bool(np.all(sol.reduced_costs[: inst.n_strategies] >= -tol))


def _random_small_instance(rng: np.random.Generator, fmax: int, kmax: int):
    while True:
        n_users = int(rng.integers(1, 3))
        a_counts = tuple(int(rng.integers(1, 4)) for _ in range(n_users))
        w_counts = tuple(int(rng.integers(1, 4)) for _ in range(n_users))
        actions = ActionModel(a_counts)
        states = ProductStateSpace(w_counts)
        f = strategy_count(actions, states)
        if not 2 <= f <= fmax:
            continue
        k = int(rng.integers(0, kmax + 1))
        tables = rng.uniform(-1.0, 1.0, size=(k + 1, actions.total, states.total))
        pi = FiniteDistribution(rng.dirichlet(np.ones(states.total)))
        n_members = int(rng.integers(2, 5))
        members = tuple(
            FiniteDistribution(rng.dirichlet(np.ones(states.total)))
            for _ in range(n_members)
        )
        probs = np.concatenate([m.probs for m in members])
        pos = probs[probs > 0]
        dists = [float(np.abs(m.probs - pi.probs).sum()) for m in members]
        covering = CoveringSet(
            members=members,
            delta=min(dists) + 1.0,
            alpha_delta=pos.max() * 1.01 + 1e-12,
            beta_delta=pos.min() * 0.99,
        )
        cost = CostModel(tables=tables, c=np.zeros(k))
        space = StrategySpace(actions, states, cost)
        istar, _ = nearest_member(covering, pi, warn=False)
        member = covering.members[istar]
        m_hat = int(rng.integers(f))
        r_pi = space.r_table(pi)
        r_star = space.r_table(member)
        c_levels = np.maximum(r_pi[1:, m_hat], r_star[1:, m_hat]) + rng.uniform(
            0.01, 0.3, size=k
        )
        cost = CostModel(tables=tables, c=c_levels)
        space = StrategySpace(actions, states, cost)
        return space, pi, covering, istar


def theorem1_pairs(
    n_instances: int = 100,
    seed: int = 7,
    fmax: int = 32,
    kmax: int = 3,
) -> list[tuple[float, float]]:
    """Property suite: ``(lhs, rhs)`` per random instance, where lhs is the
    nearest-member LP optimum and rhs the stationary optimum plus (c_hat + 1)
    times the gap allowance; Theorem 1 says lhs <= rhs.

    Instances whose LPs come out infeasible are regenerated, not counted.
    """
    rng = np.random.default_rng(seed)
    results = []
    while len(results) < n_instances:
        space, pi, covering, istar = _random_small_instance(rng, fmax, kmax)
        member = covering.members[istar]
        inst_pi = instance_for(space, pi)
        inst_star = instance_for(space, member)
        sol_pi = solve_lp(inst_pi)
        sol_star = solve_lp(inst_star)
        if sol_pi.status != "optimal" or sol_star.status != "optimal":
            continue
        nu = float(rng.uniform(0.01, 0.2))
        gap = gap_delta(pi, covering, space.cost, nu)
        c_hat = lipschitz_probe(inst_star)[0]
        rhs = sol_pi.value + (c_hat + 1.0) * gap
        results.append((sol_star.value, rhs))
    return results
