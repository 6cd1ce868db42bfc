"""Pure strategies, cost/penalty tables, and strategy-average quantities.

A pure strategy maps each user's local state to a local action; the joint
strategies are enumerated 0..F-1 by a mixed-radix bijection and realized
costs are cached per (strategy, joint state) so both the LP oracle and the
control loop can consume them as dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .distributions import FiniteDistribution, ProductStateSpace, _freeze
from .errors import ConfigurationError, DimensionError, DomainError

STRATEGY_COUNT_GUARD = 2**32
ACTION_MATRIX_GUARD = 2**27  # cap on F * |Omega| for dense enumeration


@dataclass(frozen=True)
class ActionModel:
    """Joint action space A = A_1 x ... x A_N, first user most significant."""

    per_user_action_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.per_user_action_counts)
        object.__setattr__(self, "per_user_action_counts", counts)
        if not counts or any(c < 1 for c in counts):
            raise ConfigurationError(f"invalid action counts {counts}")

    @property
    def n_users(self) -> int:
        return len(self.per_user_action_counts)

    @cached_property
    def total(self) -> int:
        return int(np.prod(self.per_user_action_counts, dtype=object))

    @cached_property
    def _multipliers(self) -> tuple[int, ...]:
        mults = []
        m = 1
        for c in reversed(self.per_user_action_counts):
            mults.append(m)
            m *= c
        return tuple(reversed(mults))

    def encode(self, actions: Sequence[int]) -> int:
        if len(actions) != self.n_users:
            raise DimensionError("action tuple length mismatch")
        out = 0
        for a, c, m in zip(actions, self.per_user_action_counts, self._multipliers):
            if not 0 <= a < c:
                raise DomainError(f"action {a} out of range [0, {c})")
            out += a * m
        return out

    def decode(self, joint_id: int) -> tuple[int, ...]:
        if not 0 <= joint_id < self.total:
            raise DomainError(f"joint action id {joint_id} out of range")
        return tuple(
            (joint_id // m) % c
            for c, m in zip(self.per_user_action_counts, self._multipliers)
        )


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
    if actions.n_users != states.n_users:
        raise DimensionError("action and state models disagree on user count")
    f = 1
    for a, w in zip(actions.per_user_action_counts, states.per_user_cardinalities):
        f *= a**w
        if f > STRATEGY_COUNT_GUARD:
            raise ConfigurationError(
                f"strategy count exceeds {STRATEGY_COUNT_GUARD}; restrict the "
                "strategy class or shrink the per-user spaces"
            )
    return f


def decode_strategy(
    m: int, actions: ActionModel, states: ProductStateSpace
) -> PureStrategy:
    """Mixed-radix bijection index -> strategy.

    Digit order: user 0's state-0 entry is the least significant digit, then
    user 0's remaining states, then user 1, and so on.
    """
    f = strategy_count(actions, states)
    if not 0 <= m < f:
        raise DomainError(f"strategy index {m} out of range [0, {f})")
    rem = m
    tables = []
    for a, w in zip(actions.per_user_action_counts, states.per_user_cardinalities):
        row = []
        for _ in range(w):
            row.append(rem % a)
            rem //= a
        tables.append(tuple(row))
    return PureStrategy(tuple(tables))


def encode_strategy(
    s: PureStrategy, actions: ActionModel, states: ProductStateSpace
) -> int:
    if len(s.tables) != actions.n_users:
        raise DimensionError("strategy has wrong user count")
    out = 0
    mult = 1
    for table, a, w in zip(
        s.tables, actions.per_user_action_counts, states.per_user_cardinalities
    ):
        if len(table) != w:
            raise DimensionError("strategy table length does not match state space")
        for entry in table:
            if not 0 <= entry < a:
                raise DomainError(f"action id {entry} out of range [0, {a})")
            out += entry * mult
            mult *= a
    return out


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


@dataclass(frozen=True)
class CostModel:
    """Dense cost/penalty tables p_k over (joint action, joint state).

    Index 0 is the cost; 1..K are the penalties with constraint levels c.
    """

    tables: np.ndarray  # (K+1, |A|, |Omega|)
    c: np.ndarray  # (K,)

    def __post_init__(self):
        t = _freeze(np.asarray(self.tables, dtype=np.float64))
        c = _freeze(np.asarray(self.c, dtype=np.float64).ravel())
        object.__setattr__(self, "tables", t)
        object.__setattr__(self, "c", c)
        if t.ndim != 3:
            raise DimensionError("tables must have shape (K+1, |A|, |Omega|)")
        if c.size != t.shape[0] - 1:
            raise DimensionError(
                f"{c.size} constraint levels for K={t.shape[0] - 1} penalties"
            )
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(c)):
            raise ConfigurationError("cost tables and constraint levels must be finite")

    @property
    def n_penalties(self) -> int:
        return self.tables.shape[0] - 1

    @cached_property
    def p_max(self) -> np.ndarray:
        return _freeze(self.tables.max(axis=(1, 2)))

    @cached_property
    def p_min(self) -> np.ndarray:
        return _freeze(self.tables.min(axis=(1, 2)))

    @cached_property
    def dp_max(self) -> np.ndarray:
        return _freeze(self.p_max - self.p_min)

    @cached_property
    def b_max(self) -> np.ndarray:
        return _freeze(np.maximum(np.abs(self.p_max), np.abs(self.p_min)))


def cover_rows(table: np.ndarray) -> np.ndarray:
    """Ascending ids of rows of ``table`` such that every row is <= one of
    them elementwise.

    Max-sum sweep: keep the alive row with the largest sum (lowest id on
    ties) and drop every alive row <= it.  Once a kept row drops only
    itself, keep every row still alive: a superset gives the same maxima,
    and the cost on a table with nothing to drop stays at about one pass.
    """
    sums = table.sum(axis=1)
    alive = np.arange(table.shape[0])
    kept = []
    while alive.size:
        top = alive[np.argmax(sums[alive])]
        dropped = (table[alive] <= table[top]).all(axis=1)
        if dropped.sum() == 1:
            break
        kept.append(top)
        alive = alive[~dropped]
    ids = np.sort(np.concatenate([np.array(kept, dtype=alive.dtype), alive]))
    ids.setflags(write=False)
    return ids


class StrategySpace:
    """Full enumeration of pure strategies with cached realized costs.

    ``actions_of`` holds the (F, |Omega|) joint-action matrix and ``realized``
    the (K+1, F, |Omega|) table lookups, so strategy averages reduce to
    matrix-vector products.
    """

    def __init__(
        self,
        actions: ActionModel,
        states: ProductStateSpace,
        cost: CostModel,
    ):
        if cost.tables.shape[1] != actions.total or cost.tables.shape[2] != states.total:
            raise DimensionError(
                f"cost tables shaped {cost.tables.shape[1:]} for action/state "
                f"spaces of sizes ({actions.total}, {states.total})"
            )
        self.actions = actions
        self.states = states
        self.cost = cost
        self.F = strategy_count(actions, states)
        if self.F * states.total > ACTION_MATRIX_GUARD:
            raise ConfigurationError(
                "dense strategy enumeration too large; reduce F or |Omega|"
            )
        self.actions_of = self._build_action_matrix()
        state_ids = np.arange(states.total)
        self.realized = _freeze(cost.tables[:, self.actions_of, state_ids[None, :]])

    def _build_action_matrix(self) -> np.ndarray:
        m = np.arange(self.F, dtype=np.int64)
        # per-user digit tables: digits[i][m, s] = action of user i in local state s
        digits = []
        div = np.ones_like(m)
        for a, w in zip(
            self.actions.per_user_action_counts,
            self.states.per_user_cardinalities,
        ):
            cols = []
            for _ in range(w):
                cols.append((m // div) % a)
                div = div * a
            digits.append(np.stack(cols, axis=1))
        comps = self.states.component_arrays()
        out = np.zeros((self.F, self.states.total), dtype=np.int64)
        for i, mult in enumerate(self.actions._multipliers):
            out += digits[i][:, comps[i]] * mult
        out = out.astype(np.int32)
        out.setflags(write=False)
        return out

    def apply(self, m: int, omega_id: int) -> int:
        return int(self.actions_of[m, omega_id])

    def r_vector(self, m: int, lam: FiniteDistribution) -> np.ndarray:
        """Average cost/penalty vector of strategy m under distribution lam."""
        self._check_dist(lam)
        return self.realized[:, m, :] @ lam.probs

    def r_table(self, lam: FiniteDistribution) -> np.ndarray:
        """(K+1, F) matrix of strategy averages under lam."""
        self._check_dist(lam)
        return self.realized @ lam.probs

    @cached_property
    def curvature_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)``: the ``cover_rows`` of the (F, |Omega|) table of
        sum_k (p_k - c_k)^2, and those rows.  Rows and schedule weights are
        non-negative, so a row <= another row never sets the max in
        ``b_value``."""
        diff = self.realized[1:] - self.cost.c[:, None, None]
        sq = np.einsum("kfs,kfs->fs", diff, diff)
        ids = cover_rows(sq)
        return ids, _freeze(sq[ids])

    def b_value(self, pi: FiniteDistribution) -> float:
        """Curvature constant: max_m (1/2) sum_k E_pi |p_k - c_k|^2."""
        self._check_dist(pi)
        return 0.5 * float(np.max(self.curvature_rows[1] @ pi.probs))

    def b_series(self, weights: np.ndarray) -> np.ndarray:
        """b_value evaluated along a (T, |Omega|) matrix of schedule rows."""
        if weights.ndim != 2 or weights.shape[1] != self.states.total:
            raise DimensionError("weights matrix shape mismatch")
        return 0.5 * (self.curvature_rows[1] @ weights.T).max(axis=0)

    def _check_dist(self, lam: FiniteDistribution) -> None:
        if len(lam) != self.states.total:
            raise DimensionError(
                f"distribution over {len(lam)} outcomes; state space has "
                f"{self.states.total}"
            )

