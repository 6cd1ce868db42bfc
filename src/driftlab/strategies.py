"""Pure strategies, cost/penalty tables, and strategy-average quantities.

A pure strategy maps each user's local state to a local action; the joint
strategies are enumerated 0..F-1 by a mixed-radix bijection and realized
costs are cached per (strategy, joint state) so both the LP oracle and the
control loop can consume them as dense arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import FiniteDistribution, MixedRadix, ProductStateSpace, _freeze
from .errors import ConfigurationError, DimensionError

STRATEGY_COUNT_GUARD = 2**32
ACTION_MATRIX_GUARD = 2**27  # cap on F * |Omega| for dense enumeration


@dataclass(frozen=True)
class ActionModel(MixedRadix):
    """Joint action space A = A_1 x ... x A_N, first user most significant."""

    what, digit = "action", "action"


@dataclass(frozen=True)
class StrategyCodec(MixedRadix):
    """Pure strategy ids: one action digit per (user, local state) slot.

    The slots run in reverse, so user 0's state-0 entry is the least
    significant digit, then user 0's remaining states, then user 1, and so on.
    """

    what, digit = "strategy", "action"

    @classmethod
    def of(cls, actions: ActionModel, states: ProductStateSpace) -> "StrategyCodec":
        """F = prod_i |A_i|^{|Omega_i|} ids, guarded against unenumerable sizes."""
        if actions.n_users != states.n_users:
            raise DimensionError("action and state models disagree on user count")
        pairs = list(zip(actions.counts, states.counts))
        if math.prod(a**w for a, w in pairs) > STRATEGY_COUNT_GUARD:
            raise ConfigurationError(
                f"strategy count exceeds {STRATEGY_COUNT_GUARD}; restrict the "
                "strategy class or shrink the per-user spaces"
            )
        return cls(tuple(a for a, w in pairs for _ in range(w))[::-1])


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
        self.codec = StrategyCodec.of(actions, states)
        self.F = self.codec.total
        if self.F * states.total > ACTION_MATRIX_GUARD:
            raise ConfigurationError(
                "dense strategy enumeration too large; reduce F or |Omega|"
            )
        self.actions_of = self._build_action_matrix()
        # np.take on the flat (action, state) index returns a C-contiguous
        # table, which _freeze keeps without a copy
        flat = self.actions_of.astype(np.intp) * states.total + np.arange(states.total)
        tables = cost.tables.reshape(cost.tables.shape[0], -1)
        self.realized = _freeze(np.take(tables, flat, axis=1))

    def _build_action_matrix(self) -> np.ndarray:
        # digits[m, o_i + s]: the action of user i in local state s, where
        # o_i is the number of local states of the users before i
        digits = np.stack(self.codec.component_arrays()[::-1], axis=1)
        offsets = np.cumsum((0,) + self.states.counts[:-1])
        out = sum(
            digits[:, o + comp] * mult
            for o, comp, mult in zip(
                offsets, self.states.component_arrays(), self.actions.multipliers
            )
        )
        out = out.astype(np.int32)
        out.setflags(write=False)
        return out

    def r_table(self, lam: FiniteDistribution) -> np.ndarray:
        """(K+1, F) matrix of strategy averages under lam."""
        self._check_dist(lam)
        return self.realized @ lam.probs

    @cached_property
    def curvature_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)``: the ``cover_rows`` of the (F, |Omega|) table of
        sum_k (p_k - c_k)^2, and those rows.  Rows and schedule weights are
        non-negative, so a row <= another row never sets the max in
        ``b_series``."""
        diff = self.realized[1:] - self.cost.c[:, None, None]
        sq = np.einsum("kfs,kfs->fs", diff, diff)
        ids = cover_rows(sq)
        return ids, _freeze(sq[ids])

    def b_series(self, weights: np.ndarray) -> np.ndarray:
        """Curvature constant max_m (1/2) sum_k E |p_k - c_k|^2 under each row
        of a (T, |Omega|) matrix of schedule rows."""
        if weights.ndim != 2 or weights.shape[1] != self.states.total:
            raise DimensionError("weights matrix shape mismatch")
        return 0.5 * (self.curvature_rows[1] @ weights.T).max(axis=0)

    def _check_dist(self, lam: FiniteDistribution) -> None:
        if len(lam) != self.states.total:
            raise DimensionError(
                f"distribution over {len(lam)} outcomes; state space has "
                f"{self.states.total}"
            )

