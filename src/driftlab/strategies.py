"""Pure strategies, cost/penalty tables, and strategy-average quantities.

A pure strategy maps each user's local state to a local action; the joint
strategies are enumerated 0..F-1 by a mixed-radix bijection.  One
(strategy, joint state) index into the flattened cost tables serves the LP
oracle, the curvature rows and the control loop; realized costs are looked
up through it, one cost row at a time, and never stored as a cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .distributions import FiniteDistribution, MixedRadix, ProductStateSpace, _freeze
from .errors import ConfigurationError, DimensionError

STRATEGY_COUNT_GUARD = 2**32
# Cap on F * |Omega| cells.  A space holds 8 bytes per cell (``cell_of``);
# ``r_table`` and ``curvature_rows`` add 8-16 while they run.
ACTION_MATRIX_GUARD = 2**27


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
    """Full enumeration of pure strategies.

    ``cell_of`` holds the flat (joint action, joint state) index of each
    (strategy, state), so the realized cost of strategy m in state omega is
    ``cost.tables[k].ravel()[cell_of[m, omega]]``, its joint action is
    ``cell_of[m, omega] // |Omega|``, and strategy averages reduce to
    matrix-vector products over ``cost_row(k)``.
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
        self.cell_of = self._build_index()

    def _build_index(self) -> np.ndarray:
        """``cell_of`` (intp) in C order, so a cost row gathered through it is
        C-contiguous too."""
        # digits[m, o_i + s]: the action of user i in local state s, where
        # o_i is the number of local states of the users before i
        digits = np.stack(self.codec.component_arrays()[::-1], axis=1)
        counts = self.states.counts
        offsets = np.cumsum((0,) + counts[:-1])
        # axis 1 + i of the (F, |Omega_1|, ..., |Omega_N|) grid is user i's
        # state, the joint state order with the first user most significant
        cells = np.zeros((self.F, *counts), dtype=np.intp)
        for i, (o, c, mult) in enumerate(zip(offsets, counts, self.actions.multipliers)):
            shape = (self.F,) + (1,) * i + (c,) + (1,) * (len(counts) - 1 - i)
            cells += (digits[:, o : o + c] * mult).reshape(shape)
        cells = cells.reshape(self.F, -1)
        cells *= self.states.total
        cells += np.arange(self.states.total)
        cells.setflags(write=False)
        return cells

    def cost_row(self, k: int) -> np.ndarray:
        """(F, |Omega|) realized p_k of each strategy in each state, gathered
        on each call.  It is C-contiguous, so ``r_table``'s products match
        the same product over a stored table bit for bit."""
        return self.cost.tables[k].ravel()[self.cell_of]

    def r_table(
        self, lam: FiniteDistribution | Sequence[FiniteDistribution]
    ) -> np.ndarray:
        """(K+1, F) matrix of strategy averages under lam; a sequence of n
        distributions gives (n, K+1, F) and gathers each cost row once."""
        single = isinstance(lam, FiniteDistribution)
        lams = [lam] if single else list(lam)
        for one in lams:
            self._check_dist(one)
        out = np.empty((len(lams), self.cost.n_penalties + 1, self.F))
        for k in range(out.shape[1]):
            row = self.cost_row(k)
            for i, one in enumerate(lams):
                out[i, k] = row @ one.probs
        return out[0] if single else out

    @cached_property
    def curvature_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)``: the ``cover_rows`` of the (F, |Omega|) table of
        sum_k (p_k - c_k)^2, and those rows.  Rows and schedule weights are
        non-negative, so a row <= another row never sets the max in
        ``b_series``."""
        sq = np.zeros(self.cell_of.shape)
        for k, c in enumerate(self.cost.c, 1):
            diff = self.cost_row(k)
            diff -= c
            sq += np.multiply(diff, diff, out=diff)
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

