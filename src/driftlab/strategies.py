"""Pure strategies, cost/penalty tables, and strategy-average quantities.

A pure strategy maps each user's local state to a local action; the joint
strategies are enumerated 0..F-1 by a mixed-radix bijection.  One
(strategy, joint state) index into the flattened cost tables serves the LP
oracle, the curvature rows and the control loop; realized costs are looked
up through it, ``ROW_CHUNK`` strategies at a time, and never stored as a
cube or as a whole (F, |Omega|) row.
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
# Cap on F * |Omega| cells.  A space holds 4 bytes per cell (``cell_of``);
# ``r_table`` and ``curvature_rows`` add one ROW_CHUNK x |Omega| chunk while
# they run.
ACTION_MATRIX_GUARD = 2**27

# Strategies whose cost rows are gathered together.  A multiple of 16, so
# the gemv over a chunk puts every strategy in the same column block as one
# gemv over all F would, and ``r_table`` keeps that product's bits.
ROW_CHUNK = 512


def row_chunks(n: int) -> list[slice]:
    """Slices of ``ROW_CHUNK`` rows over n rows.  A lone last row joins the
    chunk before it: numpy takes a one-row product as a dot, whose rounding
    differs from the gemv tail column it is in a whole-row product."""
    bounds = [*range(0, n, ROW_CHUNK), n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


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


def cover_rows(values: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """Ascending ids of rows such that every row is <= one of them
    elementwise.  Row i is ``values[index[i]]``: row i of the table
    ``values`` without an index, a strategy's row of a flat (action, state)
    table with ``cell_of``.  Rows are gathered a ``row_chunks`` chunk at a time.

    Max-sum sweep: keep the alive row with the largest sum (lowest id on
    ties) and drop every alive row <= it.  Once a kept row drops only
    itself, keep every row still alive: a superset gives the same maxima,
    and the cost on a table with nothing to drop stays at about one pass.
    """
    if index is None:
        index = np.arange(values.shape[0])

    def each_chunk(ids, fn):
        return np.concatenate([fn(values[index[ids[chunk]]]) for chunk in row_chunks(ids.size)])

    alive = np.arange(index.shape[0])
    sums = each_chunk(alive, lambda rows: rows.sum(axis=1))
    kept = []
    while alive.size:
        top = alive[np.argmax(sums[alive])]
        top_row = values[index[top]]
        dropped = each_chunk(alive, lambda rows: (rows <= top_row).all(axis=1))
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
    matrix-vector products over cost rows gathered through it.
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
        """``cell_of`` (int32: a cell id is below |A| * |Omega| <=
        ``ACTION_MATRIX_GUARD``) in C order, so cost rows gathered through
        it are C-contiguous too."""
        # digits[m, o_i + s]: the action of user i in local state s, where
        # o_i is the number of local states of the users before i
        digits = np.stack(self.codec.component_arrays()[::-1], axis=1, dtype=np.int32)
        counts = self.states.counts
        offsets = np.cumsum((0,) + counts[:-1])
        # axis 1 + i of the (F, |Omega_1|, ..., |Omega_N|) grid is user i's
        # state, the joint state order with the first user most significant
        cells = np.zeros((self.F, *counts), dtype=np.int32)
        for i, (o, c, mult) in enumerate(zip(offsets, counts, self.actions.multipliers)):
            shape = (self.F,) + (1,) * i + (c,) + (1,) * (len(counts) - 1 - i)
            cells += (digits[:, o : o + c] * mult).reshape(shape)
        cells = cells.reshape(self.F, -1)
        cells *= self.states.total
        cells += np.arange(self.states.total)
        cells.setflags(write=False)
        return cells

    def r_table(
        self, lam: FiniteDistribution | Sequence[FiniteDistribution]
    ) -> np.ndarray:
        """(K+1, F) matrix of strategy averages under lam; a sequence of n
        distributions gives (n, K+1, F) and gathers each cost row chunk
        once.  Each chunk is C-contiguous, so the products match the same
        product over a stored (F, |Omega|) row bit for bit."""
        single = isinstance(lam, FiniteDistribution)
        lams = [lam] if single else list(lam)
        for one in lams:
            self._check_dist(one)
        flat = self.cost.tables.reshape(self.cost.n_penalties + 1, -1)
        out = np.empty((len(lams), flat.shape[0], self.F))
        for k, table in enumerate(flat):
            for chunk in row_chunks(self.F):
                rows = table[self.cell_of[chunk]]
                for i, one in enumerate(lams):
                    out[i, k, chunk] = rows @ one.probs
        return out[0] if single else out

    @cached_property
    def curvature_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)``: the ``cover_rows`` of the (F, |Omega|) table of
        sum_k (p_k - c_k)^2, and those rows.  The squares are summed once
        per (action, state) cell and gathered through ``cell_of``.  Rows and
        schedule weights are non-negative, so a row <= another row never
        sets the max in ``b_series``."""
        sq = np.zeros(self.cost.tables.shape[1:])
        for table, c in zip(self.cost.tables[1:], self.cost.c):
            diff = table - c
            sq += np.multiply(diff, diff, out=diff)
        ids = cover_rows(sq.ravel(), self.cell_of)
        return ids, _freeze(sq.ravel()[self.cell_of[ids]])

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

