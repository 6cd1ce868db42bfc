"""Delayed-feedback control loop: detection, strategy selection, queue updates.

Per slot t the loop draws the state from the schedule, detects the active
member from the delayed sample window (or picks uniformly during warmup),
selects the strategy minimizing V*r_0 + sum_k Q_k r_k under the detected
member, realizes the costs, and updates the virtual queues with the
D-delayed penalties.  Selection scans only each member's candidate
strategies (``selection_candidates``), which always contain the full-table
argmin.

Each run is strictly sequential in t.  Runs are stepped together in blocks
of ``RUN_BLOCK``, slot by slot, through the same public kernels (``detect``,
``select_strategy``, ``update_queues``, ``warmup_detect``) that a single run
uses.  Every run draws from its own RNG streams derived from (master seed,
run index), so results do not depend on the block partition or on execution
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .distributions import CoveringSet, Schedule, inverse_cdf, nearest_member
from .errors import ConfigurationError, DimensionError
from .strategies import StrategySpace

# Runs stepped together per block.  Per-block arrays grow with it; 16 keeps
# the ensemble's peak memory within a few percent of one run at a time.
RUN_BLOCK = 16

# Columns tested together by ``selection_candidates``; its boolean
# temporaries are PRUNE_CHUNK x (candidates so far).
PRUNE_CHUNK = 256


@dataclass(frozen=True)
class SimConfig:
    space: StrategySpace
    schedule: Schedule
    covering: CoveringSet
    V: float
    D: int
    window: int | Callable[[int], int]
    horizon: int
    seed: int

    def w_at(self, t: int) -> int:
        return self.window if isinstance(self.window, int) else int(self.window(t))

    @cached_property
    def windows(self) -> np.ndarray:
        """(T,) read-only window size of each slot."""
        T, w = self.horizon, self.window
        windows = np.full(T, w) if isinstance(w, int) else np.array([int(w(t)) for t in range(T)])
        windows.setflags(write=False)
        return windows

    def validate(self) -> None:
        problems = []
        if not math.isfinite(self.V) or self.V < 0:
            problems.append(f"V must be finite and >= 0, got {self.V}")
        if self.D < 0:
            problems.append(f"delay D must be >= 0, got {self.D}")
        if self.horizon < 1:
            problems.append(f"horizon must be >= 1, got {self.horizon}")
        elif (self.windows < 1).any():
            t = int(np.argmax(self.windows < 1))
            problems.append(f"window size at t={t} is {self.windows[t]} (< 1)")
        n = self.space.states.total
        if len(self.schedule.limit) != n:
            problems.append("schedule limit length does not match the state space")
        if self.covering.n_outcomes != n:
            problems.append("covering members do not match the state space")
        uncovered = ~(self.covering.prob_matrix > 0).any(axis=0)
        if not problems and uncovered.any():
            weights = self.schedule.weights_matrix(self.horizon)[:, uncovered]
            slots, outcomes = np.nonzero(weights > 0)
            if slots.size:
                outcome = int(np.flatnonzero(uncovered)[outcomes[0]])
                problems.append(
                    f"schedule gives mass to outcome {outcome} from slot {slots[0]}, "
                    "but every covering member has zero mass there"
                )
        if problems:
            raise ConfigurationError("; ".join(problems))

    @cached_property
    def istar(self) -> int:
        idx, _ = nearest_member(self.covering, self.schedule.limit, warn=False)
        return idx

    @cached_property
    def cdf(self) -> np.ndarray:
        """(T, |Ω|) per-slot state CDFs of the schedule."""
        return np.cumsum(self.schedule.weights_matrix(self.horizon), axis=1)

    @cached_property
    def candidates(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per member: (candidate indices, r_table columns of those candidates)."""
        out = []
        for r_table in map(self.space.r_table, self.covering.members):
            cand = selection_candidates(r_table)
            out.append((cand, r_table[:, cand]))
        return tuple(out)

    def warmup_mask(self) -> np.ndarray:
        return np.arange(self.horizon) <= self.D + self.windows - 1


@dataclass
class RunTrace:
    omega: np.ndarray  # (T,)
    jstar: np.ndarray  # (T,) member index used (warmup slots hold the random pick)
    warmup: np.ndarray  # (T,) bool
    m: np.ndarray  # (T,)
    p: np.ndarray  # (T, K+1)
    q: np.ndarray  # (T, K) queues after each slot's update
    avg: np.ndarray  # (T, K+1)

    @property
    def horizon(self) -> int:
        return self.omega.size


@dataclass
class EnsembleResult:
    mean_p: np.ndarray  # (T, K+1) per-slot means across runs
    final_avg: np.ndarray  # (n, K+1) per-run final time averages
    run_count: int
    istar: int
    warmup: np.ndarray  # (T,) bool
    p: np.ndarray | None = None  # (n, T, K+1) per-run realized costs
    jstar: np.ndarray | None = None  # (n, T)
    m: np.ndarray | None = None  # (n, T)
    q: np.ndarray | None = None  # (n, T, K) queues after each slot's update

    @property
    def errors(self) -> np.ndarray:
        """(n, T) bool: slots whose used member differs from the limit's."""
        if self.jstar is None:
            raise ValueError("per-run arrays were not retained")
        return self.jstar != self.istar


def update_queues(q: np.ndarray, p_delayed: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Q <- max(Q + p(t-D) - c, 0), componentwise.

    ``q`` and ``p_delayed`` may carry a leading run axis, shape (n, K).
    """
    q = np.asarray(q, dtype=np.float64)
    p_delayed = np.asarray(p_delayed, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if q.shape != p_delayed.shape or q.shape[-1:] != c.shape:
        raise DimensionError("queue, penalty, and constraint shapes differ")
    return np.maximum(q + p_delayed - c, 0.0)


def lyapunov_drift(q_before: np.ndarray, q_after: np.ndarray) -> tuple[float, float, float]:
    """(L_before, L_after, drift) with L = ||Q||^2 / 2."""
    lb = 0.5 * float(np.dot(q_before, q_before))
    la = 0.5 * float(np.dot(q_after, q_after))
    return lb, la, la - lb


def select_strategy(q: np.ndarray, V: float, r_table: np.ndarray) -> int | np.ndarray:
    """argmin_m V r_0^(m) + sum_k Q_k r_k^(m); ties go to the lowest index.

    ``q`` of shape (K,) gives an int; (n, K) gives one index per run.
    Scores accumulate with elementwise ops in fixed k order so a scalar
    rescan reproduces them bit for bit, with or without the run axis.
    """
    q = np.asarray(q, dtype=np.float64)
    scores = np.broadcast_to(V * r_table[0], q.shape[:-1] + r_table.shape[1:])
    for k in range(r_table.shape[0] - 1):
        scores = scores + r_table[k + 1] * q[..., k, None]
    m = scores.argmin(axis=-1)
    return int(m) if m.ndim == 0 else m


def selection_candidates(r_table: np.ndarray) -> np.ndarray:
    """Ascending indices m that no lower index m' weakly dominates.

    m' dominates m when r[:, m'] <= r[:, m] in every row.  For V and q finite
    and >= 0, rounding keeps the score monotone in each r, so a dominated m
    never beats its dominator and the lowest-index argmin of
    ``select_strategy`` over the full table is always a candidate:
    ``cand[select_strategy(q, V, r_table[:, cand])]`` equals
    ``select_strategy(q, V, r_table)``.

    Columns are tested a chunk at a time against the candidates found so far
    and against lower indices inside the chunk; by transitivity this equals
    the all-pairs test, and temporaries stay at chunk x candidates.
    """
    F = r_table.shape[1]
    keep = np.empty(0, dtype=np.int64)
    for lo in range(0, F, PRUNE_CHUNK):
        block = r_table[:, lo : lo + PRUNE_CHUNK]
        n = block.shape[1]
        kept = r_table[:, keep]
        by_kept = np.ones((n, keep.size), dtype=bool)
        within = np.tri(n, k=-1, dtype=bool)  # [m, m'] for m' < m
        for row, kept_row in zip(block, kept):
            by_kept &= kept_row <= row[:, None]
            within &= row <= row[:, None]
        dominated = by_kept.any(axis=1) | within.any(axis=1)
        keep = np.concatenate([keep, lo + np.flatnonzero(~dominated)])
    return keep


def detect(window: Sequence[int] | np.ndarray, covering: CoveringSet) -> int | np.ndarray:
    """Most likely member for the delayed window; ties go to the lowest index.

    A window of shape (w,) gives an int; (n, w) gives one member per run.
    Members with zero mass on an observed outcome score -inf and rank last.
    """
    w = np.asarray(window, dtype=np.int64)
    j = covering.log_matrix[:, w].sum(axis=-1).argmax(axis=0)
    return int(j) if j.ndim == 0 else j


def warmup_detect(covering: CoveringSet, rng: np.random.Generator) -> int:
    """Uniform random member pick for slots whose window is incomplete."""
    return int(rng.integers(covering.size))


def run_rngs(master_seed: int, run_index: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Declared splitting rule: per-run child streams for states and warmup picks."""
    ss = np.random.SeedSequence((master_seed, run_index))
    s_states, s_warm = ss.spawn(2)
    return np.random.default_rng(s_states), np.random.default_rng(s_warm)


def _draw_states(cdf: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return inverse_cdf(cdf, rng.random(cdf.shape[0])).astype(np.int32)


def _run_block(config: SimConfig, first: int, n: int) -> list[RunTrace]:
    """Step runs ``first .. first+n-1`` together, slot by slot."""
    space, covering = config.space, config.covering
    K = space.cost.n_penalties
    T, D, V = config.horizon, config.D, config.V
    c = space.cost.c
    warm, windows = config.warmup_mask(), config.windows

    rngs = [run_rngs(config.seed, first + i) for i in range(n)]
    omega = np.stack([_draw_states(config.cdf, rng_states) for rng_states, _ in rngs])

    jstar = np.empty((n, T), dtype=np.int32)
    ms = np.empty((n, T), dtype=np.int32)
    p = np.empty((n, T, K + 1))
    qlog = np.empty((n, T, K))
    q = np.zeros((n, K))
    no_delayed = np.zeros((n, K))
    for t in range(T):
        if warm[t]:
            j = np.array([warmup_detect(covering, rng_warm) for _, rng_warm in rngs])
        else:
            j = detect(omega[:, t - D - windows[t] + 1 : t - D + 1], covering)
        m = np.empty(n, dtype=np.int64)
        for member in np.unique(j):
            group = j == member
            cand, r_cand = config.candidates[member]
            m[group] = cand[select_strategy(q[group], V, r_cand)]
        p[:, t] = space.realized[:, m, omega[:, t]].T
        q = update_queues(q, p[:, t - D, 1:] if t >= D else no_delayed, c)
        qlog[:, t] = q
        jstar[:, t] = j
        ms[:, t] = m
    avg = np.cumsum(p, axis=1) / np.arange(1, T + 1)[:, None]
    return [
        RunTrace(omega=omega[i], jstar=jstar[i], warmup=warm.copy(), m=ms[i],
                 p=p[i], q=qlog[i], avg=avg[i])
        for i in range(n)
    ]


def run(config: SimConfig, run_index: int = 0) -> RunTrace:
    """Execute one seeded run and return its full trace."""
    config.validate()
    return _run_block(config, run_index, 1)[0]


def run_ensemble(
    config: SimConfig,
    n_runs: int,
    on_trace: Callable[[int, RunTrace], None] | None = None,
    store_runs: bool = True,
) -> EnsembleResult:
    """Independent seeded runs merged by run index.

    ``on_trace`` is invoked with each completed run (for streaming output);
    ``store_runs=False`` drops the per-run arrays that only the estimators
    need, bounding memory for large ensembles.
    """
    if n_runs < 1:
        raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
    config.validate()
    T = config.horizon
    K = config.space.cost.n_penalties
    sum_p = np.zeros((T, K + 1))
    final = np.empty((n_runs, K + 1))
    p_runs = np.empty((n_runs, T, K + 1)) if store_runs else None
    j_runs = np.empty((n_runs, T), dtype=np.int32) if store_runs else None
    m_runs = np.empty((n_runs, T), dtype=np.int32) if store_runs else None
    q_runs = np.empty((n_runs, T, K)) if store_runs else None
    for first in range(0, n_runs, RUN_BLOCK):
        block = _run_block(config, first, min(RUN_BLOCK, n_runs - first))
        for i, tr in enumerate(block, first):
            sum_p += tr.p
            final[i] = tr.avg[-1]
            if store_runs:
                p_runs[i] = tr.p
                j_runs[i] = tr.jstar
                m_runs[i] = tr.m
                q_runs[i] = tr.q
            if on_trace is not None:
                on_trace(i, tr)
    return EnsembleResult(
        mean_p=sum_p / n_runs,
        final_avg=final,
        run_count=n_runs,
        istar=config.istar,
        warmup=config.warmup_mask(),
        p=p_runs,
        jstar=j_runs,
        m=m_runs,
        q=q_runs,
    )
