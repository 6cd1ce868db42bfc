"""Delayed-feedback control loop: detection, strategy selection, queue updates.

Per slot t the loop draws the state from the schedule, detects the active
member from the delayed sample window (or picks uniformly during warmup),
selects the strategy minimizing V*r_0 + sum_k Q_k r_k under the detected
member, realizes the costs, and updates the virtual queues with the
D-delayed penalties.  Selection scans only each member's candidate
strategies (``selection_candidates``), which always contain the full-table
argmin.

Each run is strictly sequential in t.  Runs are stepped together in blocks
of at most ``PASS_ROWS // (D+1)`` runs, in passes of D+1 slots, so a pass
scores up to ``PASS_ROWS`` (run, slot) rows, through the same public
kernels (``select_strategy``, ``update_queues``, ``warmup_detect``) that a
single run uses.  Slot t selects on queues that hold costs only up to slot
t-1-D, so the D+1 selections of a pass depend on nothing the pass realizes
and are made together.  Detection does not depend on the queues, so it is
one screened pass per block before the loop: ``detect_windows`` settles each
post-warmup window from prefix sums with a rigorous rounding bound and
hands the windows it cannot settle to ``detect``, the one exact detection
kernel.  Every run draws from its own RNG streams derived from (master
seed, run index), so results do not depend on the block partition or on
execution order.

``run_ensemble`` runs its blocks in forked worker processes, one per CPU
the process may use (``os.sched_getaffinity``), and receives the runs back
in run order; it stays in-process when that is one CPU or at most
``RUN_BLOCK`` runs, when ``fork`` is not available, or when the process
runs other threads.  Results
do not depend on the CPU count.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .distributions import CoveringSet, Schedule, inverse_cdf, nearest_member
from .errors import ConfigurationError, DimensionError, DriftlabError, EstimationError
from .strategies import StrategySpace

# An ensemble of at most RUN_BLOCK runs stays in-process; a larger one gets
# one forked worker per usable CPU, at most one per RUN_BLOCK runs.
RUN_BLOCK = 16

# (run, slot) rows a block scores per pass: a block holds at most
# max(1, PASS_ROWS // (D+1)) runs.  Per-run block cost falls as a pass grows
# to about this many rows and is flat past it (BENCH_20.json); a worker's
# peak memory grows with its block.  An ensemble of n runs on W workers has
# ceil(n / cap) blocks, rounded up to a multiple of W but at most n, with
# sizes that differ by at most 1 (20 runs on 2 workers: 10 + 10); worker w
# runs blocks w, w + W, ...
PASS_ROWS = 96

# Columns tested together by ``selection_candidates``; its boolean
# temporaries are PRUNE_CHUNK x (candidates so far).
PRUNE_CHUNK = 256

# (run, slot) cells screened together by ``detect_windows``: a chunk spans
# max(w, SCREEN_CELLS // n) slots of an n-run block, and its prefix sums are
# 2 x M x n x (chunk + w) floats (BENCH_23.json).
SCREEN_CELLS = 6144


def number_problem(value, kind: type, least: float, strict: bool = False) -> str | None:
    """Why ``value`` is not a finite ``kind`` >= ``least`` (> ``least`` when
    ``strict``), or None.  An int field takes an ``int``, a float field an
    ``int`` or a ``float``; neither takes a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        return f"must be {'an integer' if kind is int else 'a number'}, got {value!r}"
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be finite, got {value}"
    if value <= least if strict else value < least:
        return f"must be {'>' if strict else '>='} {least}, got {value}"
    return None


@dataclass(frozen=True)
class SimConfig:
    space: StrategySpace
    schedule: Schedule
    covering: CoveringSet
    V: float
    D: int
    window: int
    horizon: int
    seed: int

    def w_at(self, t: int) -> int:
        """The window at slot t, ``window`` at every t; kept because
        ``bench/workloads.py`` calls it."""
        return self.window

    def validate(self) -> None:
        problems = [
            f"{name} {problem}"
            for name, kind, least in (("V", float, 0.0), ("D", int, 0), ("horizon", int, 1),
                                      ("window", int, 1), ("seed", int, 0))
            if (problem := number_problem(getattr(self, name), kind, least))
        ]
        n = self.space.states.total
        if len(self.schedule.limit) != n:
            problems.append("schedule limit length does not match the state space")
        if self.covering.n_outcomes != n:
            problems.append("covering members do not match the state space")
        longest = np.iinfo(np.intp).max // (8 * n)  # rows numpy can give (T, n) float64
        for name in ("horizon", "D"):  # a delay past the longest horizon means nothing
            value = getattr(self, name)
            if not problems and value > longest:  # Decimal formats ints past float range
                problems.append(f"{name} must be <= {longest} for {n} states, "
                                f"got {Decimal(value):.3g}")
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
        for r_table in self.space.r_table(self.covering.members):
            cand = selection_candidates(r_table)
            out.append((cand, r_table[:, cand]))
        return tuple(out)

    def warmup_mask(self) -> np.ndarray:
        return np.arange(self.horizon) < self.D + self.window


@dataclass
class RunTrace:
    omega: np.ndarray  # (T,)
    jstar: np.ndarray  # (T,) member index used (warmup slots hold the random pick)
    m: np.ndarray  # (T,)
    p: np.ndarray  # (T, K+1)
    q: np.ndarray  # (T, K) queues after each slot's update

    @property
    def horizon(self) -> int:
        return self.omega.size

    @property
    def avg(self) -> np.ndarray:
        """(T, K+1) running time averages of ``p``."""
        return np.cumsum(self.p, axis=0) / np.arange(1, self.horizon + 1)[:, None]


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
            raise EstimationError("ensemble was run without per-run arrays")
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


def select_strategy(q: np.ndarray, V: float, r_table: np.ndarray) -> int | np.ndarray:
    """argmin_m V r_0^(m) + sum_k Q_k r_k^(m); ties go to the lowest index.

    ``q`` of shape (K,) gives an int; (n, K) gives one index per run.
    Scores accumulate with elementwise ops in fixed k order so a scalar
    rescan reproduces them bit for bit, with or without the run axis.
    """
    q = np.asarray(q, dtype=np.float64)
    K = r_table.shape[0] - 1
    if K == 0:
        scores = np.broadcast_to(V * r_table[0], q.shape[:-1] + r_table.shape[1:])
    else:
        scores = V * r_table[0] + r_table[1] * q[..., 0, None]
        for k in range(1, K):
            scores += r_table[k + 1] * q[..., k, None]
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


def detect_windows(
    omega: np.ndarray, slots: np.ndarray, w: int, D: int, covering: CoveringSet,
) -> np.ndarray:
    """(n, S) ``detect`` of each run's window ``omega[:, t-D-w+1 : t-D+1]``
    for every slot t of ``slots``.

    The result equals calling ``detect`` slot by slot.  Slots are taken
    max(w, ``SCREEN_CELLS`` // n) at a time.  Over the outcomes a chunk's
    windows span, each member and run gets prefix sums of its finite
    log-likelihoods and of its zero-mass outcomes.  A window's score is a
    difference of two prefix sums, or -inf when it holds a zero-mass
    outcome.  A window is settled when the best member's lower bound is
    finite and exceeds every other member's upper bound; the others go
    through ``detect``, one call per chunk.

    Rounding bound.  Let x_i be the finite terms of one member and run
    (0 for a zero-mass outcome), P_k and A_k the exact sums of x_i and |x_i|
    over the first k outcomes of the chunk, N the chunk's outcome count,
    u = 2^-53 and g_m = m u / (1 - m u).  In any summation tree over m terms
    (left to right, pairwise or unrolled) each term passes through at most
    m - 1 roundings, so the sum is off by at most g_{m-1} times the sum of
    their magnitudes:

    1. ``cumsum``: |fl(P_k) - P_k| <= g_N A_k.
    2. A window (lo, hi] has exact sum S = P_hi - P_lo, and the screen's
       fl(fl(P_hi) - fl(P_lo)) is off by at most
       (1 + u) g_N (A_hi + A_lo) + u |S| <= g_{N+1} (A_hi + A_lo),
       since |S| <= A_hi - A_lo.
    3. ``detect`` sums the window's w <= N terms with numpy's last-axis
       ``sum``, which is pairwise and unrolled, not left to right: off by at
       most g_{w-1} (A_hi - A_lo) <= g_{N+1} (A_hi + A_lo).

    So the two scores differ by at most 2 g_{N+1} (A_hi + A_lo).  Every
    probability is at most 1 (``FiniteDistribution`` checks it), so every
    x_i <= 0 and A_k = -P_k; rounding to nearest is symmetric in sign, so
    the cumsum of |x_i| would equal -fl(P_k) exactly (a zero may differ in
    sign), and the screen takes err = -4 g_{N+1} (fl(P_hi) + fl(P_lo)).  The second factor 2 covers
    fl(A_k) >= (1 - g_N) A_k, the few roundings in err itself, and the
    rounding of score -/+ err, at most u (|score| + err) <= 2 u (A_hi + A_lo)
    against a slack err / 2 >= 2 (N + 1) u (fl(A_hi) + fl(A_lo)).  A settled
    window's best member therefore beats every other member in ``detect``
    too, strictly, so ties never matter.
    """
    slots = np.asarray(slots, dtype=np.int64)
    n, M = omega.shape[0], covering.size
    L = covering.log_matrix
    finite = np.isfinite(L)
    x = np.where(finite, L, 0.0)
    table = np.stack([x, (~finite).astype(np.float64)])  # (2, M, |Ω|)
    u = np.finfo(np.float64).eps / 2
    out = np.empty((n, slots.size), dtype=np.int64)
    chunk = max(w, SCREEN_CELLS // n)
    for lo in range(0, slots.size, chunk):
        hi = slots[lo : lo + chunk] - D + 1  # window ends (exclusive)
        start, stop = int(hi.min()) - w, int(hi.max())
        if start < 0 or stop > omega.shape[1]:
            raise DimensionError(f"windows span slots {start}..{stop - 1} outside omega")
        prefix = np.zeros((2, M, n, stop - start + 1))
        np.cumsum(table[:, :, omega[:, start:stop]], axis=-1, out=prefix[..., 1:])
        top, bottom = prefix[..., hi - start], prefix[..., hi - w - start]
        score = np.where(top[1] > bottom[1], -np.inf, top[0] - bottom[0])  # (M, n, C)
        g = (stop - start + 1) * u / (1 - (stop - start + 1) * u)
        err = -4 * g * (top[0] + bottom[0])
        best = score.argmax(axis=0)  # (n, C)
        lower = np.take_along_axis(score - err, best[None], axis=0)[0]
        upper = score + err
        np.put_along_axis(upper, best[None], -np.inf, axis=0)
        settled = np.isfinite(lower) & (lower > upper.max(axis=0))
        out[:, lo : lo + hi.size] = best
        r, c = np.nonzero(~settled)
        if r.size:
            window = omega[r[:, None], (hi[c] - w)[:, None] + np.arange(w)]
            out[r, lo + c] = detect(window, covering)
    return out


def warmup_detect(covering: CoveringSet, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size,) uniform random member picks for slots whose window is incomplete."""
    return rng.integers(covering.size, size=size)


def run_rngs(master_seed: int, run_index: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Declared splitting rule: per-run child streams for states and warmup picks."""
    ss = np.random.SeedSequence((master_seed, run_index))
    s_states, s_warm = ss.spawn(2)
    return np.random.default_rng(s_states), np.random.default_rng(s_warm)


def _draw_states(cdf: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return inverse_cdf(cdf, rng.random(cdf.shape[0])).astype(np.int32)


def _run_block(config: SimConfig, first: int, n: int) -> list[RunTrace]:
    """Step runs ``first .. first+n-1`` together, D+1 slots per pass.

    Slot t selects on the queues after slot t-1, which hold costs only up to
    slot t-1-D, so a pass over slots t0..t1-1 (t1 <= t0+D+1) first makes the
    updates that give the queues of slots t0+1..t1-1, then selects all its
    (run, slot) rows with one ``select_strategy`` call per member, realizes
    their costs, and makes its last update; warmup picks and detections come
    first.  Each row is scored on its own and each run's RNGs are drawn in
    slot order, so the streams equal stepping slot by slot; D = 0 gives
    one-slot passes.
    """
    space, covering = config.space, config.covering
    K = space.cost.n_penalties
    T, D, V = config.horizon, config.D, config.V
    c = space.cost.c
    tables = space.cost.tables.reshape(K + 1, -1)  # p_k at each space.cell_of entry
    warm = config.warmup_mask()

    rngs = [run_rngs(config.seed, first + i) for i in range(n)]
    omega = np.stack([_draw_states(config.cdf, rng_states) for rng_states, _ in rngs])

    jstar = np.empty((n, T), dtype=np.int32)
    for i, (_, rng_warm) in enumerate(rngs):  # a run's warmup picks, in slot order
        jstar[i, warm] = warmup_detect(covering, rng_warm, int(warm.sum()))
    post = np.flatnonzero(~warm)
    jstar[:, post] = detect_windows(omega, post, config.window, D, covering)
    ms = np.empty((n, T), dtype=np.int32)
    p = np.empty((n, T, K + 1))
    Q = np.zeros((n, T + 1, K))  # Q[:, t]: the queues slot t selects on
    no_delayed = np.zeros((n, K))
    for t0 in range(0, T, D + 1):
        t1 = min(t0 + D + 1, T)
        for t in range(t0, t1 - 1):
            Q[:, t + 1] = update_queues(Q[:, t], p[:, t - D, 1:] if t >= D else no_delayed, c)
        j, q = jstar[:, t0:t1], Q[:, t0:t1]  # the pass's (run, slot) rows
        m = np.empty(j.shape, dtype=np.int64)
        for member in np.unique(j):
            group = j == member
            cand, r_cand = config.candidates[member]
            m[group] = cand[select_strategy(q[group], V, r_cand)]
        ms[:, t0:t1] = m
        cells = space.cell_of[m, omega[:, t0:t1]]
        p[:, t0:t1] = np.take(tables, cells, axis=1).transpose(1, 2, 0)
        t = t1 - 1
        Q[:, t1] = update_queues(Q[:, t], p[:, t - D, 1:] if t >= D else no_delayed, c)
    return [
        RunTrace(omega=omega[i], jstar=jstar[i], m=ms[i], p=p[i], q=Q[i, 1:])
        for i in range(n)
    ]


def run(config: SimConfig, run_index: int = 0) -> RunTrace:
    """Execute one seeded run and return its full trace."""
    problem = number_problem(run_index, int, 0)
    if problem:
        raise ConfigurationError(f"run_index {problem}")
    config.validate()
    return _run_block(config, run_index, 1)[0]


def _worker_count(n_runs: int) -> int:
    """Forked workers for ``n_runs``: one per usable CPU and at most one per
    block; 1 means in-process.  A fork copies other threads' locks in
    whatever state they are in, so a process with threads stays in-process."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(cpus, -(-n_runs // RUN_BLOCK))


@dataclass(frozen=True)
class _Blocks(Sequence):
    """``count`` consecutive blocks of ``n_runs`` runs whose sizes differ by
    at most 1, larger first; block b's (first run, size) is computed from b."""

    n_runs: int
    count: int

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, b: int) -> tuple[int, int]:
        if not 0 <= b < self.count:
            raise IndexError(b)
        size, extra = divmod(self.n_runs, self.count)
        return b * size + min(b, extra), size + (b < extra)


def _partition(n_runs: int, workers: int, D: int) -> _Blocks:
    """The blocks of ``n_runs`` runs, by the rule at ``PASS_ROWS``."""
    count = -(-n_runs // max(1, PASS_ROWS // (D + 1)))
    return _Blocks(n_runs, min(-(-count // workers) * workers, n_runs))


def _in_process_runs(config: SimConfig, blocks: Iterable[tuple[int, int]]):
    for first, size in blocks:
        yield from enumerate(_run_block(config, first, size), first)


def _worker(config: SimConfig, blocks: Iterable[tuple[int, int]], conn) -> None:
    """Forked worker: send each run of ``blocks`` in order, or the exception
    that stopped it."""
    try:
        for _, trace in _in_process_runs(config, blocks):
            conn.send(trace)
    except Exception as exc:
        conn.send(exc)
    finally:
        conn.close()


def _forked_runs(config: SimConfig, blocks: _Blocks, workers: int):
    """Yield (run index, trace) in run order from ``workers`` forked workers.

    Each worker has its own pipe and sends one message per run; block b
    comes from worker b % workers.  A full pipe blocks its worker, so about
    one block per worker is in flight.  On an exception, or when the caller
    stops early, every worker is terminated and joined.
    """
    import multiprocessing

    # built once here, not in every worker after the fork
    _ = config.candidates, config.cdf, config.covering.log_matrix
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    done = False
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            procs.append(ctx.Process(
                target=_worker, daemon=True,
                args=(config, (blocks[b] for b in range(w, len(blocks), workers)), send),
            ))
            procs[-1].start()
            send.close()  # the worker holds the write end; EOF means it died
        for b, (first, size) in enumerate(blocks):
            w = b % workers
            for i in range(first, first + size):
                try:
                    msg = conns[w].recv()
                except EOFError:
                    procs[w].join()
                    raise DriftlabError(
                        f"simulation worker {w} exited with code {procs[w].exitcode} "
                        f"before sending run {i}"
                    ) from None
                if isinstance(msg, Exception):
                    raise msg
                yield i, msg
        done = True
    finally:
        for proc in procs:
            if not done:
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def merge_runs(
    config: SimConfig,
    n_runs: int,
    runs: Iterable[tuple[int, RunTrace, np.ndarray]],
    on_trace: Callable[[int, RunTrace], None] | None = None,
    store_runs: bool = True,
) -> EnsembleResult:
    """The ensemble of ``runs``, (run index, trace, final time averages) in
    run order, from the simulator or from trace files.  ``on_trace`` sees each
    run as it is merged; ``store_runs=False`` drops the per-run arrays that
    only the estimators need, bounding memory for large ensembles."""
    T = config.horizon
    K = config.space.cost.n_penalties
    sum_p = np.zeros((T, K + 1))
    final = np.empty((n_runs, K + 1))
    per_run = dict(
        p=np.empty((n_runs, T, K + 1)),
        jstar=np.empty((n_runs, T), dtype=np.int32),
        m=np.empty((n_runs, T), dtype=np.int32),
        q=np.empty((n_runs, T, K)),
    ) if store_runs else {}
    for i, tr, final_avg in runs:
        sum_p += tr.p
        final[i] = final_avg
        for name, arr in per_run.items():
            arr[i] = getattr(tr, name)
        if on_trace is not None:
            on_trace(i, tr)
    return EnsembleResult(
        mean_p=sum_p / n_runs,
        final_avg=final,
        run_count=n_runs,
        istar=config.istar,
        warmup=config.warmup_mask(),
        **per_run,
    )


def run_ensemble(
    config: SimConfig,
    n_runs: int,
    on_trace: Callable[[int, RunTrace], None] | None = None,
    store_runs: bool = True,
) -> EnsembleResult:
    """Independent seeded runs merged by run index (``merge_runs``).

    Blocks run in forked workers when there is more than one usable CPU (see
    the module docstring); ``on_trace`` and the merge run in this process.
    """
    problem = number_problem(n_runs, int, 1)
    if problem:
        raise ConfigurationError(f"n_runs {problem}")
    config.validate()
    workers = _worker_count(n_runs)
    blocks = _partition(n_runs, workers, config.D)
    runs = (
        _forked_runs(config, blocks, workers) if workers > 1
        else _in_process_runs(config, blocks)
    )
    with contextlib.closing(runs):
        return merge_runs(
            config, n_runs, ((i, tr, tr.avg[-1]) for i, tr in runs), on_trace, store_runs
        )
