"""Estimate from ensembles what the guarantee formulas bound.

The mixing estimate conditions on error-free runs exactly as the guarantees
do: for each anchor slot only the runs with no detection error in
[alpha, anchor] contribute, and the surviving count is reported so the
intervals stay honest.  Confidence half-widths are 99% normal-approximation
binomial errors, combined cell-wise in L1 for the total-variation statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .simulate import EnsembleResult
from .strategies import CostModel

Z99 = 2.5758293035489004  # two-sided 99% normal quantile

BETA1_MIN_RUNS = 100
KAPPA_MIN_CELL = 50
KAPPA_CHUNK_ROWS = 8192  # post-warmup rows per chunk of whole runs in estimate_kappa


@dataclass(frozen=True)
class AnchorEstimate:
    t: int
    tv: float
    ci_half: float
    surviving: int


@dataclass(frozen=True)
class Beta1Estimate:
    value: float  # max TV over usable anchors
    ci_half: float  # half-width at the maximizing anchor
    anchors: tuple[AnchorEstimate, ...]
    skipped: tuple[tuple[int, int], ...]  # (anchor, surviving) below the floor


def _cells(values: np.ndarray) -> tuple[np.ndarray, int]:
    _, inv = np.unique(values, return_inverse=True)
    return inv, int(inv.max()) + 1


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """The inverse of ``np.unique(rows, axis=0)``: column ranks are combined one
    column at a time and re-ranked after each, so ids stay below the row count."""
    ids = np.zeros(rows.shape[0], dtype=np.int64)
    for col in rows.T:
        rank, n = _cells(col)
        ids, _ = _cells(ids * n + rank)
    return ids


def _tv_and_ci(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    n = x.size
    xi, nx = _cells(x)
    yi, ny = _cells(y)
    joint = np.bincount(xi * ny + yi, minlength=nx * ny).reshape(nx, ny) / n
    prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    tv = 0.5 * float(np.abs(joint - prod).sum())
    mass = 0.5 * (joint + prod)
    ci = Z99 * 0.5 * float(np.sqrt(mass * (1.0 - mass) / n).sum())
    return tv, ci


def default_anchor_grid(alpha: int, last: int) -> np.ndarray:
    """Logarithmically spaced anchor slots in [alpha, last]."""
    if last < alpha:
        raise EstimationError(
            f"no anchor slots: horizon leaves nothing in [{alpha}, {last}]"
        )
    lo = max(alpha, 1)
    grid = np.unique(np.geomspace(lo, last, num=20).astype(np.int64))
    grid = grid[(grid >= alpha) & (grid <= last)]
    if alpha not in grid:
        grid = np.unique(np.concatenate([[alpha], grid]))
    return grid


def estimate_beta1(
    ensemble: EnsembleResult,
    k: int,
    s: int,
    alpha: int,
    anchors: np.ndarray | None = None,
) -> Beta1Estimate:
    """Empirical mixing coefficient of p_k at lag s, conditioned on
    error-free detection in [alpha, anchor]."""
    if ensemble.p is None or ensemble.jstar is None:
        raise EstimationError("ensemble was run without per-run arrays")
    n, T, _ = ensemble.p.shape
    if s < 1 or alpha < 0:
        raise EstimationError(f"need s >= 1 and alpha >= 0, got s={s}, alpha={alpha}")
    if anchors is None:
        anchors = default_anchor_grid(alpha, T - 1 - s)
    errors = ensemble.errors
    kept: list[AnchorEstimate] = []
    skipped: list[tuple[int, int]] = []
    for t in np.asarray(anchors, dtype=np.int64):
        t = int(t)
        if t < alpha or t + s >= T:
            raise EstimationError(f"anchor {t} outside [{alpha}, {T - 1 - s}]")
        surv = ~errors[:, alpha : t + 1].any(axis=1)
        n_surv = int(surv.sum())
        if n_surv < BETA1_MIN_RUNS:
            skipped.append((t, n_surv))
            continue
        tv, ci = _tv_and_ci(ensemble.p[surv, t, k], ensemble.p[surv, t + s, k])
        kept.append(AnchorEstimate(t=t, tv=tv, ci_half=ci, surviving=n_surv))
    if not kept:
        raise EstimationError(
            f"no anchor slot kept >= {BETA1_MIN_RUNS} error-free runs "
            f"(skipped: {skipped})"
        )
    best = max(kept, key=lambda a: a.tv)
    return Beta1Estimate(
        value=best.tv, ci_half=best.ci_half, anchors=tuple(kept), skipped=tuple(skipped)
    )


@dataclass(frozen=True)
class KappaEstimate:
    value: float | None
    reason: str
    n_strategies: int
    pooled_slots: int
    included_cells: int
    excluded_cells: int


def estimate_kappa(ensemble: EnsembleResult) -> KappaEstimate:
    """Channel-constant estimate: the largest log-ratio, over realized cost
    vectors x and strategy pairs, of the conditional frequencies P(x|m).

    Post-warmup slots are pooled across runs; cells with fewer than
    ``KAPPA_MIN_CELL`` observations are excluded from the sup.  Runs are
    counted in chunks of whole runs, about ``KAPPA_CHUNK_ROWS`` post-warmup
    rows each.  A chunk's rows are ranked (``_row_ids``) together with one
    row per cost vector seen so far, so ids and counts are those of one pass
    over the pooled rows, and memory does not grow with runs x T.
    """
    if ensemble.p is None or ensemble.m is None:
        raise EstimationError("ensemble was run without per-run arrays")
    mask = ~ensemble.warmup
    per_run = int(mask.sum())
    pooled = per_run * ensemble.run_count
    if pooled == 0:
        return KappaEstimate(None, "no post-warmup slots", 0, 0, 0, 0)
    width = ensemble.p.shape[2]
    reps = np.empty((0, width))  # row j: the cost vector with id j
    keys = np.empty(0, dtype=np.int64)  # m * n_x + id of each cell seen
    tally = np.empty(0)  # observations per cell of ``keys``
    n_x = 1
    step = max(1, KAPPA_CHUNK_ROWS // per_run)
    for start in range(0, ensemble.run_count, step):
        runs = slice(start, start + step)
        rows = np.concatenate([reps, ensemble.p[runs, mask].reshape(-1, width)])
        ids = _row_ids(rows)
        m_seen, x_seen = np.divmod(keys, n_x)
        n_x = int(ids.max()) + 1
        m_new = ensemble.m[runs, mask].ravel().astype(np.int64)
        keys, inv = np.unique(
            np.concatenate([m_seen * n_x + ids[x_seen], m_new * n_x + ids[len(reps) :]]),
            return_inverse=True,
        )
        tally = np.bincount(inv, weights=np.concatenate([tally, np.ones(m_new.size)]))
        first = np.empty(n_x, dtype=np.int64)
        first[ids] = np.arange(ids.size)
        reps = rows[first]
    m_cells, x_ids = np.divmod(keys, n_x)
    m_ids, m_inv = np.unique(m_cells, return_inverse=True)
    n_m = m_ids.size
    counts = np.zeros((n_m, n_x), dtype=np.int64)
    counts[m_inv, x_ids] = tally
    if n_m < 2:
        return KappaEstimate(
            None, "fewer than two strategies observed", n_m, pooled, 0, 0
        )
    included = counts >= KAPPA_MIN_CELL
    cond = counts / counts.sum(axis=1, keepdims=True)
    usable = included.sum(axis=0) >= 2  # cost vectors seen often under two strategies
    n_inc = int(included.sum())
    sizes = (n_m, pooled, n_inc, int((counts > 0).sum()) - n_inc)
    if not usable.any():
        return KappaEstimate(
            None, f"no cost vector observed >= {KAPPA_MIN_CELL} times under two strategies",
            *sizes,
        )
    hi = np.where(included, cond, 0.0)[:, usable].max(axis=0)
    lo = np.where(included, cond, np.inf)[:, usable].min(axis=0)
    return KappaEstimate(math.log(float((hi / lo).max())), "ok", *sizes)


@dataclass(frozen=True)
class ErrorRates:
    per_slot: np.ndarray  # (T,) fraction of runs with a wrong member per slot
    run_count: int

    def ci_half(self) -> np.ndarray:
        p = self.per_slot
        return Z99 * np.sqrt(p * (1.0 - p) / self.run_count)


def error_rate(ensemble: EnsembleResult) -> ErrorRates:
    return ErrorRates(
        per_slot=ensemble.errors.mean(axis=0), run_count=ensemble.run_count
    )


@dataclass(frozen=True)
class GapReport:
    cost_gap: float  # mean final average cost minus the LP optimum
    cost_gap_ci: float
    excess: np.ndarray  # (K,) max(0, mean final penalty - c_k)
    excess_ci: np.ndarray
    mean_final: np.ndarray  # (K+1,)


def gap_report(
    ensemble: EnsembleResult, lp_value: float, cost: CostModel
) -> GapReport:
    final = ensemble.final_avg
    n = final.shape[0]
    mean = final.mean(axis=0)
    sd = final.std(axis=0, ddof=1) if n > 1 else np.zeros_like(mean)
    ci = Z99 * sd / math.sqrt(n)
    return GapReport(
        cost_gap=float(mean[0] - lp_value),
        cost_gap_ci=float(ci[0]),
        excess=np.maximum(mean[1:] - cost.c, 0.0),
        excess_ci=ci[1:].copy(),
        mean_final=mean,
    )
