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


@dataclass(frozen=True)
class AnchorEstimate:
    t: int
    tv: float
    ci_half: float
    surviving: int


@dataclass(frozen=True)
class Beta1Estimate:
    k: int
    s: int
    alpha: int
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
    joint = np.zeros((nx, ny))
    np.add.at(joint, (xi, yi), 1.0)
    joint /= n
    prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    tv = 0.5 * float(np.abs(joint - prod).sum())
    mass = 0.5 * (joint + prod)
    ci = Z99 * 0.5 * float(np.sqrt(mass * (1.0 - mass) / n).sum())
    return tv, ci


def default_anchor_grid(alpha: int, last: int, count: int = 20) -> np.ndarray:
    """Logarithmically spaced anchor slots in [alpha, last]."""
    if last < alpha:
        raise EstimationError(
            f"no anchor slots: horizon leaves nothing in [{alpha}, {last}]"
        )
    lo = max(alpha, 1)
    grid = np.unique(np.geomspace(lo, last, num=count).astype(np.int64))
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
    min_runs: int = BETA1_MIN_RUNS,
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
        if n_surv < min_runs:
            skipped.append((t, n_surv))
            continue
        tv, ci = _tv_and_ci(ensemble.p[surv, t, k], ensemble.p[surv, t + s, k])
        kept.append(AnchorEstimate(t=t, tv=tv, ci_half=ci, surviving=n_surv))
    if not kept:
        raise EstimationError(
            f"no anchor slot kept >= {min_runs} error-free runs "
            f"(skipped: {skipped})"
        )
    best = max(kept, key=lambda a: a.tv)
    return Beta1Estimate(
        k=k, s=s, alpha=alpha, value=best.tv, ci_half=best.ci_half,
        anchors=tuple(kept), skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class KappaEstimate:
    value: float | None
    reason: str
    n_strategies: int
    pooled_slots: int
    included_cells: int
    excluded_cells: int


def estimate_kappa(
    ensemble: EnsembleResult,
    min_cell: int = KAPPA_MIN_CELL,
) -> KappaEstimate:
    """Channel-constant estimate: the largest log-ratio, over realized cost
    vectors x and strategy pairs, of the conditional frequencies P(x|m).

    Post-warmup slots are pooled across runs; cells with fewer than
    ``min_cell`` observations are excluded from the sup.
    """
    if ensemble.p is None or ensemble.m is None:
        raise EstimationError("ensemble was run without per-run arrays")
    mask = ~ensemble.warmup
    pooled = int(mask.sum()) * ensemble.run_count
    if pooled == 0:
        return KappaEstimate(None, "no post-warmup slots", 0, 0, 0, 0)
    m_flat = ensemble.m[:, mask].ravel()
    x_rows = ensemble.p[:, mask, :].reshape(pooled, -1)
    x_flat = _row_ids(x_rows)
    m_ids, m_inv = np.unique(m_flat, return_inverse=True)
    n_m = m_ids.size
    n_x = int(x_flat.max()) + 1
    counts = np.zeros((n_m, n_x))
    np.add.at(counts, (m_inv, x_flat), 1.0)
    if n_m < 2:
        return KappaEstimate(
            None, "fewer than two strategies observed", n_m, pooled, 0, 0
        )
    totals = counts.sum(axis=1, keepdims=True)
    included = counts >= min_cell
    cond = np.where(included, counts / totals, np.nan)
    best = None
    for x in range(n_x):
        col = cond[:, x]
        vals = col[np.isfinite(col)]
        if vals.size < 2:
            continue
        ratio = math.log(float(vals.max()) / float(vals.min()))
        if best is None or ratio > best:
            best = ratio
    n_inc = int(included.sum())
    if best is None:
        return KappaEstimate(
            None,
            f"no cost vector observed >= {min_cell} times under two strategies",
            n_m, pooled, n_inc, int((counts > 0).sum()) - n_inc,
        )
    return KappaEstimate(
        max(best, 0.0), "ok", n_m, pooled, n_inc, int((counts > 0).sum()) - n_inc
    )


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
