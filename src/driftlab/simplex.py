"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.
Deterministic: Bland's rule picks the lowest-index entering column and breaks
ratio ties by the lowest basic-variable index, so repeated solves of the same
instance pivot identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_EPS = 1e-10
FEAS_TOL = 1e-9
ITERATION_CAP = 100_000


@dataclass
class SimplexResult:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None
    value: float
    basis: list[int] | None
    reduced_costs: np.ndarray | None  # over structural + slack columns


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _bland_iterate(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Pivot until optimal/unbounded. Objective row is T[-1]; RHS is T[:, -1]."""
    for _ in range(ITERATION_CAP):
        negative = np.flatnonzero(T[-1, :ncols] < -PIVOT_EPS)
        if not negative.size:
            return "optimal"
        entering = int(negative[0])
        rows = T[:-1, entering]
        best_ratio, leave = None, -1
        for i in range(T.shape[0] - 1):
            if rows[i] > PIVOT_EPS:
                ratio = T[i, -1] / rows[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - PIVOT_EPS
                    or (abs(ratio - best_ratio) <= PIVOT_EPS and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, entering)
        basis[leave] = entering
    raise RuntimeError("simplex iteration cap exceeded")


def solve(
    c: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    A_eq: np.ndarray,
    b_eq: np.ndarray,
) -> SimplexResult:
    c = np.asarray(c, dtype=np.float64).ravel()
    n = c.size
    A_ub = np.atleast_2d(np.asarray(A_ub, float))
    b_ub = np.asarray(b_ub, float).ravel()
    A_eq = np.atleast_2d(np.asarray(A_eq, float))
    b_eq = np.asarray(b_eq, float).ravel()
    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq

    # columns: structural | slacks | artificials
    A = np.zeros((m, n + m_ub))
    A[:m_ub, :n] = A_ub
    A[:m_ub, n : n + m_ub] = np.eye(m_ub)
    A[m_ub:, :n] = A_eq
    b = np.concatenate([b_ub, b_eq])

    neg = b < 0
    A[neg] *= -1.0
    b = np.abs(b)

    needs_artificial = np.ones(m, dtype=bool)
    basis: list[int] = [-1] * m
    for i in range(m_ub):
        if not neg[i]:
            basis[i] = n + i
            needs_artificial[i] = False
    n_art = int(needs_artificial.sum())
    ncols = n + m_ub
    total = ncols + n_art
    T = np.zeros((m + 1, total + 1))
    T[:m, :ncols] = A
    T[:m, -1] = b
    art_col = ncols
    for i in range(m):
        if needs_artificial[i]:
            T[i, art_col] = 1.0
            basis[i] = art_col
            art_col += 1

    if n_art:
        # phase-1 objective: minimize the artificial sum
        for i in range(m):
            if basis[i] >= ncols:
                T[-1, : total] -= T[i, : total]
                T[-1, -1] -= T[i, -1]
        T[-1, ncols:total] += 1.0
        status = _bland_iterate(T, basis, total)
        if status != "optimal" or -T[-1, -1] > FEAS_TOL:
            return SimplexResult("infeasible", None, float("inf"), None, None)
        # drive any zero-level artificial out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] >= ncols:
                nonzero = np.flatnonzero(np.abs(T[i, :ncols]) > PIVOT_EPS)
                if nonzero.size:
                    piv = int(nonzero[0])
                    _pivot(T, i, piv)
                    basis[i] = piv
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            T = T[np.r_[keep, [m]]]
            basis = [basis[i] for i in keep]
            m = len(keep)
        T = np.delete(T, np.s_[ncols:total], axis=1)

    # phase 2
    cost = np.zeros(ncols)
    cost[:n] = c
    T[-1, :ncols] = cost
    T[-1, -1] = 0.0
    for i in range(m):
        if cost[basis[i]] != 0.0:
            T[-1, : ncols] -= cost[basis[i]] * T[i, : ncols]
            T[-1, -1] -= cost[basis[i]] * T[i, -1]
    status = _bland_iterate(T, basis, ncols)
    if status == "unbounded":
        return SimplexResult("unbounded", None, float("-inf"), None, None)
    x = np.zeros(ncols)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    return SimplexResult(
        "optimal",
        x[:n].copy(),
        float(c @ x[:n]),
        list(basis),
        T[-1, :ncols].copy(),
    )
