"""Closed-form evaluation of the performance guarantees.

Two formula disputes ship behind one mode flag. "literal" reproduces the
printed forms (detection exponent multiplied by the squared log-range zeta;
concentration exponent with v_t squared); "default" uses the
derivation-consistent forms (divide by zeta; v_t to the first power).
Probability-like outputs can exceed 1; callers get the raw value and may
clamp for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import CoveringSet, Schedule
from .errors import ConfigurationError, DimensionError, DomainError
from .strategies import StrategySpace

MODE_DEFAULT = "default"
MODE_LITERAL = "literal"
LOG3 = math.log(3.0)


def _check_mode(mode: str) -> None:
    if mode not in (MODE_DEFAULT, MODE_LITERAL):
        raise ConfigurationError(f"unknown bound mode {mode!r}")


def clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _phi(zeta, div, w, mode: str):
    """Detection exponent of a w-sample window at divergence div (scalars or arrays)."""
    if mode == MODE_LITERAL:
        return 2.0 * zeta * div * div * w
    return 2.0 * div * div * w / zeta


def s_t_delta(
    t: int,
    alpha_t: int,
    zeta: float,
    min_divergence: float,
    n_min_window: int,
    M: int,
    mode: str = MODE_DEFAULT,
) -> tuple[float, float]:
    """Per-slot cap S = M exp(-phi) of the smallest window and divergence, and
    the interval bound (t - alpha_t) * S."""
    _check_mode(mode)
    if n_min_window < 1:
        raise DomainError(f"minimum window must be >= 1, got {n_min_window}")
    s = math.exp(-_phi(zeta, min_divergence, n_min_window, mode) + math.log(M))
    return s, (t - alpha_t) * s


def log_ratio_prefix(weights: np.ndarray, covering: CoveringSet, istar: int) -> np.ndarray:
    """(T+1, M) prefix sums over slots of each member's expected log-ratio
    against member ``istar`` under the (T, |Omega|) schedule ``weights``;
    row 0 is zero."""
    logm = covering.log_matrix
    if not np.all(np.isfinite(logm)):
        raise DomainError("divergence series needs strictly positive members")
    per_slot = weights @ (logm - logm[istar]).T  # (T, M)
    return np.vstack([np.zeros((1, per_slot.shape[1])), np.cumsum(per_slot, axis=0)])


def divergence_window_series(
    prefix: np.ndarray,
    istar: int,
    D: int,
    windows: np.ndarray,
) -> np.ndarray:
    """(T,) smallest wrong-member divergence magnitude per slot.

    ``prefix`` is the schedule's ``log_ratio_prefix`` over the T slots and
    ``windows`` holds each slot's window size (``SimConfig.windows``).  The
    per-slot expected log-ratio is averaged over each slot's delayed
    window; warmup slots (incomplete window) hold NaN since the error bound
    there is the uniform-pick constant.
    """
    w = np.asarray(windows, dtype=np.int64)
    horizon = w.size
    if prefix.ndim != 2 or prefix.shape[0] != horizon + 1:
        raise DimensionError(f"prefix sums shaped {prefix.shape} for {horizon} slots")
    out = np.full(horizon, np.nan)
    wrong = [j for j in range(prefix.shape[1]) if j != istar]
    if not wrong:
        return out
    tau = np.flatnonzero(np.arange(horizon) > D + w - 1)  # past warmup
    hi = tau - D + 1
    lo = hi - w[tau]
    avg = (prefix[hi] - prefix[lo]) / w[tau, None]
    out[tau] = np.abs(avg[:, wrong]).min(axis=1)
    return out


def pe_sequence(
    D: int,
    windows: np.ndarray,
    zeta: float,
    div_series: np.ndarray,
    M: int,
    mode: str = MODE_DEFAULT,
) -> np.ndarray:
    """Raw detection-error bounds for slots 0..T-1, where ``windows`` holds
    each slot's window size (``SimConfig.windows``) and ``div_series`` the
    same slots' divergence floor.

    One array expression: a warmup slot (incomplete window) holds the
    uniform-pick error 1/M exactly; past warmup a slot holds the
    ``s_t_delta`` cap at its own window and divergence, NaN counting as 0,
    which may differ from a scalar ``math.exp`` evaluation by 1 ulp.
    """
    _check_mode(mode)
    if M < 1:
        raise ConfigurationError(f"M must be >= 1, got {M}")
    w = np.asarray(windows, dtype=np.int64)
    div = np.asarray(div_series, dtype=np.float64)
    if w.shape != div.shape:
        raise DimensionError(f"windows shaped {w.shape}, divergence series {div.shape}")
    div = np.where(np.isnan(div), 0.0, div)
    out = np.exp(-_phi(zeta, div, w, mode) + math.log(M))
    out[np.arange(w.size) <= D + w - 1] = 1.0 / M
    return out


def nonstationarity_series(schedule: Schedule, space: StrategySpace, weights: np.ndarray):
    """Per-slot (drift, b_series) over the rows of ``weights``, the
    schedule's ``weights_matrix``: each slot's L1 distance from the limit
    distribution, and its B term."""
    drift = np.abs(weights - schedule.limit.probs[None, :]).sum(axis=1)
    return drift, space.b_series(weights)


def jbar_ht(
    t: int,
    drift: np.ndarray,
    b_series: np.ndarray,
    p_max: np.ndarray,
    delta: float,
    D: int,
) -> tuple[float, float]:
    """Non-stationarity terms (jbar, hbar) at slot t from the
    ``nonstationarity_series``, which must cover slots 0..t-1."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    jbar = float(np.max(p_max) * (drift[:t].mean() + delta))
    hbar = float((1 + 2 * D) / t * b_series[:t].sum())
    return jbar, hbar


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs for the bound stack at a fixed slot t."""

    t: int
    alpha_t: int
    u_t: int
    v_t: int
    V: float
    D: int
    lyapunov_cap: float  # C with L(D) <= C
    F: int
    n_outcomes: int
    K: int
    c_hat: float
    p_max: np.ndarray  # (K+1,)
    p_min: np.ndarray
    c: np.ndarray  # (K,)
    gap: float  # LP substitution gap
    jbar: float
    hbar: float
    kappa: float | None = None
    p_opt: float | None = None  # plays the role of c_0

    def __post_init__(self):
        if self.u_t * self.v_t != self.t - self.alpha_t:
            raise ConfigurationError(
                f"u_t*v_t = {self.u_t * self.v_t} must equal t - alpha_t = "
                f"{self.t - self.alpha_t}"
            )
        if min(self.t, self.u_t, self.v_t) < 1 or self.alpha_t < 0:
            raise ConfigurationError("blocking constants must be positive")
        if self.V <= 0:
            raise ConfigurationError(f"V must be > 0 in the bound stack, got {self.V}")
        for name in ("p_max", "p_min", "c"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.float64)
            )
        if self.p_max.size != self.K + 1 or self.c.size != self.K:
            raise DimensionError("cost-bound vectors inconsistent with K")

    @property
    def dp_max(self) -> np.ndarray:
        return self.p_max - self.p_min

    @property
    def rho(self) -> float:
        return float(np.sum((self.p_max[1:] - self.c) ** 2))

    def c_for(self, k: int) -> float:
        if k == 0:
            if self.p_opt is None:
                raise DomainError("k=0 needs the optimal cost (p_opt) as its level")
            return self.p_opt
        return float(self.c[k - 1])


@dataclass(frozen=True)
class PsiQGamma:
    psi: float
    gamma_t: float
    q_up: float


def psi_q_gamma(
    inputs: BoundInputs,
    pe_seq: np.ndarray,
    b_seq: np.ndarray,
) -> PsiQGamma:
    """The cost-side slack psi_t, queue-side Gamma_t, and Q_up(t)."""
    t, V, D = inputs.t, inputs.V, inputs.D
    pe = np.asarray(pe_seq, dtype=np.float64)[:t]
    b = np.asarray(b_seq, dtype=np.float64)[:t]
    if pe.size != t or b.size != t:
        raise DimensionError("pe and B sequences must cover slots 0..t-1")
    tau = np.arange(t)
    sum_pe = float(pe.sum())
    sum_bpe = float((b * pe).sum())
    sum_tpe = float((tau * pe).sum())
    c1 = inputs.c_hat + 1.0
    psi = (
        (V * c1 * inputs.jbar + inputs.hbar + inputs.lyapunov_cap / t) / V
        + (1 + 2 * D) / (t * V) * sum_bpe
        + inputs.p_max[0] / t * sum_pe
        + inputs.rho / (V * t) * sum_tpe
    )
    gamma = (
        V * c1 * (inputs.gap + inputs.jbar)
        + inputs.hbar
        + inputs.lyapunov_cap
        + (1 + 2 * D) * sum_bpe
        + inputs.p_max[0] * sum_pe
        + inputs.rho * sum_tpe
    )
    q_up = math.sqrt(V * inputs.F / t + gamma / (t * t))
    return PsiQGamma(float(psi), float(gamma), float(q_up))


def pac_rhs(
    k: int,
    eps_k: float,
    inputs: BoundInputs,
    beta_value: float,
    pe_sum: float,
    mean_pk: float,
    mode: str = MODE_DEFAULT,
) -> float:
    """Three-term tail bound on the time-average of p_k exceeding its level.

    ``mean_pk`` is the expected running mean (1/t) sum E p_k; ``pe_sum`` the
    summed detection-error bounds over slots alpha_t..t; ``beta_value`` the
    mixing coefficient at lag u_t.
    """
    _check_mode(mode)
    t, a, u, v = inputs.t, inputs.alpha_t, inputs.u_t, inputs.v_t
    dp = float(inputs.dp_max[k])
    if dp <= 0:
        raise DomainError(f"penalty {k} has zero range; the bound is degenerate")
    floor = mean_pk - inputs.c_for(k) + a * dp / (t - a)
    if eps_k <= floor:
        raise DomainError(
            f"eps_k={eps_k} must exceed the running-mean floor {floor} "
            "(Theorem precondition)"
        )
    eps_tk = eps_k + inputs.c_for(k) - mean_pk
    eps_bar = (t * eps_tk - a * dp) / (t - a)
    v_pow = v * v if mode == MODE_LITERAL else v
    term1 = u * math.exp(-2.0 * eps_bar * eps_bar * v_pow / (dp * dp))
    return term1 + pe_sum + (t - a) * beta_value


def threshold_check(
    t: int,
    alpha_t: int,
    u_t: int,
    eps: float,
    gamma_i: float,
    beta_i_star: float,
    dp_max0: float,
) -> bool:
    """Membership in the waiting-time set: (t - alpha_t) must beat the
    concentration threshold at confidence gamma_i."""
    if gamma_i <= beta_i_star:
        raise DomainError(
            f"gamma={gamma_i} must exceed beta*={beta_i_star} for the bound to bind"
        )
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    log_arg = u_t / (gamma_i - beta_i_star)
    rhs = 0.0
    if log_arg > 1.0:
        rhs = dp_max0 * u_t / (math.sqrt(2.0) * eps) * math.sqrt(math.log(log_arg))
    return (t - alpha_t) > rhs


def theta(kappa: float, D: int) -> float:
    """Contraction coefficient max{(e^{kappa D} - 1)/2, 1/2}; D = 0 uses e^kappa."""
    if kappa < 0:
        raise DomainError(f"kappa must be >= 0, got {kappa}")
    expo = kappa if D == 0 else kappa * D
    if expo >= LOG3:
        raise DomainError(
            f"kappa{'*D' if D else ''} = {expo:.6g} >= log 3; theta would reach 1 "
            "and the mixing bound degenerates"
        )
    return max((math.exp(expo) - 1.0) / 2.0, 0.5)


def beta_bound(s: int, D: int, kappa: float, F: int, n_outcomes: int, K: int) -> float:
    """Mixing-coefficient bound at lag s; strictly decreasing in s."""
    th = theta(kappa, D)
    if D == 0:
        if s < 1:
            raise DomainError(f"need s >= 1 for D = 0, got {s}")
        power = (s - 1) / 2.0
        mu = F * n_outcomes * (K + 1)
    else:
        if s < 2 * D + 1:
            raise DomainError(f"need s >= 2D+1 = {2 * D + 1}, got {s}")
        power = (s - D + 1) / (2.0 * D)
        mu = D * F * n_outcomes * (K + 1)
    return th**power / math.sqrt(2.0) * math.log(mu)


def beta_star(
    inputs: BoundInputs,
    s_value: float,
) -> tuple[float, float]:
    """(beta*_0, beta*_1): interval-scaled mixing-plus-detection slack.

    The lag-u_t mixing bound does not depend on k, so the cost-side and the
    max-over-penalties value coincide.
    """
    if inputs.kappa is None:
        raise DomainError("beta_star needs kappa")
    bb = beta_bound(
        inputs.u_t, inputs.D, inputs.kappa, inputs.F, inputs.n_outcomes, inputs.K
    )
    val = (inputs.t - inputs.alpha_t) * (bb + s_value)
    return val, val
