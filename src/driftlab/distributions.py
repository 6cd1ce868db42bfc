"""Finite probability spaces, distances, covering sets, and state schedules.

Everything here is immutable after construction and safe to share read-only
across ensemble workers.  Logarithms are natural throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import ClassVar, Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError

PROB_SUM_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability vector over an enumerated finite outcome space."""

    probs: np.ndarray

    def __post_init__(self):
        p = _freeze(np.asarray(self.probs, dtype=np.float64).ravel())
        object.__setattr__(self, "probs", p)
        if p.size == 0:
            raise ConfigurationError("distribution must have at least one outcome")
        if not np.isfinite(p).all():
            raise ConfigurationError(f"non-finite probability entry {p[~np.isfinite(p)][0]}")
        if np.any(p < 0):
            raise ConfigurationError(f"negative probability entry: min={float(p.min())}")
        if np.any(p > 1):
            i = int(np.argmax(p > 1))
            raise ConfigurationError(f"probability entry {i} is {float(p[i])!r}, above 1")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ConfigurationError(
                f"probabilities sum to {total!r}, not 1 within {PROB_SUM_TOL}"
            )

    def __len__(self) -> int:
        return self.probs.size



@dataclass(frozen=True)
class MixedRadix:
    """Bijection between digit tuples, digit i in [0, counts[i]), and ids
    0..total-1, the first digit most significant.  It numbers joint states,
    joint actions and pure strategies; ``what`` and ``digit`` name the id
    and its digits in errors."""

    counts: tuple[int, ...]
    what: ClassVar[str] = "mixed-radix"
    digit: ClassVar[str] = "digit"

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if not counts or any(c < 1 for c in counts):
            raise ConfigurationError(f"invalid {self.what} counts {counts}")

    @property
    def n_users(self) -> int:
        return len(self.counts)

    @cached_property
    def total(self) -> int:
        return math.prod(self.counts)

    @cached_property
    def multipliers(self) -> tuple[int, ...]:
        """Place value of each digit: the product of the counts after it."""
        return tuple(accumulate(self.counts[:0:-1], operator.mul, initial=1))[::-1]

    def encode(self, digits: Sequence[int]) -> int:
        if len(digits) != self.n_users:
            raise DimensionError(f"{self.what} tuple length mismatch")
        for d, c in zip(digits, self.counts):
            if not 0 <= d < c:
                raise DomainError(f"{self.digit} {d} out of range [0, {c})")
        return sum(d * m for d, m in zip(digits, self.multipliers))

    def decode(self, joint_id: int) -> tuple[int, ...]:
        if not 0 <= joint_id < self.total:
            raise DomainError(f"{self.what} id {joint_id} out of range [0, {self.total})")
        return tuple((joint_id // m) % c for c, m in zip(self.counts, self.multipliers))

    def component_arrays(self) -> list[np.ndarray]:
        """For each digit i an array over all ids giving that digit."""
        ids = np.arange(self.total)
        return [(ids // m) % c for c, m in zip(self.counts, self.multipliers)]


@dataclass(frozen=True)
class ProductStateSpace(MixedRadix):
    """Joint state space Ω = Ω_1 x ... x Ω_N; a joint id encodes (w_1, ..., w_N)
    with the first user's component most significant."""

    what, digit = "state", "state component"


@dataclass(frozen=True)
class CoveringSet:
    """Finite set of candidate distributions with support bounds.

    Every member's nonzero mass must lie strictly inside (beta_delta,
    alpha_delta) with 0 < beta_delta < alpha_delta.
    """

    members: tuple[FiniteDistribution, ...]
    delta: float
    alpha_delta: float
    beta_delta: float

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(members) < 1:
            raise ConfigurationError("covering set needs at least one member")
        n = len(members[0])
        if any(len(m) != n for m in members):
            raise DimensionError("covering members have mismatched lengths")
        if not (0 < self.beta_delta < self.alpha_delta):
            raise ConfigurationError(
                f"need 0 < beta_delta < alpha_delta, got "
                f"({self.beta_delta}, {self.alpha_delta})"
            )
        for j, m in enumerate(members):
            nz = m.probs[m.probs > 0]
            if nz.size and (nz.min() <= self.beta_delta or nz.max() >= self.alpha_delta):
                raise ConfigurationError(
                    f"member {j} has mass outside the open support band "
                    f"({self.beta_delta}, {self.alpha_delta})"
                )
        if self.delta <= 0:
            raise ConfigurationError(f"covering radius must be positive, got {self.delta}")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def n_outcomes(self) -> int:
        return len(self.members[0])

    @cached_property
    def prob_matrix(self) -> np.ndarray:
        """(M, |Ω|) matrix of member probabilities."""
        return _freeze(np.vstack([m.probs for m in self.members]))

    @cached_property
    def log_matrix(self) -> np.ndarray:
        """(M, |Ω|) matrix of log-probabilities, -inf where mass is zero."""
        p = self.prob_matrix
        with np.errstate(divide="ignore"):
            lg = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), -np.inf)
        return _freeze(lg)

    @property
    def zeta(self) -> float:
        """Squared log-range of the support band, [log(alpha/beta)]^2."""
        return math.log(self.alpha_delta / self.beta_delta) ** 2


def l1_distance(p: FiniteDistribution, q: FiniteDistribution) -> float:
    if len(p) != len(q):
        raise DimensionError(f"length mismatch: {len(p)} vs {len(q)}")
    return float(np.abs(p.probs - q.probs).sum())


def nearest_member(
    covering: CoveringSet, pi: FiniteDistribution, warn: bool = True
) -> tuple[int, float]:
    """Index of the L1-closest member and its distance; ties take the lowest index.

    Emits a warning when the distance is not below the declared covering
    radius (the set then fails to cover ``pi``).
    """
    if covering.n_outcomes != len(pi):
        raise DimensionError("distribution length does not match covering members")
    dists = np.abs(covering.prob_matrix - pi.probs).sum(axis=1)
    idx = int(np.argmin(dists))
    d = float(dists[idx])
    if warn and d >= covering.delta:
        import warnings

        warnings.warn(
            f"nearest member distance {d:.6g} >= covering radius {covering.delta:.6g}",
            stacklevel=2,
        )
    return idx, d


def inverse_cdf(cdf: np.ndarray, u) -> np.ndarray:
    """Outcome of each uniform draw ``u`` under ``cdf`` (outcomes on the last
    axis).  Draws at or above the final entry, which rounding can leave below
    1, go to the outcome where the cdf reaches it, never to a zero-mass one."""
    top = (cdf < cdf[..., -1:]).sum(axis=-1)  # first index holding the final entry
    return np.minimum((cdf <= np.asarray(u)[..., None]).sum(axis=-1), top)


class Schedule:
    """Non-stationary state schedule: distribution of the joint state at slot t."""

    limit: FiniteDistribution

    def weights_matrix(self, horizon: int) -> np.ndarray:
        """(T, |Ω|) matrix of per-slot probability rows."""
        raise NotImplementedError


@dataclass(frozen=True)
class GeometricSchedule(Schedule):
    """pi_t = (1 - rho^t) * limit + rho^t * start, rho in (0, 1)."""

    limit: FiniteDistribution
    start: FiniteDistribution
    rho: float

    def __post_init__(self):
        if len(self.limit) != len(self.start):
            raise DimensionError("limit and start lengths differ")
        if not 0 < self.rho < 1:
            raise ConfigurationError(f"rho must lie in (0, 1), got {self.rho}")

    def weights_matrix(self, horizon: int) -> np.ndarray:
        r = self.rho ** np.arange(horizon)[:, None]
        return (1.0 - r) * self.limit.probs[None, :] + r * self.start.probs[None, :]


@dataclass(frozen=True)
class PiecewiseSchedule(Schedule):
    """Piecewise-constant schedule over segments [(start_slot, dist), ...].

    Segments must begin at slot 0 and have increasing start slots; the final
    segment's distribution must equal the declared limit so the schedule
    settles.
    """

    limit: FiniteDistribution
    segments: tuple[tuple[int, FiniteDistribution], ...]

    def __post_init__(self):
        segs = tuple((int(s), d) for s, d in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs or segs[0][0] != 0:
            raise ConfigurationError("first segment must start at slot 0")
        starts = [s for s, _ in segs]
        if sorted(starts) != starts or len(set(starts)) != len(starts):
            raise ConfigurationError("segment start slots must be strictly increasing")
        if any(len(d) != len(self.limit) for _, d in segs):
            raise DimensionError("segment distribution lengths differ from limit")
        if l1_distance(segs[-1][1], self.limit) != 0.0:
            raise ConfigurationError("final segment must equal the limit distribution")

    def weights_matrix(self, horizon: int) -> np.ndarray:
        starts = np.array([s for s, _ in self.segments])
        rows = np.vstack([d.probs for _, d in self.segments])
        return rows[np.searchsorted(starts, np.arange(horizon), side="right") - 1]

