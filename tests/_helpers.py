"""Shared fixtures: small distributions and schedules, the 3-sensor
benchmark's objects as the CLI loads them, and an independently built copy
of that benchmark.

The copy is built by direct per-entry loops so package-side vectorized
builders can be checked against it.
"""

from functools import cache

import numpy as np

from driftlab import FiniteDistribution, PiecewiseSchedule, StrategySpace, config_from_dict
from driftlab.distributions import ProductStateSpace
from driftlab.guarantees import divergence_window_series, log_ratio_prefix
from driftlab.strategies import ActionModel, CostModel


def point_mass(n: int, outcome: int) -> FiniteDistribution:
    p = np.zeros(n)
    p[outcome] = 1.0
    return FiniteDistribution(p)


def uniform(n: int) -> FiniteDistribution:
    return FiniteDistribution(np.full(n, 1.0 / n))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def stationary(dist: FiniteDistribution) -> PiecewiseSchedule:
    return PiecewiseSchedule(limit=dist, segments=((0, dist),))


@cache
def sensor3_config():
    """``{"preset": "sensor3"}`` loaded once; its objects are read-only."""
    return config_from_dict({"preset": "sensor3"})


def sensor3_space() -> StrategySpace:
    return sensor3_config().space


def sensor3_covering_and_schedule():
    cfg = sensor3_config()
    return cfg.covering, cfg.schedule


def sensor_tables():
    actions = ActionModel((2, 2, 2))
    states = ProductStateSpace((4, 4, 4))
    tables = np.zeros((4, actions.total, states.total))
    for a in range(actions.total):
        al = actions.decode(a)
        for w in range(states.total):
            wl = states.decode(w)
            util = min(al[0] * wl[0] / 3 + (al[1] * wl[1] + al[2] * wl[2]) / 6, 1.0)
            tables[0, a, w] = -util
            for k in range(3):
                tables[k + 1, a, w] = float(al[k])
    return actions, states, CostModel(tables=tables, c=np.array([1 / 3] * 3))


def sensor_limit(states=None):
    if states is None:
        states = ProductStateSpace((4, 4, 4))
    per = np.array([0.1, 0.7, 0.1, 0.1])
    probs = np.zeros(states.total)
    for w in range(states.total):
        w1, w2, w3 = states.decode(w)
        probs[w] = per[w1] * per[w2] * per[w3]
    return FiniteDistribution(probs)


def divergence_series(schedule, covering, istar, D, w, T):
    """``divergence_window_series`` of a w-slot window over the schedule's first T slots."""
    prefix = log_ratio_prefix(schedule.weights_matrix(T), covering, istar)
    return divergence_window_series(prefix, istar, D, w)
