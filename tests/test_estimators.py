import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftlab import EstimationError
from driftlab.estimators import (
    error_rate,
    estimate_beta1,
    estimate_kappa,
    gap_report,
    _row_ids,
)
from driftlab.simulate import EnsembleResult
from driftlab.strategies import CostModel
from oracles import interval_error_rate


def synthetic_ensemble(p, jstar=None, m=None, istar=0, warmup_slots=0):
    """Wrap raw (n, T, K+1) cost arrays as an ensemble result."""
    p = np.asarray(p, dtype=np.float64)
    n, T, _ = p.shape
    if jstar is None:
        jstar = np.full((n, T), istar, dtype=np.int32)
    if m is None:
        m = np.zeros((n, T), dtype=np.int32)
    warm = np.zeros(T, dtype=bool)
    warm[:warmup_slots] = True
    return EnsembleResult(
        mean_p=p.mean(axis=0),
        final_avg=p.mean(axis=1),
        run_count=n,
        istar=istar,
        warmup=warm,
        p=p,
        jstar=np.asarray(jstar, dtype=np.int32),
        m=np.asarray(m, dtype=np.int32),
    )


class TestBeta1:
    def test_iid_null_is_small(self):
        rng = np.random.default_rng(0)
        n, T = 10_000, 30
        p = rng.integers(0, 2, size=(n, T, 1)).astype(float)
        ens = synthetic_ensemble(p)
        est = estimate_beta1(ens, k=0, s=3, alpha=0, anchors=np.array([5, 10, 20]))
        assert est.value <= 0.05
        assert est.value <= est.ci_half

    def test_perfectly_coupled_pairs(self):
        rng = np.random.default_rng(1)
        n, T, s = 4000, 12, 4
        base = rng.integers(0, 2, size=(n, 1)).astype(float)
        p = np.repeat(base[:, :, None], T, axis=1)  # p(t+s) = p(t) exactly
        ens = synthetic_ensemble(p)
        est = estimate_beta1(ens, k=0, s=s, alpha=0, anchors=np.array([2, 5]))
        assert est.value == pytest.approx(0.5, abs=0.05)

    def test_shuffling_across_runs_kills_dependence(self):
        rng = np.random.default_rng(2)
        n, T = 5000, 16
        base = rng.integers(0, 2, size=(n, 1)).astype(float)
        p = np.repeat(base[:, :, None], T, axis=1)
        for t in range(T):  # break run alignment slot by slot
            p[:, t, 0] = p[rng.permutation(n), t, 0]
        est = estimate_beta1(synthetic_ensemble(p), k=0, s=4, alpha=0,
                             anchors=np.array([3, 6, 9]))
        assert est.value <= est.ci_half

    def test_conditioning_filters_runs(self):
        n, T = 300, 10
        p = np.zeros((n, T, 1))
        jstar = np.zeros((n, T), dtype=np.int32)
        jstar[:150, 5] = 1  # half the runs err at slot 5
        ens = synthetic_ensemble(p, jstar=jstar)
        est = estimate_beta1(ens, k=0, s=2, alpha=0, anchors=np.array([6]))
        assert est.anchors[0].surviving == 150

    def test_floor_skips_and_raises(self):
        n, T = 120, 10
        p = np.zeros((n, T, 1))
        jstar = np.zeros((n, T), dtype=np.int32)
        jstar[:50, 2] = 1
        ens = synthetic_ensemble(p, jstar=jstar)
        est = estimate_beta1(ens, k=0, s=2, alpha=0, anchors=np.array([1, 4]))
        assert [a.t for a in est.anchors] == [1]
        assert est.skipped == ((4, 70),)
        jstar[:, 0] = 1  # every run errs at slot 0
        ens2 = synthetic_ensemble(p, jstar=jstar)
        with pytest.raises(EstimationError):
            estimate_beta1(ens2, k=0, s=2, alpha=0, anchors=np.array([4]))


class TestKappa:
    @given(st.integers(1, 4).flatmap(lambda k: arrays(
        np.float64, st.tuples(st.integers(1, 40), st.just(k)),
        elements=st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 1e-300]),
    )))
    @settings(max_examples=300, deadline=None)
    def test_row_ids_equal_unique_rows(self, rows):
        want = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
        assert np.array_equal(_row_ids(rows), want)

    def test_single_strategy_undefined(self):
        p = np.zeros((50, 20, 2))
        ens = synthetic_ensemble(p, m=np.zeros((50, 20), dtype=np.int32))
        est = estimate_kappa(ens)
        assert est.value is None
        assert "fewer than two" in est.reason

    def test_uniform_channel_near_zero(self):
        rng = np.random.default_rng(3)
        n, T = 400, 50
        m = rng.integers(0, 2, size=(n, T)).astype(np.int32)
        x = rng.integers(0, 4, size=(n, T)).astype(float)  # independent of m
        p = x[:, :, None]
        est = estimate_kappa(synthetic_ensemble(p, m=m))
        assert est.value is not None
        assert est.value == pytest.approx(0.0, abs=0.15)

    def test_two_strategy_log2(self):
        rng = np.random.default_rng(4)
        n, T = 2000, 40
        m = rng.integers(0, 2, size=(n, T)).astype(np.int32)
        u = rng.random((n, T))
        x = np.where(m == 0, (u < 0.6).astype(float), (u < 0.3).astype(float))
        est = estimate_kappa(synthetic_ensemble(x[:, :, None], m=m))
        assert est.value == pytest.approx(math.log(2.0), abs=0.05)

    def test_cell_floor_excludes_rare(self):
        # strategy 1 produces a unique rare value only 10 times: must not
        # enter the sup
        n, T = 30, 10
        m = np.zeros((n, T), dtype=np.int32)
        p = np.zeros((n, T, 1))
        m[:10, 0] = 1
        p[:10, 0, 0] = 99.0
        est = estimate_kappa(synthetic_ensemble(p, m=m))
        assert est.value is None
        assert "no cost vector" in est.reason


class TestErrorRates:
    def test_single_member_zero(self):
        p = np.zeros((40, 12, 1))
        ens = synthetic_ensemble(p)
        assert np.all(error_rate(ens).per_slot == 0.0)

    def test_rates_and_interval(self):
        n, T = 200, 12
        p = np.zeros((n, T, 1))
        jstar = np.zeros((n, T), dtype=np.int32)
        jstar[:50, 3] = 2
        jstar[50:100, 7] = 1
        ens = synthetic_ensemble(p, jstar=jstar)
        rates = error_rate(ens)
        assert rates.per_slot[3] == pytest.approx(0.25)
        assert rates.per_slot[7] == pytest.approx(0.25)
        assert interval_error_rate(ens, 0, 11) == pytest.approx(0.5)
        assert interval_error_rate(ens, 4, 11) == pytest.approx(0.25)
        assert interval_error_rate(ens, 4, 6) == 0.0


class TestGapReport:
    def test_single_strategy_point_mass(self):
        # constant cost 5.0, penalty exactly at its level
        n, T = 8, 25
        p = np.zeros((n, T, 2))
        p[:, :, 0] = 5.0
        p[:, :, 1] = 0.5
        ens = synthetic_ensemble(p)
        cost = CostModel(tables=np.full((2, 1, 1), 5.0), c=np.array([0.5]))
        rep = gap_report(ens, lp_value=5.0, cost=cost)
        assert rep.cost_gap == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(rep.excess, 0.0)

    def test_ci_scales(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(400, 10, 1))
        ens = synthetic_ensemble(p)
        cost = CostModel(tables=np.zeros((1, 1, 1)), c=np.zeros(0))
        rep = gap_report(ens, lp_value=0.0, cost=cost)
        # final averages have sd ~ 1/sqrt(10); CI ~ z * sd / sqrt(400)
        assert rep.cost_gap_ci == pytest.approx(2.576 * (1 / math.sqrt(10)) / 20, rel=0.2)
