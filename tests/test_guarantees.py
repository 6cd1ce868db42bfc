import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bounds as ref
from _helpers import divergence_series, sensor3_space, sensor_limit, stationary
from driftlab import (
    ConfigurationError,
    DimensionError,
    DomainError,
    GeometricSchedule,
)
from driftlab.guarantees import (
    MODE_DEFAULT,
    MODE_LITERAL,
    BoundInputs,
    beta_bound,
    beta_star,
    clamp01,
    divergence_window_series,
    jbar_ht,
    log_ratio_prefix,
    nonstationarity_series,
    pac_rhs,
    pe_sequence,
    psi_q_gamma,
    s_t_delta,
    theta,
    threshold_check,
)
from driftlab.presets import sensor3_covering_and_schedule
from oracles import divergence, mcdiarmid_tail, pe_upper, schedule_at


def binom_tail_above(n, threshold):
    """P(#heads > threshold) for a fair n-coin, by exact enumeration."""
    total = 0
    for k in range(n + 1):
        if k > threshold:
            total += math.comb(n, k)
    return total / 2**n


class TestMcdiarmid:
    def test_zero_eps(self):
        assert mcdiarmid_tail(0.0, [1.0, 2.0]) == 1.0

    def test_single_constant(self):
        assert mcdiarmid_tail(1.0, [1.0]) == pytest.approx(math.exp(-2.0))

    def test_dominates_exact_binomial(self):
        # means of n fair +-1 coins; flipping one coordinate moves the mean by 2/n
        for n in range(1, 21):
            for eps in np.arange(0.0, 1.0001, 0.05):
                bound = mcdiarmid_tail(eps, [2.0 / n] * n)
                exact = binom_tail_above(n, n * (1 + eps) / 2)
                assert bound >= exact - 1e-15

    def test_invalid(self):
        with pytest.raises(DomainError):
            mcdiarmid_tail(-0.1, [1.0])
        with pytest.raises(DomainError):
            mcdiarmid_tail(0.1, [])


class TestPeUpper:
    def test_warmup_is_uniform_pick(self):
        assert pe_upper(0, 0, 40, 2.0, 0.5, 8) == pytest.approx(1 / 8)
        assert pe_upper(39, 0, 40, 2.0, 0.5, 8) == pytest.approx(1 / 8)

    def test_vacuous_at_zero_divergence(self):
        raw = pe_upper(100, 0, 40, 2.0, 0.0, 8)
        assert raw == pytest.approx(8.0)
        assert clamp01(raw) == 1.0

    def test_hand_value_default_mode(self):
        got = pe_upper(100, 0, 40, 1.0, 0.5, 2, MODE_DEFAULT)
        assert got == pytest.approx(2.0 * math.exp(-20.0), rel=1e-12)

    def test_literal_mode_multiplies(self):
        got = pe_upper(100, 0, 40, 3.0, 0.5, 2, MODE_LITERAL)
        assert got == pytest.approx(2.0 * math.exp(-2.0 * 3.0 * 0.25 * 40), rel=1e-12)

    def test_decreasing_in_w_past_warmup(self):
        vals = [pe_upper(1000, 0, w, 2.0, 0.3, 8) for w in (10, 20, 40, 80)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSTDelta:
    def test_zero_divergence_raw(self):
        s, _ = s_t_delta(100, 10, 2.0, 0.0, 40, 8)
        assert s == pytest.approx(8.0)

    def test_doubling_window_squares_exponential(self):
        s1, _ = s_t_delta(100, 10, 2.0, 0.3, 20, 8)
        s2, _ = s_t_delta(100, 10, 2.0, 0.3, 40, 8)
        assert s2 / 8 == pytest.approx((s1 / 8) ** 2, rel=1e-10)

    @pytest.mark.parametrize("mode", [MODE_DEFAULT, MODE_LITERAL])
    def test_same_formula_as_pe_upper_past_warmup(self, mode):
        for zeta, div, w in ((2.0, 0.3, 20), (0.7, 0.05, 120), (3.0, 0.0, 1)):
            s, _ = s_t_delta(500, 10, zeta, div, w, 8, mode)
            assert s == pe_upper(400, 2, w, zeta, div, 8, mode)

    def test_interval_bound_dominates_slot_sum(self):
        space = sensor3_space()
        cov, sch = sensor3_covering_and_schedule(space.states)
        t, alpha, w = 400, 100, 40
        div = divergence_series(sch, cov, 0, 0, np.full(t, w))
        pe = pe_sequence(0, np.full(t, w), cov.zeta, div, cov.size)
        slot_sum = pe[alpha:t].sum()
        min_div = np.nanmin(np.abs(div[alpha:t]))
        _, interval = s_t_delta(t, alpha, cov.zeta, float(min_div), w, cov.size)
        assert slot_sum <= interval + 1e-12


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between non-negative floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def pe_per_slot(D, windows, zeta, div, M, mode):
    return np.array([
        pe_upper(tau, D, w, zeta, 0.0 if math.isnan(d) else d, M, mode)
        for tau, (w, d) in enumerate(zip(windows.tolist(), div.tolist()))
    ])


class TestPeSequence:
    """The array ``pe_sequence`` against ``pe_upper`` slot by slot."""

    @staticmethod
    def check(D, windows, zeta, div, M, mode):
        pe = pe_sequence(D, windows, zeta, div, M, mode)
        ref = pe_per_slot(D, windows, zeta, div, M, mode)
        warm = np.arange(windows.size) <= D + windows - 1
        assert (pe[warm] == 1.0 / M).all()
        assert (ulps_apart(pe, ref) <= 1).all()
        return pe

    @pytest.mark.parametrize("mode", [MODE_DEFAULT, MODE_LITERAL])
    @pytest.mark.parametrize("D", [0, 3])
    @pytest.mark.parametrize("window", ["fixed", "callable"])
    def test_sensor3_series_within_one_ulp(self, mode, D, window):
        space = sensor3_space()
        cov, sch = sensor3_covering_and_schedule(space.states)

        def w_at(t):
            return 40 if window == "fixed" or t < 50 else 10 + t % 31

        windows = np.array([w_at(t) for t in range(600)])
        div = divergence_series(sch, cov, 0, D, windows)
        pe = self.check(D, windows, cov.zeta, div, cov.size, mode)
        assert (pe[np.isfinite(div)] != 1.0 / cov.size).all()

    @given(
        st.lists(st.one_of(st.floats(0.0, 2.0), st.just(math.nan)), min_size=1, max_size=60),
        st.integers(1, 12), st.integers(0, 4), st.integers(1, 9),
        st.floats(0.05, 60.0), st.sampled_from([MODE_DEFAULT, MODE_LITERAL]),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_series_within_one_ulp(self, div, w, D, M, zeta, mode):
        div = np.array(div)
        windows = (w + np.arange(div.size) % 3).astype(np.int64)
        self.check(D, windows, zeta, div, M, mode)

    def test_nan_divergence_counts_as_zero(self):
        div = np.array([np.nan, np.nan, np.nan, 0.0, np.nan, 0.3])
        windows = np.full(6, 2)
        pe = self.check(0, windows, 2.0, div, 4, MODE_DEFAULT)
        assert pe[4] == pe[3] == 4.0

    def test_one_member(self):
        pe = self.check(1, np.full(5, 2), 2.0, np.full(5, 0.5), 1, MODE_LITERAL)
        assert (pe[:3] == 1.0).all() and (pe[3:] < 1.0).all()

    def test_rejects_bad_mode_and_m(self):
        div, windows = np.zeros(3), np.full(3, 1)
        with pytest.raises(ConfigurationError, match="bound mode"):
            pe_sequence(0, windows, 2.0, div, 4, "printed")
        with pytest.raises(ConfigurationError, match="M must be >= 1"):
            pe_sequence(0, windows, 2.0, div, 0, MODE_DEFAULT)
        with pytest.raises(DimensionError):
            pe_sequence(0, windows, 2.0, np.zeros(4), 4, MODE_DEFAULT)


class TestDivergenceSeries:
    def test_benchmark_values_and_warmup_nan(self):
        space = sensor3_space()
        cov, sch = sensor3_covering_and_schedule(space.states)
        div = divergence_series(sch, cov, 0, 0, np.full(200, 40))
        assert np.all(np.isnan(div[:40]))
        assert np.all(div[40:] > 0)

    def test_matches_manual_window_average(self):
        space = sensor3_space()
        cov, sch = sensor3_covering_and_schedule(space.states)
        tau, w, D = 120, 40, 0
        div = divergence_series(sch, cov, 0, D, np.full(200, w))
        per_j = []
        for j in range(1, cov.size):
            acc = 0.0
            for s in range(tau - D - w + 1, tau - D + 1):
                acc += divergence(schedule_at(sch, s), cov.members[j], cov.members[0])
            per_j.append(abs(acc / w))
        assert div[tau] == pytest.approx(min(per_j), rel=1e-10)

    @pytest.mark.parametrize("D", [0, 2])
    @pytest.mark.parametrize("window", ["fixed", "callable"])
    def test_equals_per_slot_loop(self, D, window):
        space = sensor3_space()
        cov, sch = sensor3_covering_and_schedule(space.states)

        def w_at(t):
            return 40 if window == "fixed" or t < 50 else 60 + t % 7

        T, istar = 300, 1
        windows = np.array([w_at(t) for t in range(T)])
        div = divergence_series(sch, cov, istar, D, windows)
        logm = cov.log_matrix
        per_slot = sch.weights_matrix(T) @ (logm - logm[istar]).T
        csum = np.vstack([np.zeros((1, cov.size)), np.cumsum(per_slot, axis=0)])
        ref = np.full(T, np.nan)
        for tau in range(T):
            w = w_at(tau)
            if tau > D + w - 1:
                avg = (csum[tau - D + 1] - csum[tau - D - w + 1]) / w
                ref[tau] = np.abs(np.delete(avg, istar)).min()
        assert np.isnan(div[: D + 40]).all() and np.isfinite(div[-1])
        assert div.tobytes() == ref.tobytes()


    def test_prefix_must_cover_the_windows(self):
        space = sensor3_space()
        cov, sch = sensor3_covering_and_schedule(space.states)
        prefix = log_ratio_prefix(sch.weights_matrix(50), cov, 0)
        assert prefix.shape == (51, cov.size) and not prefix[0].any()
        with pytest.raises(DimensionError, match="for 60 slots"):
            divergence_window_series(prefix, 0, 0, np.full(60, 10))


class TestJbarHt:
    def test_stationary_schedule(self):
        space = sensor3_space()
        sch = stationary(sensor_limit())
        drift, b = nonstationarity_series(sch, space, sch.weights_matrix(50))
        jbar, hbar = jbar_ht(50, drift, b, space.cost.p_max, delta=0.1, D=0)
        assert jbar == pytest.approx(float(space.cost.p_max.max()) * 0.1)
        assert hbar == pytest.approx((1 / 50) * b.sum())
        assert np.all(b >= 0)

    def test_geometric_drift_sum_closed_form(self):
        space = sensor3_space()
        cov, _ = sensor3_covering_and_schedule(space.states)
        start, limit = cov.members[1], cov.members[0]
        rho = 0.9
        sch = GeometricSchedule(limit=limit, start=start, rho=rho)
        t = 60
        drift, b = nonstationarity_series(sch, space, sch.weights_matrix(t))
        jbar, _ = jbar_ht(t, drift, b, space.cost.p_max, delta=0.0, D=0)
        l1_0 = float(np.abs(start.probs - limit.probs).sum())
        closed = l1_0 * (1 - rho**t) / (1 - rho) / t
        assert jbar == pytest.approx(float(space.cost.p_max.max()) * closed, abs=1e-9)


def make_inputs(**over):
    base = dict(
        t=100,
        alpha_t=10,
        u_t=9,
        v_t=10,
        V=20.0,
        D=0,
        lyapunov_cap=0.0,
        F=4096,
        n_outcomes=64,
        K=3,
        c_hat=1.0,
        p_max=np.array([0.0, 1.0, 1.0, 1.0]),
        p_min=np.array([-1.0, 0.0, 0.0, 0.0]),
        c=np.array([1 / 3] * 3),
        gap=0.02,
        jbar=0.05,
        hbar=0.6,
        kappa=0.5,
        p_opt=-0.394,
    )
    base.update(over)
    return BoundInputs(**base)


class TestPsiQGamma:
    def test_vanishing_terms(self):
        inputs = make_inputs()
        out = psi_q_gamma(inputs, np.zeros(100), np.zeros(100))
        assert out.psi == pytest.approx(
            (inputs.c_hat + 1) * inputs.jbar + inputs.hbar / inputs.V
        )

    def test_qup_grows_with_v(self):
        pe = np.full(100, 0.01)
        b = np.full(100, 0.5)
        low = psi_q_gamma(make_inputs(V=5.0), pe, b).q_up
        high = psi_q_gamma(make_inputs(V=500.0), pe, b).q_up
        assert high > low
        assert high == pytest.approx(math.sqrt(500.0 * 4096 / 100), rel=0.1)

    def test_agrees_with_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = int(rng.integers(20, 400))
            alpha = int(rng.integers(0, t // 2))
            u = int(rng.integers(1, max(2, int(math.isqrt(t - alpha)) + 1)))
            while (t - alpha) % u:
                u -= 1
            inputs = make_inputs(
                t=t, alpha_t=alpha, u_t=u, v_t=(t - alpha) // u,
                V=float(rng.uniform(1, 100)), jbar=float(rng.uniform(0, 1)),
                hbar=float(rng.uniform(0, 2)), gap=float(rng.uniform(0, 1)),
                lyapunov_cap=float(rng.uniform(0, 5)),
                c_hat=float(rng.uniform(0, 3)),
            )
            pe = rng.uniform(0, 1, size=t)
            b = rng.uniform(0, 2, size=t)
            got = psi_q_gamma(inputs, pe, b)
            want_psi = ref.ref_psi(
                t, alpha, inputs.u_t, inputs.v_t, inputs.V, inputs.D,
                inputs.lyapunov_cap, inputs.F, inputs.c_hat,
                float(inputs.p_max[0]), inputs.rho, inputs.jbar, inputs.hbar,
                inputs.gap, pe.tolist(), b.tolist(),
            )
            want_gamma = ref.ref_gamma(
                t, inputs.V, inputs.D, inputs.lyapunov_cap, inputs.c_hat,
                float(inputs.p_max[0]), inputs.rho, inputs.jbar, inputs.hbar,
                inputs.gap, pe.tolist(), b.tolist(),
            )
            assert got.psi == pytest.approx(want_psi, rel=1e-12)
            assert got.gamma_t == pytest.approx(want_gamma, rel=1e-12)
            assert got.q_up == pytest.approx(
                ref.ref_q_up(t, inputs.V, inputs.F, want_gamma), rel=1e-12
            )


class TestPacRhs:
    def test_limits(self):
        inputs = make_inputs()
        tiny = pac_rhs(1, 1e6, inputs, 0.0, 0.0, mean_pk=0.3)
        assert tiny == pytest.approx(0.0, abs=1e-300)

    def test_single_block_reduction(self):
        inputs = make_inputs(u_t=1, v_t=90)
        got = pac_rhs(1, 0.5, inputs, 0.0, 0.0, mean_pk=0.3)
        eps_tk = 0.5 + 1 / 3 - 0.3
        eps_bar = (100 * eps_tk - 10 * 1.0) / 90
        assert got == pytest.approx(math.exp(-2 * eps_bar**2 * 90 / 1.0), rel=1e-12)

    def test_degenerate_blocking_shapes(self):
        # u_t = t - alpha_t, v_t = 1: one tail per block, scaled by the count
        inputs = make_inputs(u_t=90, v_t=1)
        got = pac_rhs(1, 0.5, inputs, 0.0, 0.0, mean_pk=0.3)
        eps_bar = (100 * (0.5 + 1 / 3 - 0.3) - 10) / 90
        assert got == pytest.approx(90 * math.exp(-2 * eps_bar**2), rel=1e-12)
        # v_t = t - alpha_t, u_t = 1: the classical single-block i.i.d. shape
        inputs = make_inputs(u_t=1, v_t=90)
        got = pac_rhs(1, 0.5, inputs, 0.0, 0.0, mean_pk=0.3)
        assert got == pytest.approx(math.exp(-2 * eps_bar**2 * 90), rel=1e-12)

    def test_floor_enforced(self):
        inputs = make_inputs()
        with pytest.raises(DomainError, match="floor"):
            pac_rhs(1, 0.0, inputs, 0.0, 0.0, mean_pk=0.4)

    def test_modes_and_reference(self):
        rng = np.random.default_rng(3)
        for mode in (MODE_DEFAULT, MODE_LITERAL):
            for _ in range(25):
                inputs = make_inputs()
                eps = float(rng.uniform(0.2, 2.0))
                beta_v = float(rng.uniform(0, 0.01))
                pe_sum = float(rng.uniform(0, 5))
                mean = float(rng.uniform(0.2, 0.35))
                got = pac_rhs(1, eps, inputs, beta_v, pe_sum, mean, mode)
                want = ref.ref_pac_rhs(
                    100, 10, 9, 10, eps, 1 / 3, mean, 1.0, beta_v, pe_sum, mode
                )
                assert got == pytest.approx(want, rel=1e-12)

    def test_k0_uses_p_opt(self):
        inputs = make_inputs()
        got = pac_rhs(0, 0.8, inputs, 0.0, 0.0, mean_pk=-0.39)
        assert math.isfinite(got)
        with pytest.raises(DomainError):
            pac_rhs(0, 0.8, make_inputs(p_opt=None), 0.0, 0.0, mean_pk=-0.39)


class TestThreshold:
    def test_gamma_near_beta_star_fails(self):
        assert not threshold_check(10**4, 100, 1000, 0.1, 1e-300, 0.0, 1.0)

    def test_large_eps_passes(self):
        assert threshold_check(100, 10, 9, 1e9, 0.5, 0.01, 1.0)

    def test_hand_evaluation(self):
        t, alpha, u, eps, gamma, bstar, dp = 5000, 100, 70, 0.05, 0.3, 0.01, 1.0
        rhs = dp * u / (math.sqrt(2) * eps) * math.sqrt(math.log(u / (gamma - bstar)))
        assert threshold_check(t, alpha, u, eps, gamma, bstar, dp) == ((t - alpha) > rhs)

    def test_precondition(self):
        with pytest.raises(DomainError):
            threshold_check(100, 10, 9, 0.1, 0.1, 0.2, 1.0)


class TestTheta:
    def test_kappa_zero(self):
        assert theta(0.0, 0) == 0.5
        assert theta(0.0, 5) == 0.5

    def test_log2_delay1(self):
        assert theta(math.log(2), 1) == pytest.approx(0.5)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            theta(math.log(3), 0)
        with pytest.raises(DomainError):
            theta(math.log(3) / 2, 2)


class TestBetaBound:
    def test_exponent_zero(self):
        mu = 4096 * 64 * 4
        assert beta_bound(1, 0, 0.5, 4096, 64, 3) == pytest.approx(
            math.log(mu) / math.sqrt(2)
        )

    def test_unit_log(self):
        # F*|Omega|*(K+1) = e is not integral; use kappa=0 and check the scaling law
        v1 = beta_bound(5, 0, 0.0, 4096, 64, 3)
        v2 = beta_bound(7, 0, 0.0, 4096, 64, 3)
        assert v2 / v1 == pytest.approx(0.5)  # theta=1/2, lag +2 halves the bound

    def test_strictly_decreasing_and_matches_reference(self):
        for d in (0, 1, 2):
            lags = range(max(1, 2 * d + 1), 60, 3)
            vals = [beta_bound(s, d, 0.4, 4096, 64, 3) for s in lags]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            for s, v in zip(lags, vals):
                assert v == pytest.approx(
                    ref.ref_beta_bound(s, d, 0.4, 4096, 64, 3), rel=1e-12
                )

    def test_lag_floor(self):
        with pytest.raises(DomainError):
            beta_bound(2, 1, 0.4, 10, 4, 1)


class TestBetaStar:
    def test_composition_and_linearity(self):
        inputs = make_inputs()
        bb = beta_bound(inputs.u_t, 0, inputs.kappa, inputs.F, inputs.n_outcomes, inputs.K)
        b0, b1 = beta_star(inputs, s_value=0.002)
        assert b0 == b1 == pytest.approx((100 - 10) * (bb + 0.002), rel=1e-12)
        d0, _ = beta_star(inputs, s_value=2 * 0.002 + bb)
        assert d0 == pytest.approx(2 * b0, rel=1e-9)
