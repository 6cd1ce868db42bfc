import hashlib
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import driftlab.lp
from _helpers import same_bits, sensor_limit, sensor_tables, uniform
from driftlab import CoveringSet, DomainError, FiniteDistribution, cli, simplex
from driftlab.config import config_from_dict
from driftlab.lp import (
    LpInstance,
    gap_delta,
    g_of_x,
    instance_for,
    lipschitz_probe,
    solve_lp,
)
from driftlab.strategies import StrategySpace
from oracles import chord_lipschitz, optimality_certificate, theorem1_pairs


@pytest.fixture(scope="module")
def sensor_space():
    actions, states, cost = sensor_tables()
    return StrategySpace(actions, states, cost)


@pytest.fixture(scope="module")
def sensor_instance(sensor_space):
    return instance_for(sensor_space, sensor_limit())


class TestSolveLp:
    def test_two_strategy_unconstrained(self):
        inst = LpInstance(r=np.array([[0.0, 1.0]]), c=np.zeros(0))
        sol = solve_lp(inst)
        assert sol.status == "optimal"
        assert np.allclose(sol.theta, [1.0, 0.0], atol=1e-9)
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_single_strategy(self):
        inst = LpInstance(r=np.array([[0.7], [0.2]]), c=np.array([0.5]))
        sol = solve_lp(inst)
        assert sol.status == "optimal"
        assert np.allclose(sol.theta, [1.0], atol=1e-12)
        assert sol.value == pytest.approx(0.7)

    def test_sensor_benchmark_value(self, sensor_instance):
        sol = solve_lp(sensor_instance)
        assert sol.status == "optimal"
        assert -sol.value == pytest.approx(0.394, abs=1e-3)
        assert optimality_certificate(sensor_instance, sol)

    def test_infeasible(self):
        inst = LpInstance(r=np.array([[0.0, 1.0], [2.0, 3.0]]), c=np.array([1.0]))
        sol = solve_lp(inst)
        assert sol.status == "infeasible"
        assert sol.value == math.inf

    def test_k0_equals_min(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r0 = rng.normal(size=(1, int(rng.integers(1, 40))))
            sol = solve_lp(LpInstance(r=r0, c=np.zeros(0)))
            assert sol.value == pytest.approx(r0.min(), abs=1e-9)

    def test_permutation_invariance(self, sensor_instance):
        base = solve_lp(sensor_instance).value
        rng = np.random.default_rng(42)
        for _ in range(3):
            perm = rng.permutation(sensor_instance.n_strategies)
            inst = LpInstance(r=sensor_instance.r[:, perm], c=sensor_instance.c)
            assert solve_lp(inst).value == pytest.approx(base, abs=1e-9)

    def test_against_scipy_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            f = int(rng.integers(1, 25))
            k = int(rng.integers(0, 4))
            r = rng.uniform(-2, 2, size=(k + 1, f))
            c = rng.uniform(-0.5, 1.5, size=k)
            inst = LpInstance(r=r, c=c)
            sol = solve_lp(inst)
            ref = scipy.optimize.linprog(
                r[0],
                A_ub=r[1:] if k else None,
                b_ub=c if k else None,
                A_eq=np.ones((1, f)),
                b_eq=[1.0],
                bounds=(0, None),
                method="highs",
            )
            if sol.status == "infeasible":
                assert ref.status == 2
            else:
                assert ref.status == 0
                assert sol.value == pytest.approx(ref.fun, abs=1e-8)
                assert optimality_certificate(inst, sol)


class TestGofX:
    def test_huge_x_unconstrains(self, sensor_space, sensor_instance):
        x = float(sensor_space.cost.p_max[1:].max() - sensor_space.cost.c.min()) + 1.0
        assert g_of_x(sensor_instance, x) == pytest.approx(
            sensor_instance.r[0].min(), abs=1e-9
        )

    def test_g0_is_base_lp(self, sensor_instance):
        assert g_of_x(sensor_instance, 0.0) == pytest.approx(
            solve_lp(sensor_instance).value, abs=1e-12
        )

    def test_monotone_nonincreasing_and_permutation_stable(self, sensor_instance):
        grid = np.arange(0.0, 0.51, 0.05)
        vals = [g_of_x(sensor_instance, x) for x in grid]
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-9
        rng = np.random.default_rng(7)
        perm = rng.permutation(sensor_instance.n_strategies)
        inst_p = LpInstance(r=sensor_instance.r[:, perm], c=sensor_instance.c)
        for x, v in zip(grid, vals):
            assert g_of_x(inst_p, float(x)) == pytest.approx(v, abs=1e-9)

    def test_negative_x_refused(self, sensor_instance):
        with pytest.raises(DomainError, match="got -0.1"):
            g_of_x(sensor_instance, -0.1)

    def test_infeasible_sentinel(self):
        inst = LpInstance(r=np.array([[0.0], [2.0]]), c=np.array([0.0]))
        assert g_of_x(inst, 0.5) == math.inf
        assert g_of_x(inst, 3.0) == pytest.approx(0.0)


@st.composite
def feasible_instances(draw):
    """Small LPs with K = 0..3 constraints that column ``j0`` meets at x = 0."""
    k = draw(st.integers(0, 3))
    n = draw(st.integers(1, 5))
    r = draw(arrays(np.float64, (k + 1, n), elements=st.integers(-3, 3).map(float)))
    j0 = draw(st.integers(0, n - 1))
    slack = draw(arrays(np.float64, k, elements=st.sampled_from([0.0, 0.25, 1.0])))
    return LpInstance(r=r, c=r[1:, j0] + slack)


class TestLipschitzProbe:
    def test_constant_g(self):
        inst = LpInstance(r=np.array([[1.0, 1.0], [0.0, 0.0]]), c=np.array([1.0]))
        assert lipschitz_probe(inst) == (0.0, 1.0)

    def test_hand_solved_ramp(self):
        # theta_1 <= x binds; G(x) = max(0, 1 - x)
        inst = LpInstance(r=np.array([[0.0, 1.0], [1.0, 0.0]]), c=np.array([0.0]))
        for x in np.linspace(0.0, 1.0, 11):
            assert g_of_x(inst, float(x)) == pytest.approx(max(0.0, 1.0 - x), abs=1e-9)
        assert lipschitz_probe(inst) == (1.0, 1.0)

    def test_sensor_chat_positive(self, sensor_instance):
        c_hat, _ = lipschitz_probe(sensor_instance)
        assert math.isfinite(c_hat)
        assert c_hat > 0

    def test_infeasible_point_named(self):
        inst = LpInstance(r=np.array([[0.0], [2.0]]), c=np.array([0.0]))
        with pytest.raises(DomainError, match="x=0.0"):
            lipschitz_probe(inst)

    @given(feasible_instances())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_dual_constant_bounds_every_chord(self, inst):
        c_hat, g0 = lipschitz_probe(inst)
        chord, _ = chord_lipschitz(inst, np.linspace(0.0, 1.0, 9))
        assert chord <= c_hat + 1e-9
        sol = solve_lp(inst)
        assert g0 == sol.value
        assert same_bits(sol.slack, inst.c + inst.x - inst.r[1:] @ sol.theta)


class TestBoundContext:
    def test_bound_context_probe_and_optimum(self, monkeypatch):
        cfg = config_from_dict({"preset": "sensor3", "horizon": 200})
        solves = []
        monkeypatch.setattr(
            driftlab.lp, "solve_lp",
            lambda inst: solves.append((inst.x, inst.n_strategies)) or solve_lp(inst),
        )
        monkeypatch.setattr(cli, "solve_lp", driftlab.lp.solve_lp)
        ctx = cli._bound_context(cfg)
        # one solve of the full LP gives both c_hat and p_opt
        assert solves == [(0.0, cfg.space.F)]
        full = instance_for(cfg.space, cfg.covering.members[cfg.istar])
        gap = ctx["gap"]
        grid = sorted({0.0, gap} | set(np.linspace(0.0, max(2 * gap, 0.1), 9)))
        chord = chord_lipschitz(full, grid)[0]
        assert ctx["c_hat"] >= chord - 1e-12  # the chord carries the solves' rounding
        assert ctx["c_hat"] == pytest.approx(chord, abs=1e-9)
        assert ctx["p_opt"] == solve_lp(full).value


class TestGapDelta:
    def _covering(self, members):
        probs = np.concatenate([m.probs for m in members])
        pos = probs[probs > 0]
        return CoveringSet(
            members=tuple(members),
            delta=2.5,
            alpha_delta=pos.max() * 1.01 + 1e-12,
            beta_delta=pos.min() * 0.99,
        )

    def test_member_and_small_nu(self, sensor_space):
        pi = sensor_limit()
        cov = self._covering([pi, uniform(64)])
        assert gap_delta(pi, cov, sensor_space.cost, 1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_direct_product(self):
        from driftlab.strategies import CostModel

        cost = CostModel(tables=np.array([[[1.0, -1.0]], [[0.5, -0.2]]]), c=np.array([0.0]))
        assert np.allclose(cost.b_max, [1.0, 0.5])
        m = FiniteDistribution(np.array([0.5, 0.5]))
        pi = FiniteDistribution(np.array([0.6, 0.4]))
        cov = self._covering([m])
        # d = 0.2, nu = 0.1, max b = 1.0
        assert gap_delta(pi, cov, cost, 0.1) == pytest.approx(0.3)

    def test_nu_must_be_positive(self, sensor_space):
        cov = self._covering([sensor_limit()])
        with pytest.raises(DomainError):
            gap_delta(sensor_limit(), cov, sensor_space.cost, 0.0)


class TestTheorem1:
    def test_hundred_random_instances_seed7(self):
        pairs = theorem1_pairs(n_instances=100, seed=7)
        assert len(pairs) == 100
        assert all(lhs <= rhs + 1e-9 for lhs, rhs in pairs)

    def test_member_equals_pi_has_slack(self):
        # when pi itself is in the covering set both LPs coincide
        for lhs, rhs in theorem1_pairs(n_instances=5, seed=11):
            assert lhs <= rhs + 1e-9


class TestBlandPivots:
    # status and final basis of each solve below, as the per-column scans of
    # Bland's rule chose them; the redundant equality row sends phase 1 down
    # both drive-out branches (pivot on a structural column, drop the row)
    PINNED = "d8e664fdac4a7361d652cfc068c55aeec2a895ca1485e7821d6086d5c173c683"

    @staticmethod
    def problems(inst):
        yield dict(c=inst.r[0], A_ub=inst.r[1:], b_ub=inst.c,
                   A_eq=np.ones((1, inst.n_strategies)), b_eq=np.ones(1))
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            row = rng.integers(-2, 3, n).astype(float)
            yield dict(c=rng.normal(size=n),
                       A_ub=rng.integers(-3, 4, (2, n)).astype(float),
                       b_ub=rng.integers(-1, 4, 2).astype(float),
                       A_eq=np.vstack([np.ones(n), row, 2 * row]),
                       b_eq=np.array([1.0, 0.0, 0.0]))

    def test_pivot_choices_pinned(self, sensor_instance):
        h = hashlib.sha256()
        for kw in self.problems(sensor_instance):
            res = simplex.solve(**kw)
            h.update(repr((res.status, res.basis)).encode())
        assert h.hexdigest() == self.PINNED
