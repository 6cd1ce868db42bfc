import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _helpers import (
    point_mass, same_bits, sensor3_covering_and_schedule, sensor3_space, sensor_tables, stationary,
    uniform,
)
from driftlab import ConfigurationError, CoveringSet, DimensionError, DomainError, FiniteDistribution
from driftlab import simulate
from driftlab.config import config_from_dict
from driftlab.distributions import ProductStateSpace
from driftlab.simulate import SimConfig
from driftlab.strategies import ActionModel, CostModel, StrategySpace, cover_rows
from oracles import (
    PureStrategy, actions_of, apply_strategy, b_value, decode_strategy, encode_strategy,
    r_vector, realized_cube, strategy_count,
)


class TestStrategyCount:
    def test_degenerate(self):
        assert strategy_count(ActionModel((1,)), ProductStateSpace((5,))) == 1

    def test_sensor_benchmark(self):
        assert strategy_count(ActionModel((2, 2, 2)), ProductStateSpace((4, 4, 4))) == 4096

    def test_two_user(self):
        assert strategy_count(ActionModel((2, 3)), ProductStateSpace((2, 1))) == 12

    def test_overflow_guard(self):
        with pytest.raises(ConfigurationError):
            strategy_count(ActionModel((4, 4)), ProductStateSpace((20, 20)))


class TestEncodeDecode:
    def test_extremes(self):
        actions = ActionModel((2, 3))
        states = ProductStateSpace((2, 1))
        f = strategy_count(actions, states)
        assert decode_strategy(0, actions, states).tables == ((0, 0), (0,))
        assert decode_strategy(f - 1, actions, states).tables == ((1, 1), (2,))

    def test_round_trip_f12(self):
        actions = ActionModel((2, 3))
        states = ProductStateSpace((2, 1))
        seen = set()
        for m in range(12):
            s = decode_strategy(m, actions, states)
            assert encode_strategy(s, actions, states) == m
            seen.add(s.tables)
        assert len(seen) == 12

    def test_round_trip_large(self):
        actions = ActionModel((2, 2, 2))
        states = ProductStateSpace((2, 2, 2))
        f = strategy_count(actions, states)
        assert f == 64
        for m in range(f):
            assert encode_strategy(decode_strategy(m, actions, states), actions, states) == m

    def test_out_of_range(self):
        actions = ActionModel((2,))
        states = ProductStateSpace((1,))
        with pytest.raises(DomainError, match=r"^strategy id 2 out of range \[0, 2\)"):
            decode_strategy(2, actions, states)


class TestApply:
    def test_single_user_table(self):
        actions = ActionModel((3,))
        states = ProductStateSpace((2,))
        s = PureStrategy(((2, 1),))
        assert apply_strategy(s, 0, actions, states) == 2
        assert apply_strategy(s, 1, actions, states) == 1

    def test_sensor_threshold_rule(self):
        actions = ActionModel((2, 2, 2))
        states = ProductStateSpace((4, 4, 4))
        transmit_on_3 = PureStrategy(tuple((0, 0, 0, 1) for _ in range(3)))
        omega = states.encode((3, 0, 3))
        assert actions.decode(apply_strategy(transmit_on_3, omega, actions, states)) == (1, 0, 1)

    def test_matches_naive_lookup(self):
        actions = ActionModel((2, 3))
        states = ProductStateSpace((3, 2))
        space = StrategySpace(actions, states, CostModel(
            tables=np.zeros((1, actions.total, states.total)), c=np.zeros(0)))
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(space.F))
            w = int(rng.integers(states.total))
            s = decode_strategy(m, actions, states)
            comps = states.decode(w)
            naive = actions.encode([s.tables[i][comps[i]] for i in range(2)])
            assert actions_of(space)[m, w] == naive
            assert apply_strategy(s, w, actions, states) == naive

    @pytest.mark.parametrize("a_counts, w_counts", [((2, 3), (3, 2)), ((3, 1, 2), (2, 3, 1))])
    def test_action_matrix_matches_apply_everywhere(self, a_counts, w_counts):
        actions, states = ActionModel(a_counts), ProductStateSpace(w_counts)
        space = StrategySpace(actions, states, CostModel(
            tables=np.zeros((1, actions.total, states.total)), c=np.zeros(0)))
        matrix = actions_of(space)
        for m in range(space.F):
            s = decode_strategy(m, actions, states)
            row = [apply_strategy(s, w, actions, states) for w in range(states.total)]
            assert matrix[m].tolist() == row


class TestCostModel:
    def test_derived_bounds_are_exact_extrema(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(3, 4, 5))
        cm = CostModel(tables=t, c=np.array([0.1, 0.2]))
        assert np.array_equal(cm.p_max, t.max(axis=(1, 2)))
        assert np.array_equal(cm.p_min, t.min(axis=(1, 2)))
        assert np.array_equal(cm.b_max, np.maximum(abs(cm.p_max), abs(cm.p_min)))

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            CostModel(tables=np.zeros((2, 3, 4)), c=np.zeros(2))


class TestRVector:
    def test_point_mass(self):
        actions, states, cost = sensor_tables()
        space = StrategySpace(actions, states, cost)
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(space.F))
            w = int(rng.integers(states.total))
            lam = point_mass(states.total, w)
            a = actions_of(space)[m, w]
            expect = cost.tables[:, a, w]
            assert np.allclose(r_vector(space, m, lam), expect, atol=1e-15)

    def test_constant_table(self):
        actions = ActionModel((2,))
        states = ProductStateSpace((2,))
        cost = CostModel(tables=np.full((2, 2, 2), 5.0), c=np.array([5.0]))
        space = StrategySpace(actions, states, cost)
        lam = FiniteDistribution(np.array([0.3, 0.7]))
        for m in range(space.F):
            assert np.allclose(r_vector(space, m, lam), 5.0)

    def test_sensor_all_transmit_brute_force(self):
        actions, states, cost = sensor_tables()
        space = StrategySpace(actions, states, cost)
        all_tx = PureStrategy(tuple((1, 1, 1, 1) for _ in range(3)))
        m = encode_strategy(all_tx, actions, states)
        per = np.array([0.1, 0.7, 0.1, 0.1])
        joint = np.einsum("i,j,k->ijk", per, per, per).ravel()
        # states decode with user 0 most significant, matching einsum order
        lam_probs = np.zeros(64)
        for w in range(64):
            w1, w2, w3 = states.decode(w)
            lam_probs[w] = per[w1] * per[w2] * per[w3]
        assert np.allclose(sorted(joint), sorted(lam_probs))
        lam = FiniteDistribution(lam_probs)
        r = r_vector(space, m, lam)
        assert np.allclose(r[1:], 1.0, atol=1e-12)
        brute = 0.0
        for w in range(64):
            w1, w2, w3 = states.decode(w)
            brute += lam_probs[w] * min(w1 / 3 + (w2 + w3) / 6, 1.0)
        assert r[0] == pytest.approx(-brute, abs=1e-12)

    def test_bounds_and_affinity(self):
        actions, states, cost = sensor_tables()
        space = StrategySpace(actions, states, cost)
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(space.F))
            raw = rng.random(states.total)
            lam1 = FiniteDistribution(raw / raw.sum())
            raw = rng.random(states.total)
            lam2 = FiniteDistribution(raw / raw.sum())
            a = float(rng.random())
            mix = FiniteDistribution(a * lam1.probs + (1 - a) * lam2.probs)
            r1, r2, rm = (r_vector(space, m, d) for d in (lam1, lam2, mix))
            assert np.all(r1 >= cost.p_min - 1e-12)
            assert np.all(r1 <= cost.p_max + 1e-12)
            assert np.allclose(rm, a * r1 + (1 - a) * r2, atol=1e-12)

    def test_r_table_matches_r_vector(self):
        actions, states, cost = sensor_tables()
        space = StrategySpace(actions, states, cost)
        rng = np.random.default_rng(9)
        raw = rng.random(states.total)
        lam = FiniteDistribution(raw / raw.sum())
        table = space.r_table(lam)
        assert table.shape == (4, space.F)
        for m in rng.integers(0, space.F, size=25):
            assert np.allclose(table[:, m], r_vector(space, int(m), lam), atol=1e-14)

    @pytest.mark.parametrize("case", ["sensor3", "random-small", "k0"])
    def test_lookups_equal_a_stored_cube(self, case):
        """``r_table``, ``curvature_rows`` and a block's ``p`` are bit-equal
        to the same operations on a stored, C-contiguous realized cube."""
        rng = np.random.default_rng(4)
        if case == "sensor3":
            space = sensor3_space()
            covering, schedule = sensor3_covering_and_schedule()
        else:
            actions, states = ActionModel((2, 3)), ProductStateSpace((2, 1))
            K = 2 if case == "random-small" else 0
            cost = CostModel(tables=rng.random((K + 1, actions.total, states.total)),
                             c=rng.random(K))
            space = StrategySpace(actions, states, cost)
            raw = rng.random((3, states.total)) + 0.1
            members = [FiniteDistribution(r / r.sum()) for r in raw]
            covering = CoveringSet(members=members, delta=1.0, alpha_delta=1.0, beta_delta=0.01)
            schedule = stationary(members[0])
        cube = np.ascontiguousarray(realized_cube(space))
        tables = space.r_table(covering.members)
        for member, table in zip(covering.members, tables):
            assert same_bits(space.r_table(member), cube @ member.probs)
            assert same_bits(table, cube @ member.probs)

        diff = cube[1:] - space.cost.c[:, None, None]
        sq = np.einsum("kfs,kfs->fs", diff, diff)
        ids, rows = space.curvature_rows
        assert same_bits(ids, cover_rows(sq)) and same_bits(rows, sq[ids])

        cfg = SimConfig(space=space, schedule=schedule, covering=covering,
                        V=20.0, D=1, window=3, horizon=30, seed=2)
        for tr in simulate._run_block(cfg, 0, 3):
            assert same_bits(tr.p, cube[:, tr.m, tr.omega].T)


class TestBt:
    def test_no_penalties(self):
        actions = ActionModel((2,))
        states = ProductStateSpace((3,))
        cost = CostModel(tables=np.ones((1, 2, 3)), c=np.zeros(0))
        space = StrategySpace(actions, states, cost)
        assert b_value(space, uniform(3)) == 0.0
        assert space.b_series(np.full((4, 3), 1 / 3)).tolist() == [0.0] * 4

    def test_penalty_at_constraint(self):
        actions = ActionModel((2,))
        states = ProductStateSpace((3,))
        tables = np.ones((2, 2, 3))
        cost = CostModel(tables=tables, c=np.array([1.0]))
        space = StrategySpace(actions, states, cost)
        assert b_value(space, uniform(3)) == 0.0

    def test_binary_penalty_quarter(self):
        actions = ActionModel((2,))
        states = ProductStateSpace((2,))
        tables = np.zeros((2, 2, 2))
        tables[1, :, 1] = 1.0  # strategy-independent, 0/1 across two states
        cost = CostModel(tables=tables, c=np.array([0.0]))
        space = StrategySpace(actions, states, cost)
        assert b_value(space, uniform(2)) == pytest.approx(0.25)

    def test_loose_cap(self):
        actions, states, cost = sensor_tables()
        space = StrategySpace(actions, states, cost)
        cap = 0.5 * sum(
            max(abs(cost.p_max[k] - cost.c[k - 1]), abs(cost.p_min[k] - cost.c[k - 1])) ** 2
            for k in range(1, 4)
        )
        rng = np.random.default_rng(2)
        for _ in range(20):
            raw = rng.random(states.total)
            pi = FiniteDistribution(raw / raw.sum())
            assert 0.0 <= b_value(space, pi) <= cap + 1e-12

    def test_b_series_matches_pointwise(self):
        actions, states, cost = sensor_tables()
        space = StrategySpace(actions, states, cost)
        rng = np.random.default_rng(4)
        raw = rng.random((7, states.total))
        weights = raw / raw.sum(axis=1, keepdims=True)
        series = space.b_series(weights)
        for t in range(7):
            assert series[t] == pytest.approx(
                b_value(space, FiniteDistribution(weights[t])), abs=1e-12
            )


def _full_b_series(space, weights):
    diff = realized_cube(space)[1:] - space.cost.c[:, None, None]
    sq = (diff**2).sum(axis=0)
    return sq, 0.5 * (sq @ weights.T).max(axis=0)


def _assert_covered(table, ids):
    kept = table[ids]
    for row in table:
        assert (row <= kept).all(axis=1).any()


@st.composite
def small_spaces(draw):
    """Two users with 1-2 actions and 1-2 local states, K in 0..2 penalties
    and small integer costs: F <= 16, with duplicate and tied rows."""
    actions = ActionModel(tuple(draw(st.integers(1, 2)) for _ in range(2)))
    states = ProductStateSpace(tuple(draw(st.integers(1, 2)) for _ in range(2)))
    K = draw(st.integers(0, 2))
    tables = draw(arrays(np.int64, (K + 1, actions.total, states.total),
                         elements=st.integers(0, 3)))
    c = draw(arrays(np.int64, (K,), elements=st.integers(0, 2)))
    weights = draw(arrays(np.int64, (3, states.total), elements=st.integers(0, 4)))
    weights[:, 0] += 1  # no all-zero row
    space = StrategySpace(actions, states, CostModel(tables=tables, c=c))
    return space, weights / weights.sum(axis=1, keepdims=True)


class TestCurvatureRows:
    @given(arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
                  elements=st.integers(0, 3)))
    @settings(max_examples=300, deadline=None)
    def test_every_row_is_under_a_kept_row(self, table):
        ids = cover_rows(table)
        assert ids.tolist() == sorted(set(ids.tolist()))
        _assert_covered(table, ids)

    def test_no_dominated_row_keeps_all_after_one_pass(self):
        # an antichain: the first kept row drops only itself, so the sweep stops
        table = np.array([[3, 0, 1], [0, 3, 1], [1, 1, 2], [2, 2, 0]])
        assert cover_rows(table).tolist() == [0, 1, 2, 3]

    @given(small_spaces())
    @settings(max_examples=300, deadline=None)
    def test_b_series_equals_full_table_max(self, case):
        space, weights = case
        sq, expected = _full_b_series(space, weights)
        ids, rows = space.curvature_rows
        _assert_covered(sq, ids)
        np.testing.assert_array_equal(rows, sq[ids])
        np.testing.assert_allclose(space.b_series(weights), expected, rtol=1e-13)

    def test_sensor3_keeps_only_the_top_strategy(self):
        actions, states, cost = sensor_tables()
        space = StrategySpace(actions, states, cost)
        ids, rows = space.curvature_rows
        assert ids.tolist() == [4095]
        rng = np.random.default_rng(5)
        raw = rng.random((50, states.total))
        weights = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            space.b_series(weights), _full_b_series(space, weights)[1], rtol=1e-13
        )


class TestMemory:
    """Realized costs are looked up through the (strategy, state) index, one
    cost row at a time: a stored (K+1, F, |Omega|) cube, 8 MiB on sensor3,
    would fail both bounds."""

    def test_sensor3_config_and_curvature_rows_stay_small(self):
        tracemalloc.start()
        try:
            cfg = config_from_dict({"preset": "sensor3"})
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cfg.space.curvature_rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 6 * 2**20
        assert peak < 16 * 2**20
