import math
import multiprocessing
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _helpers import (
    point_mass, same_bits, sensor3_covering_and_schedule, sensor3_space, sensor_limit, stationary,
    uniform,
)
from driftlab import simulate
from driftlab import ConfigurationError, CoveringSet, FiniteDistribution
from driftlab.errors import DimensionError, DriftlabError, EstimationError
from driftlab.distributions import PiecewiseSchedule, ProductStateSpace
from driftlab.simulate import (
    RUN_BLOCK,
    SimConfig,
    detect,
    detect_windows,
    run,
    run_ensemble,
    run_rngs,
    select_strategy,
    selection_candidates,
    update_queues,
    warmup_detect,
)
from driftlab.strategies import ActionModel, CostModel, StrategySpace
from oracles import actions_of, b_value, decode_strategy, lyapunov_drift, realized_cube


@pytest.fixture(scope="module")
def sensor_cfg():
    space = sensor3_space()
    cov, sch = sensor3_covering_and_schedule()
    return SimConfig(
        space=space, schedule=sch, covering=cov,
        V=20.0, D=0, window=40, horizon=60, seed=1,
    )


def tiny_covering(*probs_rows, delta=1.0):
    members = tuple(FiniteDistribution(np.array(r, dtype=float)) for r in probs_rows)
    mat = np.vstack([m.probs for m in members])
    pos = mat[mat > 0]
    return CoveringSet(
        members=members,
        delta=delta,
        alpha_delta=float(pos.max()) * 1.01 + 1e-12,
        beta_delta=float(pos.min()) * 0.99,
    )


class TestDetect:
    def test_single_member(self):
        cov = tiny_covering([0.5, 0.5])
        assert detect([0, 1, 1], cov) == 0

    def test_identical_members_tie_low(self):
        cov = tiny_covering([0.5, 0.5], [0.5, 0.5])
        assert detect([0, 1], cov) == 0

    def test_well_separated_members(self):
        cov = tiny_covering([0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9])
        rng = np.random.default_rng(0)
        errors = 0
        for _ in range(300):
            window = rng.choice(3, size=40, p=cov.members[2].probs)
            errors += detect(window, cov) != 2
        assert errors == 0

    def test_zero_mass_ranks_last(self):
        cov = tiny_covering([0.0, 1.0], [0.5, 0.5])
        assert detect([0], cov) == 1


@st.composite
def screen_inputs(draw):
    """A random covering with zero-mass outcomes, duplicated members and
    near-equal likelihoods, a block of state streams, D, and a window."""
    n_out = draw(st.integers(1, 6))
    weights = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 1e-3, 0.7])
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if rows and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])  # exact duplicate
            continue
        row = np.array(draw(st.lists(weights, min_size=n_out, max_size=n_out)))
        if not row.any():
            row[draw(st.integers(0, n_out - 1))] = 1.0
        rows.append(row / row.sum())
    if n_out > 1 and draw(st.booleans()):  # an outcome every member misses
        rows = [np.where(np.arange(n_out) == n_out - 1, 0.0, r) for r in rows]
        rows = [r / r.sum() if r.any() else np.eye(n_out)[0] for r in rows]
    T = draw(st.integers(1, 40))
    n = draw(st.integers(1, 17))
    window = draw(st.integers(1, 6))
    omega = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, n_out, (n, T))
    return tiny_covering(*rows), omega, draw(st.integers(0, 3)), window, draw(st.integers(1, 9))


class TestDetectWindows:
    @given(screen_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_detect_slot_by_slot(self, inputs):
        cov, omega, D, window, chunk = inputs
        n, T = omega.shape
        cfg = SimConfig(space=None, schedule=None, covering=cov, V=0.0, D=D,
                        window=window, horizon=T, seed=0)
        post = np.flatnonzero(~cfg.warmup_mask())
        with mock.patch.object(simulate, "SCREEN_CELLS", chunk * n):
            got = detect_windows(omega, post, window, D, cov)
        assert got.shape == (n, post.size)
        for col, t in enumerate(post):
            window_t = omega[:, t - D - window + 1 : t - D + 1]
            assert np.array_equal(got[:, col], detect(window_t, cov)), t
            dead = np.isinf(cov.log_matrix[:, window_t]).any(axis=-1).all(axis=0)
            assert not got[dead, col].any()  # every member -inf: member 0

    def test_ties_go_through_detect_once_per_chunk(self):
        cov = tiny_covering([0.5, 0.5], [0.5, 0.5], [0.9, 0.1])
        omega = np.tile([1, 1, 0, 1, 1, 0, 1, 1], (3, 5))  # (3, 40); member 2 never wins
        slots = np.arange(6, 40)  # 60 cells over 3 runs: chunks of 20 and 14 slots
        with mock.patch.object(simulate, "SCREEN_CELLS", 60), \
                mock.patch.object(simulate, "detect", wraps=detect) as spy:
            got = detect_windows(omega, slots, 5, 1, cov)
        assert not got.any()  # members 0 and 1 tie exactly; the lowest index wins
        assert [call.args[0].shape for call in spy.call_args_list] == [(60, 5), (42, 5)]
        with mock.patch.object(simulate, "detect", wraps=detect) as spy:
            detect_windows(omega, slots, 5, 1, tiny_covering([0.5, 0.5], [0.9, 0.1]))
        assert spy.call_count == 0  # no ties: the screen settles every window

    @pytest.mark.parametrize("rows", [
        ([0.0, 0.6, 0.4], [0.3, 0.0, 0.7], [0.5, 0.5, 0.0]),
        ([0.0, 1.0, 0.0], [0.2, 0.6, 0.2], [0.0, 0.9, 0.1]),
    ], ids=["zero-mass-outcome", "member-at-one"])
    def test_equals_detect_on_zero_and_unit_masses(self, rows):
        cov = tiny_covering(*rows)
        omega = np.random.default_rng(11).choice(3, size=(6, 300), p=[0.1, 0.8, 0.1])
        for D, w in ((0, 1), (2, 7), (1, 40)):
            slots = np.arange(D + w - 1, 300)
            got = detect_windows(omega, slots, w, D, cov)
            for col, t in enumerate(slots):
                want = detect(omega[:, t - D - w + 1 : t - D + 1], cov)
                assert np.array_equal(got[:, col], want), (D, w, t)
        # the screen's premise: finite log-probabilities are <= 0, so the
        # cumsum of their magnitudes is the negated cumsum, exactly
        x = np.where(np.isfinite(cov.log_matrix), cov.log_matrix, 0.0)[:, omega[0]]
        assert (x <= 0).all()
        assert np.array_equal(np.cumsum(np.abs(x), axis=-1), -np.cumsum(x, axis=-1))

    def test_windows_outside_the_streams_are_rejected(self):
        cov = tiny_covering([0.5, 0.5])
        with pytest.raises(DimensionError):
            detect_windows(np.zeros((1, 5), dtype=int), np.array([3]), 5, 0, cov)


class TestWarmupDetect:
    def test_single_member(self):
        cov = tiny_covering([1.0])
        assert not warmup_detect(cov, np.random.default_rng(0), 5).any()

    def test_uniform_frequencies(self):
        cov = tiny_covering(*[[0.5 - i * 0.01, 0.5 + i * 0.01] for i in range(8)])
        draws = warmup_detect(cov, np.random.default_rng(99), 100_000)
        freqs = np.bincount(draws, minlength=8) / draws.size
        assert np.all(np.abs(freqs - 0.125) < 0.01)

    def test_deterministic(self):
        cov = tiny_covering([0.4, 0.6], [0.6, 0.4])
        a = warmup_detect(cov, np.random.default_rng(5), 10)
        b = warmup_detect(cov, np.random.default_rng(5), 10)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("M", [1, 3, 8])
    def test_equals_scalar_draws(self, M):
        # the loop draws a run's picks at once; the streams pin slot-by-slot draws
        cov = tiny_covering(*[[0.5 - i * 0.01, 0.5 + i * 0.01] for i in range(M)])
        _, rng = run_rngs(3, 7)
        _, scalar_rng = run_rngs(3, 7)
        picks = warmup_detect(cov, rng, 200)
        assert picks.tolist() == [int(scalar_rng.integers(M)) for _ in range(200)]


class TestSelectStrategy:
    def test_all_zero_ties_to_first(self):
        rt = np.zeros((3, 10))
        rt[0] = np.linspace(0, 1, 10)
        assert select_strategy(np.zeros(2), 0.0, rt) == 0

    def test_zero_queue_is_cost_greedy(self):
        rng = np.random.default_rng(1)
        rt = rng.normal(size=(4, 50))
        assert select_strategy(np.zeros(3), 7.0, rt) == int(np.argmin(rt[0]))

    def test_matches_exhaustive_scan_on_benchmark(self):
        space = sensor3_space()
        rt = space.r_table(sensor_limit())
        rng = np.random.default_rng(17)
        for _ in range(100):
            q = rng.uniform(0, 30, size=3)
            v = float(rng.uniform(0, 50))
            best_m, best_s = 0, None
            for m in range(space.F):
                s = v * rt[0][m]
                for k in range(3):
                    s += rt[k + 1][m] * q[k]
                if best_s is None or s < best_s:
                    best_m, best_s = m, s
            assert select_strategy(q, v, rt) == best_m

    def test_benchmark_slot(self):
        space = sensor3_space()
        rt = space.r_table(sensor_limit())
        q = np.array([5.0, 5.0, 5.0])
        scores = 20.0 * rt[0] + rt[1:].T @ q
        assert select_strategy(q, 20.0, rt) == int(np.argmin(scores))


def naive_candidates(rt):
    """Indices m that no m' < m weakly dominates, one column at a time."""
    keep = [m for m in range(rt.shape[1])
            if not np.all(rt[:, :m] <= rt[:, m, None], axis=0).any()]
    return np.array(keep, dtype=np.int64)


@st.composite
def tied_selection_inputs(draw):
    """Small integer tables with many ties, V >= 0 and queues >= 0 with zeros."""
    rows = draw(st.integers(1, 4))
    F = draw(st.integers(1, 30))
    rt = draw(arrays(np.float64, (rows, F), elements=st.integers(-2, 2).map(float)))
    n = draw(st.integers(1, 4))
    queue_values = st.sampled_from([0.0, 0.5, 1.0, 3.0])
    q = draw(arrays(np.float64, (n, rows - 1), elements=queue_values))
    V = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    chunk = draw(st.integers(1, 8))
    return rt, q, V, chunk


class TestSelectionCandidates:
    @given(tied_selection_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_naive_and_keeps_the_argmin(self, inputs):
        rt, q, V, chunk = inputs
        with mock.patch.object(simulate, "PRUNE_CHUNK", chunk):
            cand = selection_candidates(rt)
        assert np.array_equal(cand, naive_candidates(rt))
        sub = rt[:, cand]
        assert np.array_equal(cand[select_strategy(q, V, sub)], select_strategy(q, V, rt))
        for qi in q:
            assert cand[select_strategy(qi, V, sub)] == select_strategy(qi, V, rt)

    def test_sensor3_counts_pinned(self):
        space = sensor3_space()
        cov, _ = sensor3_covering_and_schedule()
        tables = [space.r_table(member) for member in cov.members]
        cands = [selection_candidates(rt) for rt in tables]
        assert [c.size for c in cands] == [442, 481, 509, 504, 504, 505, 512, 491]
        assert np.array_equal(cands[0], naive_candidates(tables[0]))

    def test_pruned_once_per_config(self):
        space = sensor3_space()
        cov, sch = sensor3_covering_and_schedule()
        cfg = SimConfig(space=space, schedule=sch, covering=cov, V=20.0, D=0,
                        window=40, horizon=50, seed=1)
        calls = []
        prune = simulate.selection_candidates
        with mock.patch.object(simulate, "selection_candidates",
                               lambda rt: calls.append(1) or prune(rt)):
            for i in range(3):
                run(cfg, i)
        assert len(calls) == cov.size == 8


class TestQueues:
    def test_at_constraint(self):
        q = update_queues(np.zeros(2), np.array([0.5, 0.2]), np.array([0.5, 0.2]))
        assert np.array_equal(q, np.zeros(2))

    def test_direct_arithmetic(self):
        q = update_queues(np.array([1.0]), np.array([0.0]), np.array([0.5]))
        assert np.array_equal(q, np.array([0.5]))

    def test_clamps_at_zero(self):
        q = update_queues(np.array([0.1]), np.array([0.0]), np.array([0.5]))
        assert np.array_equal(q, np.array([0.0]))

    def test_lyapunov(self):
        assert lyapunov_drift(np.zeros(3), np.zeros(3)) == (0.0, 0.0, 0.0)
        lb, la, d = lyapunov_drift(np.array([3.0, 4.0]), np.array([0.0, 0.0]))
        assert lb == 12.5 and la == 0.0 and d == -12.5

    def test_drift_telescopes_on_trace(self, sensor_cfg):
        tr = run(sensor_cfg)
        k = tr.q.shape[1]
        total = 0.0
        prev = np.zeros(k)
        for t in range(tr.horizon):
            total += lyapunov_drift(prev, tr.q[t])[2]
            prev = tr.q[t]
        assert total == pytest.approx(lyapunov_drift(np.zeros(k), tr.q[-1])[1] - 0.0)


class TestRun:
    def test_single_slot_warmup_boundary(self):
        actions = ActionModel((2,))
        states = ProductStateSpace((2,))
        cost = CostModel(tables=np.ones((2, 2, 2)), c=np.array([1.0]))
        space = StrategySpace(actions, states, cost)
        cov = tiny_covering([0.5, 0.5])
        cfg = SimConfig(
            space=space, schedule=stationary(uniform(2)),
            covering=cov, V=1.0, D=0, window=1, horizon=1, seed=0,
        )
        tr = run(cfg)
        assert tr.horizon == 1
        assert cfg.warmup_mask()[0]

    def test_point_mass_single_strategy(self):
        actions = ActionModel((1,))
        states = ProductStateSpace((3,))
        tables = np.zeros((2, 1, 3))
        tables[0, 0] = [4.0, 5.0, 6.0]
        tables[1, 0] = [0.5, 0.5, 0.5]
        cost = CostModel(tables=tables, c=np.array([1.0]))
        space = StrategySpace(actions, states, cost)
        cfg = SimConfig(
            space=space,
            schedule=stationary(point_mass(3, 1)),
            covering=tiny_covering([0.2, 0.6, 0.2]),
            V=3.0, D=0, window=2, horizon=20, seed=4,
        )
        tr = run(cfg)
        assert np.all(tr.omega == 1)
        assert np.all(tr.m == 0)
        assert np.allclose(tr.avg[:, 0], 5.0)
        assert np.allclose(tr.p[:, 1], 0.5)

    def test_golden_trace_regression(self, sensor_cfg):
        tr = run(sensor_cfg)
        assert tr.omega[:8].tolist() == [25, 20, 23, 21, 14, 37, 17, 37]
        assert tr.jstar[38:46].tolist() == [1, 3, 2, 2, 2, 0, 0, 0]
        assert tr.m[38:46].tolist() == [3214, 3212, 3212, 3214, 3212, 3276, 3278, 3276]
        assert tr.p[40:44, 0].tolist() == pytest.approx(
            [-1 / 3, -5 / 6, 0.0, -1 / 3], abs=1e-15
        )
        assert tr.q[44].tolist() == pytest.approx([7.0, 4.0, 5.0], abs=1e-12)
        assert tr.avg[-1].tolist() == pytest.approx(
            [-0.5, 29 / 60, 0.4, 0.4], abs=1e-12
        )

    def test_queue_and_cost_invariants(self, sensor_cfg):
        tr = run(sensor_cfg)
        cost = sensor_cfg.space.cost
        assert np.all(tr.q >= 0)
        slots = np.arange(1, tr.horizon + 1)[:, None]
        assert np.all(tr.q <= slots * (cost.p_max[1:] - cost.c) + 1e-12)
        assert np.all(tr.p >= cost.p_min - 1e-15)
        assert np.all(tr.p <= cost.p_max + 1e-15)

    def test_realized_costs_match_tables(self, sensor_cfg):
        tr = run(sensor_cfg)
        space = sensor_cfg.space
        actions = actions_of(space)
        for t in range(tr.horizon):
            a = actions[int(tr.m[t]), int(tr.omega[t])]
            assert np.array_equal(tr.p[t], space.cost.tables[:, a, int(tr.omega[t])])

    def test_distributed_decisions(self, sensor_cfg):
        # each user's action must be recoverable from (own state, strategy index)
        tr = run(sensor_cfg)
        space = sensor_cfg.space
        actions = actions_of(space)
        for t in range(0, tr.horizon, 7):
            s = decode_strategy(int(tr.m[t]), space.actions, space.states)
            comps = space.states.decode(int(tr.omega[t]))
            per_user = [s.tables[i][comps[i]] for i in range(3)]
            joint = space.actions.encode(per_user)
            assert joint == actions[int(tr.m[t]), int(tr.omega[t])]

    def test_validation_runs_before_slot_zero(self, sensor_cfg):
        bad = SimConfig(
            space=sensor_cfg.space, schedule=sensor_cfg.schedule,
            covering=sensor_cfg.covering, V=-1.0, D=0, window=40,
            horizon=10, seed=0,
        )
        with pytest.raises(ConfigurationError, match="V must be"):
            run(bad)

    @pytest.mark.parametrize("V", [math.nan, math.inf])
    def test_validation_rejects_non_finite_V(self, sensor_cfg, V):
        bad = SimConfig(
            space=sensor_cfg.space, schedule=sensor_cfg.schedule,
            covering=sensor_cfg.covering, V=V, D=0, window=40,
            horizon=10, seed=0,
        )
        with pytest.raises(ConfigurationError, match="V must be finite"):
            run(bad)

    def test_outcome_no_member_covers_is_rejected(self):
        actions = ActionModel((1,))
        states = ProductStateSpace((3,))
        cost = CostModel(tables=np.ones((2, 1, 3)), c=np.array([1.0]))
        limit = FiniteDistribution(np.array([0.5, 0.5, 0.0]))
        schedule = PiecewiseSchedule(
            limit=limit,
            segments=((0, limit), (7, FiniteDistribution(np.array([0.4, 0.4, 0.2]))),
                      (9, limit)),
        )
        cfg = SimConfig(
            space=StrategySpace(actions, states, cost), schedule=schedule,
            covering=tiny_covering([0.5, 0.5, 0.0], [0.4, 0.6, 0.0]),
            V=1.0, D=0, window=2, horizon=20, seed=0,
        )
        with pytest.raises(ConfigurationError, match="outcome 2 from slot 7"):
            run_ensemble(cfg, 2)

    @pytest.mark.parametrize("window", [lambda t: 40, True, 2.5, 0],
                             ids=["callable", "bool", "float", "zero"])
    def test_window_must_be_one_positive_integer(self, sensor_cfg, window):
        bad = replace(sensor_cfg, window=window)
        with pytest.raises(ConfigurationError, match="window"):
            bad.validate()
        with pytest.raises(ConfigurationError, match="window"):
            run_ensemble(bad, 2)

    @pytest.mark.parametrize("field, value", [
        ("V", True), ("V", "1"), ("D", 1.5), ("D", True), ("horizon", 50.0), ("seed", -1),
        ("seed", 0.0),
        ("n_runs", 2.5), ("n_runs", "3"), ("n_runs", True), ("n_runs", 0),
        ("run_index", 1.0), ("run_index", -1), ("run_index", False),
    ])
    def test_integer_fields_fail_closed(self, sensor_cfg, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            if field == "n_runs":
                run_ensemble(sensor_cfg, value)
            elif field == "run_index":
                run(sensor_cfg, value)
            else:
                run_ensemble(replace(sensor_cfg, **{field: value}), 2)

    def test_delay_shifts_queue_inputs(self, sensor_cfg):
        cfg = SimConfig(
            space=sensor_cfg.space, schedule=sensor_cfg.schedule,
            covering=sensor_cfg.covering, V=20.0, D=3, window=10,
            horizon=30, seed=2,
        )
        tr = run(cfg)
        c = cfg.space.cost.c
        q = np.zeros(3)
        for t in range(tr.horizon):
            delayed = tr.p[t - 3, 1:] if t - 3 >= 0 else np.zeros(3)
            q = np.maximum(q + delayed - c, 0.0)
            assert np.allclose(tr.q[t], q, atol=1e-15)


class TestEverySlotReplay:
    """Every slot of every run equals the public kernels called on the
    recorded trace, on the full r_table: the loop's passes, candidate sets
    and run blocks change nothing."""

    @pytest.mark.parametrize("D, horizon, window", [
        (0, 23, 7), (1, 25, 7), (2, 29, 5), (5, 40, 6), (5, 4, 3), (2, 2, 9),
    ])
    def test_kernels_reproduce_every_slot(self, sensor_cfg, D, horizon, window):
        cfg = SimConfig(
            space=sensor_cfg.space, schedule=sensor_cfg.schedule,
            covering=sensor_cfg.covering, V=20.0, D=D, window=window,
            horizon=horizon, seed=D + 11,
        )
        if D >= horizon:
            assert cfg.warmup_mask().all()
        space = cfg.space
        tables = [space.r_table(member) for member in cfg.covering.members]
        realized = realized_cube(space)
        c = space.cost.c
        zeros = np.zeros(c.size)
        traces = []
        run_ensemble(cfg, 3, on_trace=lambda i, tr: traces.append(tr), store_runs=False)
        for i, tr in enumerate(traces):
            for t in range(horizon):
                q_prev = tr.q[t - 1] if t else zeros
                assert tr.m[t] == select_strategy(q_prev, cfg.V, tables[tr.jstar[t]]), (i, t)
                delayed = tr.p[t - D, 1:] if t >= D else zeros
                assert np.array_equal(tr.q[t], update_queues(q_prev, delayed, c)), (i, t)
                assert np.array_equal(tr.p[t], realized[:, tr.m[t], tr.omega[t]]), (i, t)


class TestEnsemble:
    def test_single_run_equals_trace(self, sensor_cfg):
        ens = run_ensemble(sensor_cfg, 1)
        tr = run(sensor_cfg, run_index=0)
        assert np.allclose(ens.mean_p, tr.p)
        assert np.allclose(ens.final_avg[0], tr.avg[-1])

    def test_deterministic_across_calls(self, sensor_cfg):
        a = run_ensemble(sensor_cfg, 5)
        b = run_ensemble(sensor_cfg, 5)
        assert np.array_equal(a.mean_p, b.mean_p)
        assert np.array_equal(a.jstar, b.jstar)

    def test_runs_independent_of_order(self, sensor_cfg, monkeypatch):
        monkeypatch.setattr(simulate, "PASS_ROWS", RUN_BLOCK)  # two blocks in-process too
        ens = run_ensemble(sensor_cfg, RUN_BLOCK + 2)
        # re-simulating a run alone reproduces its slice, in the first block
        # and past it
        for i in (2, RUN_BLOCK + 1):
            tr = run(sensor_cfg, run_index=i)
            assert np.array_equal(ens.p[i], tr.p)
            assert np.array_equal(ens.jstar[i], tr.jstar)
            assert np.array_equal(ens.m[i], tr.m)
            assert np.array_equal(ens.q[i], tr.q)

    def test_on_trace_streaming_and_store_off(self, sensor_cfg):
        seen = []
        ens = run_ensemble(
            sensor_cfg, 3, on_trace=lambda i, tr: seen.append((i, tr.horizon)),
            store_runs=False,
        )
        assert seen == [(0, 60), (1, 60), (2, 60)]
        assert ens.p is None
        with pytest.raises(EstimationError, match="without per-run arrays"):
            _ = ens.errors

    def test_warmup_uniform_pick_rate(self, sensor_cfg):
        ens = run_ensemble(sensor_cfg, 300)
        warm_errors = ens.errors[:, :39]
        assert warm_errors.mean() == pytest.approx(7 / 8, abs=0.02)

    def test_classical_guarantee_single_member_stationary(self):
        # no detection, no delay, stationary state: average cost approaches
        # the LP optimum at rate O(1/V), so gaps shrink as V grows
        from _helpers import sensor_limit
        from driftlab import CoveringSet
        from driftlab.lp import instance_for, solve_lp

        space = sensor3_space()
        pi = sensor_limit()
        cov = CoveringSet(
            members=(pi,), delta=0.5, alpha_delta=0.4, beta_delta=0.0009
        )
        lp_value = solve_lp(instance_for(space, pi)).value
        curvature = b_value(space, pi)
        gaps = []
        for v in (5.0, 20.0, 80.0):
            cfg = SimConfig(
                space=space, schedule=stationary(pi), covering=cov,
                V=v, D=0, window=1, horizon=3000, seed=3,
            )
            ens = run_ensemble(cfg, 12)
            gap = float(ens.final_avg[:, 0].mean() - lp_value)
            assert abs(gap) <= curvature / v + 0.01
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2] - 1e-3


@pytest.fixture(scope="module")
def worker_cfg():
    space = sensor3_space()
    cov, sch = sensor3_covering_and_schedule()
    return SimConfig(
        space=space, schedule=sch, covering=cov,
        V=20.0, D=1, window=10, horizon=80, seed=3,
    )


def use_cpus(monkeypatch, n):
    """Make the process see ``n`` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(n)))


TRACE_FIELDS = ("omega", "jstar", "m", "p", "q", "avg")
RESULT_FIELDS = ("mean_p", "final_avg", "warmup", "p", "jstar", "m", "q")


class TestWorkers:
    @pytest.fixture(scope="class")
    def in_process(self, worker_cfg):
        """Per run count: the in-process result and every streamed trace."""
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            use_cpus(mp, 1)
            for n in (1, 2, 17, 33, 40):
                seen = []
                ens = run_ensemble(worker_cfg, n, on_trace=lambda i, tr: seen.append((i, tr)))
                out[n] = ens, seen
        return out

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_runs", [1, 2, 17, 33, 40])
    def test_bit_identical_to_in_process(self, worker_cfg, in_process, monkeypatch,
                                         cpus, n_runs):
        use_cpus(monkeypatch, cpus)
        assert simulate._worker_count(n_runs) == min(cpus, -(-n_runs // RUN_BLOCK))
        seen, threads = [], set()

        def on_trace(i, tr):
            seen.append((i, tr))
            threads.add(threading.active_count())

        ens = run_ensemble(worker_cfg, n_runs, on_trace=on_trace)
        assert threads == {1}  # the parent receives on its own thread
        ref, ref_seen = in_process[n_runs]
        for name in RESULT_FIELDS:
            assert same_bits(getattr(ens, name), getattr(ref, name)), name
        assert (ens.run_count, ens.istar) == (ref.run_count, ref.istar)
        assert [i for i, _ in seen] == list(range(n_runs))
        for (_, tr), (_, ref_tr) in zip(seen, ref_seen):
            for name in TRACE_FIELDS:
                assert same_bits(getattr(tr, name), getattr(ref_tr, name)), name

    @pytest.mark.parametrize("n_runs", [1, 15, 16, 17, 20, 33, 40, 100, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_partition(self, n_runs, workers):
        workers = min(workers, -(-n_runs // RUN_BLOCK))
        for D in (0, 1, 2, 5, 47, 95, 96, 200):
            cap = max(1, simulate.PASS_ROWS // (D + 1))
            blocks = simulate._partition(n_runs, workers, D)
            sizes = [size for _, size in blocks]
            # a multiple of the workers, unless that would leave a block empty
            assert len(blocks) % workers == 0 or len(blocks) == n_runs, D
            assert len(blocks) >= max(workers, -(-n_runs // cap)), D
            assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1 and min(sizes) >= 1, D
            assert [first for first, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
            assert sum(sizes) == n_runs

    def test_twenty_runs_split_evenly(self):
        for D in (0, 2):
            assert list(simulate._partition(20, 2, D)) == [(0, 10), (10, 10)]
        # the piecewise-delay ensemble: D = 2 caps a block at 32 runs
        assert list(simulate._partition(120, 2, 2)) == [(0, 30), (30, 30), (60, 30), (90, 30)]

    def test_huge_partition_is_computed_not_listed(self):
        start = time.perf_counter()
        blocks = simulate._partition(10**12, 2, 0)
        count = len(blocks)
        picked = [blocks[b] for b in (0, 1, count - 1)]
        assert time.perf_counter() - start < 0.05
        assert count == -(-10**12 // simulate.PASS_ROWS) + 1  # rounded up to 2 workers
        size, extra = divmod(10**12, count)
        assert picked == [(b * size + min(b, extra), size + (b < extra)) for b in (0, 1, count - 1)]
        assert picked[-1][0] + picked[-1][1] == 10**12
        with pytest.raises(IndexError):
            blocks[count]

    def test_worker_exception_keeps_type_and_message(self, worker_cfg, monkeypatch):
        from driftlab.config import ConfigError

        use_cpus(monkeypatch, 2)
        parent = simulate.os.getpid()

        def failing_block(config, first, n):
            raise ConfigError([f"run {first}", f"pid {simulate.os.getpid()}"])

        monkeypatch.setattr(simulate, "_run_block", failing_block)
        with pytest.raises(ConfigError) as info:
            run_ensemble(worker_cfg, 40)
        first, pid = info.value.errors
        assert first == "run 0"
        assert pid != f"pid {parent}"  # raised in a forked worker
        assert str(info.value) == f"invalid configuration:\n  run 0\n  {pid}"
        assert not multiprocessing.active_children()

    def test_worker_that_dies_is_reported(self, worker_cfg, monkeypatch):
        use_cpus(monkeypatch, 2)
        parent = simulate.os.getpid()

        def dying_block(config, first, n):
            if simulate.os.getpid() == parent:
                raise AssertionError("expected to run in a forked worker")
            simulate.os._exit(7)

        monkeypatch.setattr(simulate, "_run_block", dying_block)
        with pytest.raises(DriftlabError, match="worker 0 exited with code 7 before sending run 0"):
            run_ensemble(worker_cfg, 40)
        assert not multiprocessing.active_children()

    def test_on_trace_exception_stops_every_worker(self, worker_cfg, monkeypatch):
        use_cpus(monkeypatch, 2)
        seen = []

        def on_trace(i, tr):
            seen.append(i)
            if i == 3:
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            run_ensemble(worker_cfg, 40, on_trace=on_trace)
        assert seen == [0, 1, 2, 3]
        assert not multiprocessing.active_children()
