import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import point_mass, stationary, uniform
from driftlab import (
    ActionModel,
    ConfigurationError,
    CoveringSet,
    DimensionError,
    DomainError,
    FiniteDistribution,
    GeometricSchedule,
    PiecewiseSchedule,
    ProductStateSpace,
    l1_distance,
    nearest_member,
)
from driftlab.simulate import _draw_states
from oracles import (
    cdf, divergence, metric_entropy, sample, schedule_at, tv_distance, window_loglik,
)

F = FiniteDistribution


def dist(*p):
    return F(np.array(p, dtype=float))


@st.composite
def prob_vectors(draw, n=4):
    raw = draw(
        st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)
    )
    a = np.array(raw)
    return F(a / a.sum())


class TestFiniteDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            dist(1.2, -0.2)

    def test_negative_entry_message_is_a_plain_float(self):
        with pytest.raises(ConfigurationError) as info:
            dist(1.1, -0.1)
        assert str(info.value) == "negative probability entry: min=-0.1"

    def test_rejects_bad_sum(self):
        with pytest.raises(ConfigurationError):
            dist(0.5, 0.4)

    @pytest.mark.parametrize("probs", [[float("nan"), 1.0], [1.0, float("nan")],
                                       [float("inf"), 1.0]])
    def test_rejects_non_finite(self, probs):
        # a NaN entry makes the sum NaN, which no tolerance comparison rejects
        with pytest.raises(ConfigurationError, match="non-finite probability"):
            F(np.array(probs))

    def test_immutable(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestDistances:
    def test_identity(self):
        d = dist(0.3, 0.7)
        assert l1_distance(d, d) == 0.0
        assert tv_distance(d, d) == 0.0

    def test_disjoint_point_masses(self):
        p = point_mass(2, 0)
        q = point_mass(2, 1)
        assert l1_distance(p, q) == 2.0
        assert tv_distance(p, q) == 1.0

    def test_hand_values(self):
        p = dist(0.5, 0.5)
        q = dist(0.25, 0.75)
        assert l1_distance(p, q) == pytest.approx(0.5, abs=1e-15)
        assert tv_distance(p, q) == pytest.approx(0.25, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            l1_distance(dist(1.0), dist(0.5, 0.5))

    @given(prob_vectors(), prob_vectors(), prob_vectors())
    @settings(max_examples=200, deadline=None)
    def test_metric_properties(self, p, q, r):
        dpq = l1_distance(p, q)
        assert dpq >= 0
        assert dpq == pytest.approx(l1_distance(q, p), abs=1e-15)
        assert dpq <= l1_distance(p, r) + l1_distance(r, q) + 1e-12
        assert tv_distance(p, q) == pytest.approx(dpq / 2, abs=1e-15)
        assert 0 <= dpq <= 2


class TestProductStateSpace:
    space_cls, kind = ProductStateSpace, "state"

    def test_bijection_exhaustive(self):
        space = self.space_cls((4, 4, 4))
        assert space.total == 64
        seen = set()
        for j in range(space.total):
            comp = space.decode(j)
            assert space.encode(comp) == j
            seen.add(comp)
        assert len(seen) == 64

    def test_first_user_most_significant(self):
        space = self.space_cls((4, 4, 4))
        assert space.encode((3, 0, 3)) == 3 * 16 + 3
        assert space.decode(63) == (3, 3, 3)

    def test_component_arrays(self):
        space = self.space_cls((2, 3))
        comps = space.component_arrays()
        for j in range(space.total):
            assert tuple(int(c[j]) for c in comps) == space.decode(j)

    def test_range_errors(self):
        space = self.space_cls((2, 2))
        with pytest.raises(DomainError, match=f"^{self.kind} id 4 out of range"):
            space.decode(4)
        with pytest.raises(DomainError, match=f"^{self.kind}"):
            space.encode((2, 0))


class TestActionModelCodec(TestProductStateSpace):
    """The same cases on the joint action space, which shares the codec."""

    space_cls, kind = ActionModel, "action"


def make_covering(*members, delta=0.5):
    mats = [m.probs for m in members]
    nz = np.concatenate([p[p > 0] for p in mats])
    return CoveringSet(
        members=tuple(members),
        delta=delta,
        alpha_delta=min(1.0, nz.max() * 1.01 + 1e-9),
        beta_delta=nz.min() * 0.99,
    )


class TestCoveringSet:
    def test_metric_entropy(self):
        one = make_covering(dist(0.4, 0.6))
        assert metric_entropy(one) == 0.0
        eight = make_covering(*[dist(0.4 + i * 0.01, 0.6 - i * 0.01) for i in range(8)])
        assert metric_entropy(eight) == pytest.approx(math.log(8))
        three = make_covering(*[dist(0.4 + i * 0.01, 0.6 - i * 0.01) for i in range(3)])
        assert metric_entropy(three) == pytest.approx(math.log(3))

    def test_support_band_enforced(self):
        with pytest.raises(ConfigurationError):
            CoveringSet(
                members=(dist(0.5, 0.5),),
                delta=0.1,
                alpha_delta=0.4,  # violated by 0.5 entries
                beta_delta=0.1,
            )
        with pytest.raises(ConfigurationError):
            CoveringSet(
                members=(dist(0.5, 0.5),),
                delta=0.1,
                alpha_delta=0.1,
                beta_delta=0.6,
            )

    def test_zero_mass_allowed_outside_band(self):
        c = CoveringSet(
            members=(dist(0.0, 0.5, 0.5),),
            delta=0.1,
            alpha_delta=0.6,
            beta_delta=0.4,
        )
        assert c.log_matrix[0, 0] == -np.inf


class TestNearestMember:
    def test_member_itself(self):
        members = [dist(0.2 + 0.05 * i, 0.8 - 0.05 * i) for i in range(5)]
        c = make_covering(*members)
        for i, m in enumerate(members):
            assert nearest_member(c, m) == (i, 0.0)

    def test_tie_breaks_low(self):
        m = dist(0.5, 0.5)
        c = make_covering(dist(0.4, 0.6), m, dist(0.7, 0.3), dist(0.6, 0.4), m)
        idx, d = nearest_member(c, dist(0.5, 0.5))
        assert (idx, d) == (1, 0.0)

    def test_hand_value(self):
        c = CoveringSet(
            members=(point_mass(2, 0), uniform(2)),
            delta=0.5,
            alpha_delta=1.01,
            beta_delta=0.4,
        )
        with pytest.warns(UserWarning):
            # 0.2 < delta fails only when delta small; here just exercise both
            nearest_member(
                CoveringSet(
                    members=(point_mass(2, 0), uniform(2)),
                    delta=0.1,
                    alpha_delta=1.01,
                    beta_delta=0.4,
                ),
                dist(0.9, 0.1),
            )
        idx, d = nearest_member(c, dist(0.9, 0.1))
        assert idx == 0
        assert d == pytest.approx(0.2, abs=1e-15)


class StubRng:
    """Returns the same uniform draw every time."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


class TestSample:
    def test_point_mass(self):
        d = point_mass(5, 2)
        rng = np.random.default_rng(0)
        assert all(sample(d, rng) == 2 for _ in range(50))

    def test_uniform_frequencies(self):
        d = uniform(4)
        rng = np.random.default_rng(123)
        n = 10**6
        u = rng.random(n)
        draws = np.minimum(np.searchsorted(cdf(d), u, side="right"), 3)
        freqs = np.bincount(draws, minlength=4) / n
        assert np.all(np.abs(freqs - 0.25) < 0.005)
        # the vectorized reference above must match the scalar op
        rng2 = np.random.default_rng(123)
        head = [sample(d, rng2) for _ in range(100)]
        assert head == list(draws[:100])

    def test_seed_determinism(self):
        d = dist(0.1, 0.7, 0.1, 0.1)
        assert sample(d, np.random.default_rng(42)) == 1  # frozen first draw
        a = [sample(d, np.random.default_rng((7, i))) for i in range(20)]
        b = [sample(d, np.random.default_rng((7, i))) for i in range(20)]
        assert a == b

    def test_never_draws_a_zero_mass_outcome(self):
        # ten masses of 0.1 sum to the largest double below 1, which a uniform
        # draw can return; such a draw goes to outcome 9, not to outcome 10
        d = F(np.array([0.1] * 10 + [0.0]))
        top = np.nextafter(1.0, 0.0)
        assert cdf(d)[-1] == top
        # a second row whose last outcome has mass keeps drawing it
        cdfs = np.vstack([cdf(d), cdf(uniform(11))])
        for u, want in ((0.0, 0), (0.05, 0), (0.95, 9), (top, 9)):
            assert sample(d, StubRng(u)) == want
            drawn = _draw_states(cdfs, StubRng(u))
            assert drawn.tolist() == [want, 10 if u >= 0.95 else 0]


class TestWindowLoglik:
    def test_constant_window(self):
        m = dist(0.5, 0.5)
        assert window_loglik(m, [0, 0, 0, 0]) == pytest.approx(math.log(0.5))

    def test_uniform_member(self):
        for n in (2, 5, 9):
            m = uniform(n)
            assert window_loglik(m, [0, n - 1, 1]) == pytest.approx(-math.log(n))

    def test_hand_value(self):
        m = dist(0.1, 0.7, 0.1, 0.1)
        expect = (2 * math.log(0.7) + math.log(0.1)) / 3
        assert window_loglik(m, (1, 1, 0)) == pytest.approx(expect, abs=1e-15)

    def test_zero_mass_sentinel(self):
        m = dist(0.0, 1.0)
        assert window_loglik(m, [1, 0]) == -np.inf

    def test_empty_window(self):
        with pytest.raises(DomainError):
            window_loglik(dist(1.0), [])


class TestDivergence:
    def test_equal_members(self):
        pi = dist(0.3, 0.7)
        m = dist(0.5, 0.5)
        assert divergence(pi, m, m) == 0.0

    def test_hand_value_equals_minus_kl(self):
        pistar = dist(0.5, 0.5)
        pj = dist(0.25, 0.75)
        got = divergence(pistar, pj, pistar)
        expect = 0.5 * math.log(0.5) + 0.5 * math.log(1.5)
        assert got == pytest.approx(expect, abs=1e-15)
        assert got == pytest.approx(-0.14384103622589045)
        kl = sum(
            p * math.log(p / q) for p, q in zip(pistar.probs, pj.probs)
        )
        assert got == pytest.approx(-kl, abs=1e-15)

    def test_swap_flips_to_brute_force(self):
        pistar = dist(0.5, 0.5)
        pj = dist(0.25, 0.75)
        got = divergence(pistar, pistar, pj)
        brute = sum(
            pi * math.log(a / b)
            for pi, a, b in zip(pistar.probs, pistar.probs, pj.probs)
        )
        assert got == pytest.approx(brute, abs=1e-15)
        assert got > 0

    def test_zero_mass_error(self):
        with pytest.raises(DomainError):
            divergence(dist(0.5, 0.5), dist(0.0, 1.0), dist(0.5, 0.5))


class TestSchedules:
    def test_geometric_settles(self):
        limit = dist(0.1, 0.7, 0.1, 0.1)
        start = dist(0.4, 0.2, 0.2, 0.2)
        sch = GeometricSchedule(limit=limit, start=start, rho=0.99)
        vals = [l1_distance(schedule_at(sch, t), limit) for t in (10, 100, 1000, 10000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_geometric_matrix_matches_pointwise(self):
        sch = GeometricSchedule(
            limit=dist(0.2, 0.8), start=dist(0.9, 0.1), rho=0.9
        )
        mat = sch.weights_matrix(25)
        for t in range(25):
            closed = (1 - 0.9**t) * np.array([0.2, 0.8]) + 0.9**t * np.array([0.9, 0.1])
            assert np.allclose(mat[t], closed, atol=1e-15)

    def test_piecewise(self):
        a, b = dist(0.9, 0.1), dist(0.2, 0.8)
        sch = PiecewiseSchedule(limit=b, segments=((0, a), (5, b)))
        assert l1_distance(schedule_at(sch, 4), a) == 0.0
        assert l1_distance(schedule_at(sch, 5), b) == 0.0
        assert l1_distance(schedule_at(sch, 100), b) == 0.0

    def test_piecewise_matrix_rows_follow_segments(self):
        a, b, c = dist(0.9, 0.1), dist(0.2, 0.8), dist(0.5, 0.5)
        sch = PiecewiseSchedule(limit=c, segments=((0, a), (3, b), (7, c)))
        want = [a if t < 3 else b if t < 7 else c for t in range(12)]
        assert np.array_equal(sch.weights_matrix(12), np.vstack([d.probs for d in want]))

    def test_piecewise_must_settle_on_limit(self):
        a, b = dist(0.9, 0.1), dist(0.2, 0.8)
        with pytest.raises(ConfigurationError):
            PiecewiseSchedule(limit=b, segments=((0, b), (5, a)))

    def test_stationary(self):
        d = dist(0.25, 0.75)
        sch = stationary(d)
        assert l1_distance(schedule_at(sch, 0), d) == 0.0
        assert l1_distance(schedule_at(sch, 999), d) == 0.0

    def test_rho_validated(self):
        with pytest.raises(ConfigurationError):
            GeometricSchedule(limit=dist(1.0), start=dist(1.0), rho=1.0)
