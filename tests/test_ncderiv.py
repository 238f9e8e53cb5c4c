"""Jets, difference-differentials, finite differences, and polarization."""

import math

import numpy as np
import pytest

from ncfuncalc import (
    DomainDescriptor,
    DomainViolationError,
    FreePoly,
    MatrixTuple,
    NCFunctionHandle,
    PolyMatrix,
    SeriesFunction,
    StructureViolationError,
    delta_k,
    dk_fd,
    dk_multilinear,
    eval_delta,
    from_poly,
    from_realization,
    from_series,
    mobius_realization,
    operator_norm,
)
from ncfuncalc.ncderiv import polarization
from ncfuncalc.realization import RESCALE_HALVINGS

from _helpers import (
    bidiagonal_block,
    components,
    counting_handle,
    homogeneous_component,
    random_isometric_realization,
    random_matrix,
    random_poly,
    random_rowball_realization,
    random_tuple,
    relerr,
    rng_for,
)


def scalar(v: float) -> MatrixTuple:
    return MatrixTuple.from_scalars([v], 1)


@pytest.fixture
def square():
    """F(x) = x0^2 in one variable."""
    return from_poly(FreePoly(1, {(0, 0): 1.0}))


def jet(F, x, h):
    """First-order jet: delta_k at k = 1 with the base point doubled."""
    return delta_k(F, [x, x], [h])


class TestJet1:
    def test_square_at_scalars(self, square):
        res = jet(square, scalar(1.0), scalar(1.0))
        np.testing.assert_allclose(res.delta, [[2.0]], atol=1e-12)
        np.testing.assert_allclose(res.full_upper[:1, :1], [[1.0]], atol=1e-12)
        assert res.structure_residual <= 1e-12

    def test_square_matrix_directions(self, square):
        rng = rng_for(30)
        x = random_tuple(rng, 1, 3)
        h = random_tuple(rng, 1, 3)
        res = jet(square, x, h)
        np.testing.assert_allclose(res.delta, x[0] @ h[0] + h[0] @ x[0], atol=1e-10)

    def test_constant_has_zero_derivative(self):
        F = from_poly(FreePoly.constant(2, 3.0))
        rng = rng_for(31)
        res = jet(F, random_tuple(rng, 2, 2), random_tuple(rng, 2, 2))
        np.testing.assert_allclose(res.delta, np.zeros((2, 2)), atol=1e-14)

    def test_linear_returns_direction(self):
        F = from_poly(FreePoly.letter(2, 0))
        rng = rng_for(32)
        h = random_tuple(rng, 2, 2)
        res = jet(F, random_tuple(rng, 2, 2), h)
        np.testing.assert_allclose(res.delta, h[0], atol=1e-12)

    def test_scaling_policy_rejects_boundary_points(self):
        # 0.95 is inside polydisk(1), so the direction is halved until the
        # jet [[0.95, eps], [0, 0.95]] is inside too; within 1e-7 of the
        # boundary the same halving goes on, and only a point outside the
        # domain, whose jet no halving brings in, is refused.
        F = from_poly(FreePoly.letter(1, 0), DomainDescriptor.polydisk(1.0))
        res = jet(F, scalar(0.95), scalar(1.0))
        np.testing.assert_allclose(res.delta, [[1.0]], atol=1e-12)
        assert res.epsilon == 0.0625
        res = jet(F, scalar(1.0 - 5e-8), scalar(1.0))
        np.testing.assert_allclose(res.delta, [[1.0]], atol=1e-12)
        assert res.epsilon == 2.0**-24
        with pytest.raises(DomainViolationError, match="jet scale"):
            jet(F, scalar(1.0), scalar(1.0))

    def test_residual_reports_broken_triangularity(self):
        # The transpose evaluator flips the jet, leaving mass below the
        # diagonal; the structure check rejects it.
        flipped = NCFunctionHandle(
            1, DomainDescriptor.polydisk(math.inf), lambda x: np.swapaxes(x[0], -1, -2)
        )
        rng = rng_for(49)
        with pytest.raises(StructureViolationError):
            jet(flipped, random_tuple(rng, 1, 2), random_tuple(rng, 1, 2))


class TestGaugeScale:
    """In-domain base points near the boundary get a smaller jet, not a refusal."""

    def test_polarized_near_polydisk_boundary_matches_fd(self):
        rng = rng_for(60)
        series = SeriesFunction([FreePoly(1, {(0,) * k: 1.0}) for k in range(11)], 2.0)
        F = from_series(series, truncation=10, domain=DomainDescriptor.polydisk(1.0))
        x = MatrixTuple([random_matrix(rng, 2, 0.95)])
        h = random_tuple(rng, 1, 2)
        polarized = dk_multilinear(F, x, [h, h])
        # The average of the forward differences at +-lam is second order.
        central = 0.5 * (dk_fd(F, x, h, 2, 1e-4) + dk_fd(F, x, h, 2, -1e-4))
        assert relerr(polarized, central) <= 1e-6

    def test_derivative_near_row_ball_boundary(self):
        # Row norm about 0.97 with one component of norm 0.95.
        rng = rng_for(61)
        F = from_poly(FreePoly(2, {(0, 1): 1.0}), DomainDescriptor.rowball(1.0))
        x = MatrixTuple([random_matrix(rng, 2, 0.95), random_matrix(rng, 2, 0.2)])
        assert operator_norm(np.hstack(x.components)) > 0.95
        h = random_tuple(rng, 2, 2)
        res = jet(F, x, h)
        assert F.domain.contains(bidiagonal_block([x, x], [res.epsilon * components(h)]))
        np.testing.assert_allclose(res.delta, x[0] @ h[1] + h[0] @ x[1], atol=1e-12)

    def test_unbounded_domain_keeps_unit_scale(self, square):
        assert jet(square, scalar(50.0), scalar(3.0)).epsilon == 1.0

    def test_row_ball_jet_stays_inside(self):
        # Every component of h is E11: each has norm 1, but the row norm of
        # h is sqrt(5), so a scale read from component norms leaves the ball.
        domain = DomainDescriptor.rowball(1.0)
        F = from_poly(FreePoly.letter(5, 0), domain)
        x = MatrixTuple.zeros(5, 2)
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        h = np.array([e11] * 5)
        eps = jet(F, x, h).epsilon
        assert eps == 0.25
        assert domain.contains(bidiagonal_block([x, x], [eps * h]))

    def test_affine_delta_ball_jet_stays_inside(self):
        # delta = x0 + 0.5: the direction -0.5 has ||delta(h)|| = 0, but a
        # step of that size moves delta by 0.5, so it is sized without the
        # constant term.
        domain = DomainDescriptor.deltaball(PolyMatrix([[FreePoly(1, {(0,): 1.0, (): 0.5})]]))
        F = from_poly(FreePoly.letter(1, 0), domain)
        x, h = scalar(0.45), scalar(-0.5)
        assert operator_norm(eval_delta(domain.delta, x)) == pytest.approx(0.95)
        eps = jet(F, x, h).epsilon
        assert eps == 0.125
        assert domain.contains(bidiagonal_block([x, x], [eps * components(h)]))

    def test_quadratic_delta_ball_jet_stays_inside(self):
        # delta = x0^2 at x = 0.9 (gauge 0.81): a scale read from
        # ||delta(h)|| = 0.09 lets ||delta(jet)|| reach 1.106; the jet that
        # is tested itself stays inside.
        domain = DomainDescriptor.deltaball(PolyMatrix([[FreePoly(1, {(0, 0): 1.0})]]))
        F = from_poly(FreePoly(1, {(0, 0, 0): 1.0}), domain)
        x, h = scalar(0.9), scalar(0.3)
        res = jet(F, x, h)
        assert domain.contains(bidiagonal_block([x, x], [res.epsilon * components(h)]))
        np.testing.assert_allclose(res.delta, [[3 * 0.81 * 0.3]], rtol=1e-14)

    def test_norm_capped_jet_stays_inside(self):
        # An unbounded polydisk with a norm cap: the jet at 0.9 along 1 has
        # component norm 1.53 at scale 1, past the cap.
        F = from_poly(FreePoly.letter(1, 0), DomainDescriptor.polydisk(math.inf, norm_cap=1.0))
        x, h = scalar(0.9), scalar(1.0)
        res = jet(F, x, h)
        assert F.domain.contains(bidiagonal_block([x, x], [res.epsilon * components(h)]))
        np.testing.assert_allclose(res.delta, [[1.0]], atol=1e-12)

    @pytest.mark.parametrize("gap", [1e-6, 1e-8])
    def test_mobius_derivatives_near_the_boundary(self, gap):
        # phi(z) = (z - a) / (1 - a z) has phi' = (1 - a^2) / (1 - a z)^2 and
        # phi'' = 2 a (1 - a^2) / (1 - a z)^3; within 1e-8 of the boundary the
        # jet is halved until it fits and stays accurate.
        a, z = 0.999, 1.0 - gap
        F = from_realization(mobius_realization(a))
        x, h = scalar(z), scalar(1.0)
        first = delta_k(F, [x] * 2, [h]).delta
        second = 2 * delta_k(F, [x] * 3, [h] * 2).delta
        assert relerr(first, [[(1 - a**2) / (1 - a * z) ** 2]]) <= 1e-12
        assert relerr(second, [[2 * a * (1 - a**2) / (1 - a * z) ** 3]]) <= 1e-12

    def test_mobius_point_outside_is_refused(self):
        # 1 - 1e-10 lies within the membership margin of the boundary.
        F = from_realization(mobius_realization(0.999))
        with pytest.raises(DomainViolationError, match="jet scale"):
            jet(F, scalar(1.0 - 1e-10), scalar(1.0))

    def test_checked_base_points_are_not_tested_again(self, monkeypatch):
        # With base values given, the only membership test is the jet's.
        dims = []
        contains = DomainDescriptor.contains

        def counting(self, x):
            dims.append(np.shape(x[0])[-1])
            return contains(self, x)

        monkeypatch.setattr(DomainDescriptor, "contains", counting)
        rng = rng_for(63)
        F = from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0))
        xs = [MatrixTuple([random_matrix(rng, 2, 0.5) for _ in range(2)]) for _ in range(3)]
        hs = [random_tuple(rng, 2, 2) for _ in range(2)]
        values = [F.eval(x) for x in xs]
        dims.clear()
        delta_k(F, xs, hs, base_values=values)
        assert dims and set(dims) == {6}


class TestDeltaK:
    def test_two_point_square_oracle(self, square):
        res = delta_k(square, [scalar(1.0), scalar(2.0)], [scalar(1.0)])
        np.testing.assert_allclose(res.delta, [[3.0]], atol=1e-12)

    def test_second_order_square(self, square):
        xs = [scalar(0.0)] * 3
        res = delta_k(square, xs, [scalar(1.0)] * 2)
        np.testing.assert_allclose(res.delta, [[1.0]], atol=1e-12)

    def test_zero_directions(self, square):
        rng = rng_for(33)
        xs = [random_tuple(rng, 1, 2) for _ in range(3)]
        res = delta_k(square, xs, [MatrixTuple.zeros(1, 2)] * 2)
        np.testing.assert_allclose(res.delta, np.zeros((2, 2)), atol=1e-14)

    def test_full_upper_diagonal_blocks(self, square):
        rng = rng_for(34)
        xs = [random_tuple(rng, 1, 2) for _ in range(3)]
        hs = [random_tuple(rng, 1, 2) for _ in range(2)]
        res = delta_k(square, xs, hs)
        for i, x in enumerate(xs):
            block = res.full_upper[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
            np.testing.assert_allclose(block, square.eval(x), atol=1e-12)

    def test_base_values_stand_in_for_evaluation(self):
        rng = rng_for(37)
        F = from_poly(random_poly(rng, 2, 3))
        xs = [random_tuple(rng, 2, 2) for _ in range(3)]
        hs = [random_tuple(rng, 2, 2) for _ in range(2)]
        values = [F.eval(x) for x in xs]
        own = delta_k(F, xs, hs)
        given = delta_k(F, xs, hs, base_values=values)
        assert np.array_equal(given.full_upper, own.full_upper)
        assert given.structure_residual == own.structure_residual
        # The diagonal blocks are checked against the values given.
        with pytest.raises(StructureViolationError):
            delta_k(F, xs, hs, base_values=[values[0] + 1.0] + values[1:])
        with pytest.raises(ValueError):
            delta_k(F, xs, hs, base_values=values[:2])

    def test_superdiagonal_block_of_linear_image(self):
        # A degree-1 polynomial maps the jet to itself componentwise, so the
        # (0, 1) block of the image is the direction.
        rng = rng_for(48)
        F = from_poly(FreePoly.letter(1, 0))
        x, h = random_tuple(rng, 1, 3), random_tuple(rng, 1, 3)
        img = F.eval(bidiagonal_block([x, x], [h]), unchecked=True)
        np.testing.assert_allclose(img[:3, 3:], h[0], atol=1e-14)

    def test_epsilon_rescale_is_exact(self, square):
        # In polydisk(1) the jet's directions are halved; the rescaled blocks
        # match the unhalved jet of the same polynomial on an unbounded domain.
        rng = rng_for(35)
        xs = [random_tuple(rng, 1, 2, scale=0.3) for _ in range(3)]
        hs = [random_tuple(rng, 1, 2, scale=2.0) for _ in range(2)]
        bounded = from_poly(FreePoly(1, {(0, 0): 1.0}), DomainDescriptor.polydisk(1.0))
        base = delta_k(square, xs, hs)
        scaled = delta_k(bounded, xs, hs)
        assert base.epsilon == 1.0 and scaled.epsilon < 1.0
        assert relerr(scaled.delta, base.delta) <= 1e-12

    @pytest.mark.parametrize("point", [1.0, 1.0 + 1e-12, 1.5])
    def test_jet_outside_after_every_halving_is_rejected_before_evaluation(
        self, point, monkeypatch
    ):
        # A jet at a base point outside polydisk(1) is halved as often as the
        # domain's sampler halves a sample, RESCALE_HALVINGS times, then
        # refused without an evaluation.
        F, calls = counting_handle(FreePoly(1, {(0, 0): 1.0}), DomainDescriptor.polydisk(1.0))
        tests = []
        contains = DomainDescriptor.contains

        def counted(self, x):
            tests.append(x)
            return contains(self, x)

        monkeypatch.setattr(DomainDescriptor, "contains", counted)
        x, h = scalar(point), scalar(1.0)
        with pytest.raises(DomainViolationError, match="jet scale"):
            delta_k(F, [x] * 3, [h, h])
        assert calls == []
        assert len(tests) == 1 + RESCALE_HALVINGS

    def test_structure_violation_detected(self):
        # An evaluator that scrambles the jet cannot be intertwining preserving.
        broken = NCFunctionHandle(
            1,
            DomainDescriptor.polydisk(math.inf),
            lambda x: x[0] @ np.swapaxes(x[0], -1, -2).conj(),
        )
        rng = rng_for(36)
        xs = [random_tuple(rng, 1, 2) for _ in range(2)]
        with pytest.raises(StructureViolationError):
            delta_k(broken, xs, [random_tuple(rng, 1, 2)])

    def test_length_validation(self, square):
        with pytest.raises(ValueError):
            delta_k(square, [scalar(0.0)], [])
        with pytest.raises(ValueError):
            delta_k(square, [scalar(0.0)] * 2, [scalar(1.0)] * 2)


def diagonal_derivative(F, x, h, k):
    """k-th derivative along one direction: k! times the equal-point delta."""
    return math.factorial(k) * delta_k(F, [x] * (k + 1), [h] * k).delta


class TestStackedJets:
    """Directions stacked as (d, B, n, n): each sample gets its lone call's bits."""

    @staticmethod
    def stacked_and_lone(F, xs, hs_per_sample, **kw):
        # hs_per_sample[s][i] is direction i of sample s.
        dirs = [np.stack([np.array(h[i].components) for h in hs_per_sample], axis=1)
                for i in range(len(hs_per_sample[0]))]
        return delta_k(F, xs, dirs, **kw), [delta_k(F, xs, hs, **kw) for hs in hs_per_sample]

    @pytest.mark.parametrize(
        "F",
        [
            from_poly(random_poly(rng_for(70), 2, 4, nterms=16)),
            from_poly(random_poly(rng_for(71), 2, 4, nterms=16), DomainDescriptor.polydisk(1.0)),
            from_poly(random_poly(rng_for(72), 2, 4, nterms=16), DomainDescriptor.rowball(1.0)),
            from_realization(random_isometric_realization(rng_for(73), 2, 2)),
            from_realization(random_rowball_realization(rng_for(74), 2, 2)),
        ],
        ids=["unbounded", "polydisk", "rowball", "polydisk realization", "rowball realization"],
    )
    def test_each_sample_matches_its_lone_call(self, F):
        rng = rng_for(75)
        xs = [random_tuple(rng, 2, 2, scale=0.3) for _ in range(3)]
        # Direction sizes from small to large: on a bounded domain the large
        # ones are halved, and not all by the same count.
        hs_per_sample = [[random_tuple(rng, 2, 2, scale=s) for _ in range(2)]
                         for s in (0.05, 0.2, 0.6, 1.0, 2.0, 8.0)]
        values = [F.eval(x) for x in xs]
        for kw in ({}, {"base_values": values}):
            stacked, lone = self.stacked_and_lone(F, xs, hs_per_sample, **kw)
            assert stacked.delta.shape == (6, 2, 2) and stacked.full_upper.shape == (6, 6, 6)
            for s, res in enumerate(lone):
                np.testing.assert_array_equal(stacked.delta[s], res.delta)
                np.testing.assert_array_equal(stacked.full_upper[s], res.full_upper)
                assert stacked.structure_residual[s] == res.structure_residual
                assert stacked.epsilon[s] == res.epsilon
        if math.isfinite(F.domain.bound):
            assert len(set(stacked.epsilon.tolist())) > 1

    @pytest.mark.parametrize(
        "F",
        [
            from_poly(random_poly(rng_for(77), 2, 4, nterms=16), DomainDescriptor.polydisk(1.0)),
            from_realization(random_isometric_realization(rng_for(78), 2, 2)),
        ],
        ids=["polydisk", "polydisk realization"],
    )
    def test_one_base_point_per_jet_matches_its_lone_call(self, F):
        # Base points stacked (d, B, n, n) put jet s at sample s of each; the
        # base values come per jet too, or from one evaluation of the points.
        rng = rng_for(79)
        xs_per_sample = [[random_tuple(rng, 2, 2, scale=0.3) for _ in range(3)] for _ in range(4)]
        hs_per_sample = [[random_tuple(rng, 2, 2, scale=s) for _ in range(2)] for s in (0.1, 0.6, 2.0, 8.0)]
        xs = [np.stack([x[i].components for x in xs_per_sample], axis=1) for i in range(3)]
        hs = [np.stack([h[i].components for h in hs_per_sample], axis=1) for i in range(2)]
        for kw in ({}, {"base_values": [F.eval(x) for x in xs]}):
            stacked = delta_k(F, xs, hs, **kw)
            for s, (x, h) in enumerate(zip(xs_per_sample, hs_per_sample)):
                lone = delta_k(F, x, h)
                np.testing.assert_array_equal(stacked.delta[s], lone.delta)
                np.testing.assert_array_equal(stacked.full_upper[s], lone.full_upper)
                assert stacked.structure_residual[s] == lone.structure_residual
                assert stacked.epsilon[s] == lone.epsilon
        assert len(set(stacked.epsilon.tolist())) > 1

    def test_structure_violation_names_first_bad_sample(self):
        # (x0 x1)^T is zero on jets whose directions have no x1 component.
        F = NCFunctionHandle(
            2, DomainDescriptor.polydisk(math.inf), lambda x: np.swapaxes(x[0] @ x[1], -1, -2)
        )
        rng = rng_for(76)
        xs = [MatrixTuple.zeros(2, 2)] * 3
        only_x0 = MatrixTuple([random_matrix(rng, 2), np.zeros((2, 2))])
        hs_per_sample = [[only_x0] * 2, [only_x0] * 2] + [
            [random_tuple(rng, 2, 2) for _ in range(2)] for _ in range(2)
        ]
        with pytest.raises(StructureViolationError) as err:
            self.stacked_and_lone(F, xs, hs_per_sample)
        assert err.value.sample == 2

    def test_one_membership_test_per_halving(self, monkeypatch):
        calls = []
        contains = DomainDescriptor.contains

        def counting(self, x):
            calls.append(np.shape(x[0])[:-2])
            return contains(self, x)

        monkeypatch.setattr(DomainDescriptor, "contains", counting)
        F = from_poly(FreePoly.letter(1, 0), DomainDescriptor.polydisk(1.0))
        x = MatrixTuple.zeros(1, 1)
        dirs = np.array([0.5, 1.5, 3.0]).reshape(1, 3, 1, 1)  # settle at 1, 1/2, 1/4
        res = delta_k(F, [x, x], [dirs])
        np.testing.assert_array_equal(res.epsilon, [1.0, 0.5, 0.25])
        np.testing.assert_array_equal(res.delta[:, 0, 0], [0.5, 1.5, 3.0])
        assert calls == [(3,), (2,), (1,)]


def _series_handle():
    rng = rng_for(82)
    parts = [homogeneous_component(random_poly(rng, 2, 3, nterms=14), k) for k in range(4)]
    return from_series(SeriesFunction(parts, 2.0), truncation=3, domain=DomainDescriptor.polydisk(1.0))


class TestSharedObjects:
    """One object passed for several levels is placed and compared once; its
    results are those of k + 1 distinct copies, bit for bit."""

    HANDLES = pytest.mark.parametrize(
        "F",
        [
            from_poly(random_poly(rng_for(80), 2, 4, nterms=16), DomainDescriptor.polydisk(1.0)),
            _series_handle(),
            from_realization(random_isometric_realization(rng_for(81), 2, 2)),
            from_realization(random_rowball_realization(rng_for(83), 2, 2)),
        ],
        ids=["polynomial", "series", "polydisk realization", "rowball realization"],
    )

    @staticmethod
    def point_and_directions(k, samples):
        """A point and k directions at n = 2: lone, or stacks of ``samples``."""
        rng = rng_for(84 + k)
        if samples is None:
            return random_tuple(rng, 2, 2, scale=0.3), [random_tuple(rng, 2, 2, scale=0.4) for _ in range(k)]
        x, *hs = (
            np.stack([components(random_tuple(rng, 2, 2, scale=s)) for _ in range(samples)], axis=1)
            for s in [0.3] + [0.4] * k
        )
        return x, hs

    @HANDLES
    @pytest.mark.parametrize("samples", [None, 3], ids=["lone", "stack"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shared_point_and_value_give_the_bits_of_copies(self, F, samples, k):
        x, hs = self.point_and_directions(k, samples)
        v = F.eval(x)
        copy = (lambda a: MatrixTuple(a.components)) if samples is None else np.copy
        shared = delta_k(F, [x] * (k + 1), hs, base_values=[v] * (k + 1))
        copies = delta_k(
            F, [copy(x) for _ in range(k + 1)], hs, base_values=[np.copy(v) for _ in range(k + 1)]
        )
        for field in ("delta", "full_upper", "structure_residual", "epsilon"):
            np.testing.assert_array_equal(getattr(shared, field), getattr(copies, field))

    @HANDLES
    def test_wrong_shared_value_names_first_bad_sample(self, F):
        x, hs = self.point_and_directions(2, 3)
        wrong = F.eval(x)
        wrong[1:] += 0.5
        with pytest.raises(StructureViolationError) as err:
            delta_k(F, [x] * 3, hs, base_values=[wrong] * 3)
        assert err.value.sample == 1

    @HANDLES
    def test_shared_value_is_compared_at_every_level(self, F):
        # One value for all three levels, right only for the first two points.
        x, hs = self.point_and_directions(2, 3)
        y = np.copy(x)
        y[:, 2] *= 0.5
        with pytest.raises(StructureViolationError) as err:
            delta_k(F, [x, x, y], hs, base_values=[F.eval(x)] * 3)
        assert err.value.sample == 2

    @pytest.mark.parametrize("samples", [None, 3], ids=["lone", "stack"])
    def test_base_values_of_the_wrong_shape_or_count_are_rejected(self, samples):
        F = from_poly(random_poly(rng_for(85), 2, 3, nterms=10))
        x, hs = self.point_and_directions(2, samples)
        v = np.reshape(F.eval(x), (-1, 2, 2))
        for wrong in (
            [np.eye(3)] * 3,  # another dimension
            [np.concatenate([v] * 2)] * 3,  # another batch
            [np.stack([v] * 3)] * 3,  # every level's values in one
            [v] * 2,  # too few
            [v] * 4,  # too many
        ):
            with pytest.raises(ValueError):
                delta_k(F, [x] * 3, hs, base_values=wrong)


class TestDkDiag:
    def test_second_derivative_of_square(self, square):
        np.testing.assert_allclose(
            diagonal_derivative(square, scalar(0.0), scalar(1.0), 2), [[2.0]], atol=1e-12
        )
        rng = rng_for(38)
        h = random_tuple(rng, 1, 3)
        np.testing.assert_allclose(
            diagonal_derivative(square, MatrixTuple.zeros(1, 3), h, 2),
            2 * h[0] @ h[0],
            atol=1e-10,
        )

    def test_vanishes_past_the_degree(self):
        F = from_poly(FreePoly(2, {(0, 1): 1.0}))
        rng = rng_for(39)
        out = diagonal_derivative(F, random_tuple(rng, 2, 2), random_tuple(rng, 2, 2), 3)
        assert operator_norm(out) <= 1e-9


class TestDkFd:
    def test_hand_arithmetic(self, square):
        out = dk_fd(square, scalar(1.0), scalar(1.0), 1, 0.5)
        np.testing.assert_allclose(out, [[2.5]], atol=1e-12)

    def test_exact_for_affine(self):
        F = from_poly(FreePoly(1, {(): 1.0, (0,): 2.0}))
        rng = rng_for(40)
        x, h = random_tuple(rng, 1, 2), random_tuple(rng, 1, 2)
        for lam in (1.0, 0.3, 0.05):
            np.testing.assert_allclose(dk_fd(F, x, h, 1, lam), 2 * h[0], atol=1e-10)

    def test_toeplitz_identity_every_lambda(self):
        # Shifted-base-point delta equals the finite-difference sum per lambda,
        # not only in the limit.
        rng = rng_for(41)
        for _ in range(10):
            F = from_poly(random_poly(rng, 2, 4))
            n = int(rng.integers(1, 4))
            x = random_tuple(rng, 2, n)
            h = random_tuple(rng, 2, n)
            for k in (1, 2, 3):
                for lam in (1.0, 0.5, 0.1):
                    xs = [components(x) + (j * lam) * components(h) for j in range(k + 1)]
                    lhs = math.factorial(k) * delta_k(F, xs, [h] * k).delta
                    rhs = dk_fd(F, x, h, k, lam)
                    assert relerr(lhs, rhs) <= 1e-8

    def test_symmetric_average_is_second_order(self, square):
        # (fd(lam) + fd(-lam))/2 converges at O(lam^2) for the cubic.
        F = from_poly(FreePoly(1, {(0, 0, 0): 1.0}))
        x, h = scalar(0.7), scalar(1.0)
        exact = jet(F, x, h).delta
        errs = []
        for lam in (0.1, 0.05, 0.025):
            avg = 0.5 * (dk_fd(F, x, h, 1, lam) + dk_fd(F, x, h, 1, -lam))
            errs.append(operator_norm(avg - exact))
        assert errs[1] <= errs[0] / 3
        assert errs[2] <= errs[1] / 3

    def test_cancellation_warning(self, square):
        with pytest.warns(RuntimeWarning):
            dk_fd(square, scalar(0.0), scalar(1.0), 3, 1e-5)

    def test_zero_step_rejected(self, square):
        with pytest.raises(ValueError):
            dk_fd(square, scalar(0.0), scalar(1.0), 1, 0.0)

    def test_one_evaluator_call_matches_the_lone_sum(self):
        rng = rng_for(42)
        p = random_poly(rng, 2, 4)
        F, calls = counting_handle(p)
        x, h = random_tuple(rng, 2, 3), random_tuple(rng, 2, 3)
        out = dk_fd(F, x, h, 3, 0.25)
        assert calls == [3]
        acc = np.zeros((3, 3), dtype=np.complex128)
        for j in range(4):
            point = components(x) + complex(j * 0.25) * components(h)
            acc += ((-1) ** j * math.comb(3, j)) * p.evaluate(point)
        np.testing.assert_array_equal(out, -acc / 0.25**3)


class TestDkMultilinear:
    def test_order_one_matches_jet(self, square):
        rng = rng_for(42)
        x, h = random_tuple(rng, 1, 2), random_tuple(rng, 1, 2)
        assert relerr(dk_multilinear(square, x, [h]), jet(square, x, h).delta) <= 1e-10

    def test_mixed_product_oracle(self):
        F = from_poly(FreePoly(2, {(0, 1): 1.0}))
        h = MatrixTuple([[[1.0]], [[0.0]]])
        g = MatrixTuple([[[0.0]], [[1.0]]])
        out = dk_multilinear(F, MatrixTuple.zeros(2, 1), [h, g])
        np.testing.assert_allclose(out, [[1.0]], atol=1e-12)

    def test_full_mixed_formula(self):
        # D2 of x0 x1 at any base point: [h,g] -> h0 g1 + g0 h1.
        F = from_poly(FreePoly(2, {(0, 1): 1.0}))
        rng = rng_for(43)
        x = random_tuple(rng, 2, 2)
        h = random_tuple(rng, 2, 2)
        g = random_tuple(rng, 2, 2)
        expected = h[0] @ g[1] + g[0] @ h[1]
        assert relerr(dk_multilinear(F, x, [h, g]), expected) <= 1e-10

    def test_symmetry_under_swap(self):
        rng = rng_for(44)
        F = from_poly(random_poly(rng, 2, 3))
        x = random_tuple(rng, 2, 2)
        h, g = random_tuple(rng, 2, 2), random_tuple(rng, 2, 2)
        a = dk_multilinear(F, x, [h, g])
        b = dk_multilinear(F, x, [g, h])
        assert relerr(a, b) <= 1e-9

    def test_multilinearity_in_each_slot(self):
        rng = rng_for(45)
        F = from_poly(random_poly(rng, 2, 3))
        x = random_tuple(rng, 2, 2)
        hs = [random_tuple(rng, 2, 2) for _ in range(2)]
        extra = random_tuple(rng, 2, 2)
        c = 0.7 - 0.3j
        for slot in range(2):
            bumped = list(hs)
            bumped[slot] = components(hs[slot]) + components(extra)
            split = list(hs)
            split[slot] = extra
            lhs = dk_multilinear(F, x, bumped)
            rhs = dk_multilinear(F, x, hs) + dk_multilinear(F, x, split)
            assert relerr(lhs, rhs) <= 1e-8
            scaled = list(hs)
            scaled[slot] = c * components(hs[slot])
            assert relerr(dk_multilinear(F, x, scaled), c * dk_multilinear(F, x, hs)) <= 1e-8

    def test_one_base_evaluation_for_all_jets(self):
        # F(x) once, then one stacked call for the jets of the nonempty
        # subsets of the directions.
        rng = rng_for(50)
        p = random_poly(rng, 2, 3)
        F, calls = counting_handle(p)
        x = random_tuple(rng, 2, 2)
        for k in (1, 2, 3):
            hs = [random_tuple(rng, 2, 2) for _ in range(k)]
            calls.clear()
            out = dk_multilinear(F, x, hs)
            assert calls == [2, 2 * (k + 1)]
            # Same arithmetic as summing the diagonal derivatives, each jet
            # evaluating F(x) itself.
            total = np.zeros((2, 2), dtype=np.complex128)
            for mask in range(1, 2**k):
                members = [i for i in range(k) if mask >> i & 1]
                hsum = components(hs[members[0]])
                for i in members[1:]:
                    hsum = hsum + components(hs[i])
                diag = math.factorial(k) * delta_k(F, [x] * (k + 1), [hsum] * k).delta
                total = total + (-1) ** (k - len(members)) * diag
            np.testing.assert_array_equal(out, total / math.factorial(k))

    def test_stacked_directions_give_each_trial_its_value(self):
        # Direction stacks (d, T, n, n): F(x) once and one stacked call of
        # (2^k - 1) T jets, each trial's value bit for bit its lone value.
        rng = rng_for(51)
        F, calls = counting_handle(random_poly(rng, 2, 3))
        x = random_tuple(rng, 2, 2)
        for k in (1, 2, 3):
            trials = [[random_tuple(rng, 2, 2) for _ in range(k)] for _ in range(4)]
            stacks = [np.stack([hs[i].components for hs in trials], axis=1) for i in range(k)]
            calls.clear()
            values = dk_multilinear(F, x, stacks)
            assert calls == [2, 2 * (k + 1)]
            assert values.shape == (4, 2, 2)
            for hs, value in zip(trials, values):
                np.testing.assert_array_equal(value, dk_multilinear(F, x, hs))
        with pytest.raises(ValueError, match="share one shape"):
            dk_multilinear(F, x, [stacks[0], stacks[1][:, :2]])

    def test_outside_point_raises_before_any_evaluation(self):
        F, calls = counting_handle(FreePoly.letter(1, 0), DomainDescriptor.polydisk(1.0))
        with pytest.raises(DomainViolationError):
            dk_multilinear(F, scalar(2.0), [scalar(1.0)] * 2)
        assert calls == []

    def test_order_cap(self, square):
        rng = rng_for(46)
        hs = [random_tuple(rng, 1, 1) for _ in range(7)]
        with pytest.raises(ValueError):
            dk_multilinear(square, scalar(0.0), hs)


class TestScalarPointFactorization:
    def test_delta_factors_through_direction_magnitudes(self):
        # At scalar base points with h_i = H_i e_{j_i} the delta is a fixed
        # scalar times H_1 H_2, independent of the H_i.
        rng = rng_for(47)
        F = from_poly(random_poly(rng, 2, 3))
        n = 2
        a = [MatrixTuple.from_scalars([0.1, -0.05], n) for _ in range(3)]
        word = (0, 1)

        def delta_for(mats):
            hs = []
            for letter, m in zip(word, mats):
                comps = [np.zeros((n, n))] * 2
                comps[letter] = m
                hs.append(MatrixTuple(comps))
            return delta_k(F, a, hs).delta

        h1, h2 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        g1, g2 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        d_h = delta_for([h1, h2])
        d_g = delta_for([g1, g2])
        # Recover the scalar from each and compare.
        e_val = delta_for([np.eye(n), np.eye(n)])
        c = np.trace(e_val) / n
        assert relerr(d_h, c * h1 @ h2) <= 1e-8
        assert relerr(d_g, c * g1 @ g2) <= 1e-8


class TestEdgeCases:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda F, a, b: delta_k(F, [a, a], [b]),
             "all points and directions must share arity and dimension, "
             "and hold one sample or one per jet"),
            (lambda F, a, b: dk_fd(F, a, a, -1, 1e-3), "derivative order must be nonnegative"),
            (lambda F, a, b: dk_fd(F, a, b, 1, 1e-3),
             "x and h must be lone points of one arity and dimension"),
            (lambda F, a, b: polarization([a, b]),
             "direction stacks must share one shape (d, T, n, n)"),
            (lambda F, a, b: dk_multilinear(F, a, [b]),
             "direction stacks must share one shape (d, T, n, n) with the point"),
        ],
        ids=["delta_k shapes", "dk_fd order", "dk_fd shapes", "polarization", "dk_multilinear"],
    )
    def test_bad_input_is_rejected(self, call, message):
        square = from_poly(FreePoly(1, {(0, 0): 1.0}))
        with pytest.raises(ValueError) as info:
            call(square, MatrixTuple.zeros(1, 2), MatrixTuple.zeros(1, 3))
        assert str(info.value) == message

    def test_fd_of_order_zero_is_evaluation(self):
        square = from_poly(FreePoly(1, {(0, 0): 1.0}))
        x, h = MatrixTuple.from_scalars([0.5], 1), MatrixTuple.from_scalars([0.1], 1)
        np.testing.assert_array_equal(dk_fd(square, x, h, 0, 1e-3), [[0.25]])
