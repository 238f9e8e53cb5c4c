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
    bidiagonal_block,
    delta_k,
    dk_fd,
    dk_multilinear,
    from_poly,
    from_series,
    operator_norm,
    variables,
)
from ncfuncalc.ncderiv import jet_epsilon

from _helpers import counting_handle, random_matrix, random_poly, random_tuple, relerr, rng_for


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
        # 0.95 is inside polydisk(1), so its jet is scaled to 0.45 of the
        # remaining gauge; within 1e-7 of the boundary that scale would fall
        # below MIN_EPSILON.
        F = from_poly(FreePoly.letter(1, 0), DomainDescriptor.polydisk(1.0))
        res = jet(F, scalar(0.95), scalar(1.0))
        np.testing.assert_allclose(res.delta, [[1.0]], atol=1e-12)
        assert res.epsilon == pytest.approx(0.45 * 0.05)
        with pytest.raises(DomainViolationError, match="jet scale"):
            jet(F, scalar(1.0 - 5e-8), scalar(1.0))

    def test_residual_reports_broken_triangularity(self):
        # The transpose evaluator flips the jet, leaving mass below the
        # diagonal; the structure check rejects it.
        flipped = NCFunctionHandle(
            1, DomainDescriptor.polydisk(math.inf), lambda x: x[0].T
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
        assert F.domain.gauge(x) > 0.95
        h = random_tuple(rng, 2, 2)
        res = jet(F, x, h)
        assert res.epsilon < 0.1
        np.testing.assert_allclose(res.delta, x[0] @ h[1] + h[0] @ x[1], atol=1e-12)

    def test_unbounded_domain_keeps_unit_scale(self, square):
        assert jet(square, scalar(50.0), scalar(3.0)).epsilon == 1.0

    def test_row_ball_jet_stays_inside(self):
        # Every component of h is E11: each has norm 1, but the row norm of
        # h is sqrt(5), so a scale read from component norms leaves the ball.
        domain = DomainDescriptor.rowball(1.0)
        x = MatrixTuple.zeros(5, 2)
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        h = MatrixTuple([e11] * 5)
        eps = jet_epsilon(domain, [x, x], [h])
        assert eps == pytest.approx(0.45 / math.sqrt(5.0))
        assert domain.contains(bidiagonal_block([x, x], [eps * h]))

    def test_affine_delta_ball_jet_stays_inside(self):
        # delta = x0 + 0.5: the direction -0.5 has ||delta(h)|| = 0, but a
        # step of that size moves delta by 0.5, so it is sized without the
        # constant term.
        domain = DomainDescriptor.deltaball(PolyMatrix([[FreePoly(1, {(0,): 1.0, (): 0.5})]]))
        x, h = scalar(0.45), scalar(-0.5)
        assert domain.gauge(x) == pytest.approx(0.95)
        assert domain.step_norm(h) == 0.5
        eps = jet_epsilon(domain, [x, x], [h])
        assert eps == pytest.approx(0.045)
        assert domain.contains(bidiagonal_block([x, x], [eps * h]))

    def test_letter_linear_step_norm_is_the_norm(self):
        rng = rng_for(62)
        domain = DomainDescriptor.deltaball(PolyMatrix([[variables(2)[0], variables(2)[1]]]))
        h = random_tuple(rng, 2, 3)
        assert domain.step_norm(h) == domain.norm(h)

    def test_each_distinct_direction_sized_once(self, monkeypatch):
        # dk_multilinear hands each subset sum k times to one jet.
        sized = []
        step_norm = DomainDescriptor.step_norm

        def counting(self, h):
            sized.append(h)
            return step_norm(self, h)

        monkeypatch.setattr(DomainDescriptor, "step_norm", counting)
        rng = rng_for(63)
        F = from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0))
        hs = [random_tuple(rng, 2, 2) for _ in range(3)]
        dk_multilinear(F, random_tuple(rng, 2, 2), hs)
        assert len(sized) == 7


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
        from ncfuncalc import bidiagonal_block

        rng = rng_for(48)
        F = from_poly(FreePoly.letter(1, 0))
        x, h = random_tuple(rng, 1, 3), random_tuple(rng, 1, 3)
        img = F.eval(bidiagonal_block([x, x], [h]), unchecked=True)
        np.testing.assert_allclose(img[:3, 3:], h[0], atol=1e-14)

    def test_epsilon_rescale_is_exact(self, square):
        rng = rng_for(35)
        xs = [random_tuple(rng, 1, 2, scale=0.3) for _ in range(3)]
        hs = [random_tuple(rng, 1, 2) for _ in range(2)]
        base = delta_k(square, xs, hs, epsilon=1.0).delta
        scaled = delta_k(square, xs, hs, epsilon=0.25).delta
        assert relerr(scaled, base) <= 1e-12

    def test_structure_violation_detected(self):
        # An evaluator that scrambles the jet cannot be intertwining preserving.
        broken = NCFunctionHandle(
            1,
            DomainDescriptor.polydisk(math.inf),
            lambda x: x[0] @ x[0].T.conj(),
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
                    xs = [x + (j * lam) * h for j in range(k + 1)]
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
            bumped[slot] = hs[slot] + extra
            split = list(hs)
            split[slot] = extra
            lhs = dk_multilinear(F, x, bumped)
            rhs = dk_multilinear(F, x, hs) + dk_multilinear(F, x, split)
            assert relerr(lhs, rhs) <= 1e-8
            scaled = list(hs)
            scaled[slot] = c * hs[slot]
            assert relerr(dk_multilinear(F, x, scaled), c * dk_multilinear(F, x, hs)) <= 1e-8

    def test_one_base_evaluation_for_all_jets(self):
        # F(x) once, then one jet per nonempty subset of the directions.
        rng = rng_for(50)
        p = random_poly(rng, 2, 3)
        F, calls = counting_handle(p)
        x = random_tuple(rng, 2, 2)
        for k in (1, 2, 3):
            hs = [random_tuple(rng, 2, 2) for _ in range(k)]
            calls.clear()
            out = dk_multilinear(F, x, hs)
            assert calls == [2] + [2 * (k + 1)] * (2**k - 1)
            # Same arithmetic as summing the diagonal derivatives, each jet
            # evaluating F(x) itself.
            total = np.zeros((2, 2), dtype=np.complex128)
            for mask in range(1, 2**k):
                members = [i for i in range(k) if mask >> i & 1]
                hsum = hs[members[0]]
                for i in members[1:]:
                    hsum = hsum + hs[i]
                diag = math.factorial(k) * delta_k(F, [x] * (k + 1), [hsum] * k).delta
                total = total + (-1) ** (k - len(members)) * diag
            np.testing.assert_array_equal(out, total / math.factorial(k))

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
