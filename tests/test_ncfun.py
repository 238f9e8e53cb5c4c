"""Handle construction, domains, and the structural evaluation properties."""

import math

import numpy as np
import pytest

from ncfuncalc import (
    DomainDescriptor,
    DomainViolationError,
    FreePoly,
    MatrixTuple,
    SeriesFunction,
    direct_sum,
    from_poly,
    from_realization,
    from_series,
    inverse,
    mobius_realization,
    operator_norm,
)

from _helpers import (
    ones_orthogonal_matrix,
    random_matrix,
    random_poly,
    random_tuple,
    rng_for,
)


def geometric_series(maxdeg: int) -> SeriesFunction:
    return SeriesFunction([FreePoly(1, {(0,) * k: 1.0}) for k in range(maxdeg + 1)], 1.0)


class TestDomainDescriptor:
    def test_polydisk_membership(self):
        dom = DomainDescriptor.polydisk(1.0)
        assert dom.contains(MatrixTuple.from_scalars([0.5, 0.2], 2))
        assert not dom.contains(MatrixTuple.from_scalars([1.1, 0.0], 2))

    def test_polydisk_rejects_point_orthogonal_to_ones(self):
        # Norm 1.5, with the top singular vector orthogonal to the all-ones vector.
        x = MatrixTuple([0.5 * ones_orthogonal_matrix()])
        assert not DomainDescriptor.polydisk(1.0).contains(x)

    def test_rowball_membership(self):
        dom = DomainDescriptor.rowball(1.0)
        # Two components of norm 0.6: row norm sqrt(0.72) < 1 but polydisk-style
        # max norm would also pass; push to 0.8 where only the row test fails.
        x = MatrixTuple.from_scalars([0.8, 0.8], 2)
        assert not dom.contains(x)
        assert DomainDescriptor.polydisk(1.0).contains(x)

    def test_norm_cap(self):
        dom = DomainDescriptor.polydisk(math.inf, norm_cap=1.0)
        assert dom.contains(MatrixTuple.from_scalars([0.5], 2))
        assert not dom.contains(MatrixTuple.from_scalars([2.0], 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainDescriptor.polydisk(-1.0)
        with pytest.raises(ValueError):
            DomainDescriptor(kind="deltaball")
        with pytest.raises(ValueError):
            DomainDescriptor(kind="wedge")


class TestFromPoly:
    def test_constant_is_identity_times_value(self):
        F = from_poly(FreePoly.one(2))
        np.testing.assert_allclose(F.eval(MatrixTuple.zeros(2, 3)), np.eye(3))

    def test_letter_is_projection(self):
        F = from_poly(FreePoly.letter(2, 0))
        x = random_tuple(rng_for(20), 2, 3)
        np.testing.assert_allclose(F.eval(x), x[0])

    def test_matches_direct_evaluation(self):
        rng = rng_for(21)
        p = random_poly(rng, 2, 3)
        F = from_poly(p)
        x = random_tuple(rng, 2, 4)
        np.testing.assert_array_equal(F.eval(x), p.evaluate(x))

    def test_domain_enforced(self):
        F = from_poly(FreePoly.letter(1, 0), DomainDescriptor.polydisk(0.5))
        with pytest.raises(DomainViolationError):
            F.eval(MatrixTuple.from_scalars([0.9], 2))
        # the unchecked path is the explicit escape hatch for jet blocks
        F.eval(MatrixTuple.from_scalars([0.9], 2), unchecked=True)


class TestFromSeries:
    def test_geometric_matches_neumann_inverse(self):
        F = from_series(geometric_series(30), truncation=30, domain=DomainDescriptor.polydisk(0.5))
        rng = rng_for(22)
        for n in (2, 4):
            x = MatrixTuple([random_matrix(rng, n, scale=0.4995)])
            closed = inverse(np.eye(n) - x[0])
            gap = operator_norm(F.eval(x) - closed)
            assert gap <= 2 * 2.0**-30

    def test_truncation_zero_keeps_constant(self):
        s = SeriesFunction([FreePoly.constant(1, 2.5), FreePoly.letter(1, 0)], 1.0)
        F = from_series(s, truncation=0, domain=DomainDescriptor.polydisk(0.25))
        np.testing.assert_allclose(F.eval(MatrixTuple.from_scalars([0.1], 2)), 2.5 * np.eye(2))

    def test_zero_series(self):
        s = SeriesFunction([FreePoly.zero(1)], 1.0)
        F = from_series(s, domain=DomainDescriptor.polydisk(0.5))
        np.testing.assert_allclose(F.eval(MatrixTuple.from_scalars([0.1], 3)), np.zeros((3, 3)))

    def test_domain_must_sit_inside_radius(self):
        with pytest.raises(ValueError):
            from_series(geometric_series(5), domain=DomainDescriptor.polydisk(1.0))

    def test_part_degree_validation(self):
        with pytest.raises(ValueError):
            SeriesFunction([FreePoly.letter(1, 0)], 1.0)


class TestFromRealization:
    def test_mobius_at_zero(self):
        F = from_realization(mobius_realization(0.5))
        np.testing.assert_allclose(F.eval(MatrixTuple.zeros(1, 1)), [[-0.5]], atol=1e-14)

    def test_identity_realization_formula_collapses(self):
        from ncfuncalc import identity_realization

        F = from_realization(identity_realization())
        x = random_tuple(rng_for(23), 1, 3, scale=0.7)
        np.testing.assert_allclose(F.eval(x), x[0], atol=1e-12)

    def test_outside_ball_rejected(self):
        F = from_realization(mobius_realization(0.5))
        with pytest.raises(DomainViolationError):
            F.eval(MatrixTuple.from_scalars([1.5], 1))

    def test_explicit_domain(self):
        F = from_realization(mobius_realization(0.5), DomainDescriptor.polydisk(0.5))
        assert F.domain == DomainDescriptor.polydisk(0.5)
        with pytest.raises(DomainViolationError):
            F.eval(MatrixTuple.from_scalars([0.7], 1))


@pytest.fixture(params=["poly", "series", "realization"])
def handle(request):
    rng = rng_for(24)
    if request.param == "poly":
        return from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0))
    if request.param == "series":
        return from_series(
            geometric_series(24), truncation=24, domain=DomainDescriptor.polydisk(0.5)
        )
    return from_realization(mobius_realization(0.4 + 0.2j))


class TestHandleAxioms:
    def test_gradedness(self, handle):
        rng = rng_for(25)
        for n in (1, 2, 3, 5):
            x = random_tuple(rng, handle.arity, n, scale=0.2)
            assert handle.eval(x).shape == (n, n)

    def test_direct_sum_splitting(self, handle):
        rng = rng_for(26)
        for _ in range(100):
            x = random_tuple(rng, handle.arity, 2, scale=0.2)
            y = random_tuple(rng, handle.arity, 3, scale=0.2)
            whole = handle.eval(direct_sum([x, y]))
            parts = np.zeros_like(whole)
            parts[:2, :2] = handle.eval(x)
            parts[2:, 2:] = handle.eval(y)
            assert operator_norm(whole - parts) <= 1e-9

    def test_similarity_covariance(self, handle):
        rng = rng_for(27)
        for _ in range(10):
            x = random_tuple(rng, handle.arity, 3, scale=0.2)
            s = np.eye(3) + 0.1 * random_matrix(rng, 3)
            sinv = inverse(s)
            y = MatrixTuple([s @ c @ sinv for c in x.components])
            cond = operator_norm(s) * operator_norm(sinv)
            gap = operator_norm(handle.eval(y) - s @ handle.eval(x) @ sinv)
            assert gap <= 1e-7 * cond

    def test_scalar_points_give_scalars(self, handle):
        rng = rng_for(28)
        for n in (2, 4):
            scalars = 0.1 * (rng.standard_normal(handle.arity) + 1j * rng.standard_normal(handle.arity))
            a = MatrixTuple.from_scalars(scalars, n)
            v = handle.eval(a)
            c = np.trace(v) / n
            assert np.abs(v - c * np.eye(n)).max() <= 1e-10
