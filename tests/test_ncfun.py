"""Handle construction, domains, and the structural evaluation properties."""

import math
import re

import numpy as np
import pytest

from ncfuncalc import (
    CONTROL_NAMES,
    DomainDescriptor,
    DomainViolationError,
    FreePoly,
    MatrixTuple,
    NCFunctionHandle,
    NonFiniteResultError,
    PolyMatrix,
    SeriesFunction,
    control_handle,
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
    random_isometric_realization,
    random_matrix,
    random_poly,
    random_rowball_realization,
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

    def test_point_of_another_arity(self):
        F = from_poly(FreePoly.letter(1, 0))
        with pytest.raises(ValueError, match="^handle has arity 1, point has arity 2$"):
            F.eval(MatrixTuple.zeros(2, 2))


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


def stack_of(points) -> np.ndarray:
    """The component stack (d, B, n, n) of equal-size tuples."""
    return np.stack([np.array(x.components) for x in points], axis=1)


class TestStacks:
    """A stack of tuples gets, per sample, what each tuple gets alone."""

    DOMAINS = [
        DomainDescriptor.polydisk(1.0),
        DomainDescriptor.rowball(1.0),
        DomainDescriptor.deltaball(PolyMatrix([[FreePoly(2, {(0, 1): 1.0, (1,): 0.5})]]), 0.1),
        DomainDescriptor.polydisk(math.inf, norm_cap=0.6),
        DomainDescriptor.polydisk(math.inf),
    ]

    @pytest.mark.parametrize("domain", DOMAINS, ids=lambda dom: dom.kind)
    def test_contains_answers_each_sample(self, domain):
        rng = rng_for(60)
        points = [random_tuple(rng, 2, 3, scale=s) for s in np.linspace(0.1, 1.2, 12)]
        expected = [domain.contains(x) for x in points]
        assert all(type(v) is bool for v in expected)
        got = domain.contains(stack_of(points).reshape(2, 3, 4, 3, 3))
        assert got.shape == (3, 4) and got.dtype == bool
        assert got.ravel().tolist() == expected

    @pytest.mark.parametrize(
        "F",
        [
            from_poly(random_poly(rng_for(61), 2, 4, nterms=12)),
            from_series(
                SeriesFunction([FreePoly(2, {(0,) * k: 0.5, (1,) * k: 1j}) for k in range(5)], 2.0),
                truncation=4,
                domain=DomainDescriptor.rowball(1.0),
            ),
            from_realization(random_isometric_realization(rng_for(62), 2, 3)),
            from_realization(random_rowball_realization(rng_for(63), 2, 2)),
        ],
        ids=["poly", "series", "polydisk realization", "rowball realization"],
    )
    def test_eval_gives_each_sample_its_value(self, F):
        rng = rng_for(64)
        points = [random_tuple(rng, 2, 3, scale=0.3) for _ in range(5)]
        values = F.eval(stack_of(points))
        assert values.shape == (5, 3, 3)
        for value, x in zip(values, points):
            np.testing.assert_array_equal(value, F.eval(x))

    def test_checked_stack_needs_every_sample_inside(self):
        F = from_poly(FreePoly.letter(1, 0), DomainDescriptor.polydisk(1.0))
        inside, outside = MatrixTuple.from_scalars([0.5], 2), MatrixTuple.from_scalars([1.5], 2)
        np.testing.assert_array_equal(F.eval(stack_of([inside, inside]))[1], 0.5 * np.eye(2))
        with pytest.raises(DomainViolationError):
            F.eval(stack_of([inside, outside]))
        assert F.eval(stack_of([inside, outside]), unchecked=True).shape == (2, 2, 2)

    def test_grading_and_finiteness_checked_on_the_stack(self):
        F = from_poly(FreePoly(1, {(0,) * 300: 1.0}))
        big = MatrixTuple.from_scalars([100.0], 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteResultError):
                F.eval(stack_of([MatrixTuple.zeros(1, 2), big]))
        # The 2x2 identity at every sample: graded only at dimension 2.
        nongraded = control_handle("non-graded", 1)
        assert nongraded.eval(stack_of([MatrixTuple.zeros(1, 2)] * 3)).shape == (3, 2, 2)
        with pytest.raises(ValueError, match="broke grading"):
            nongraded.eval(stack_of([MatrixTuple.zeros(1, 3)] * 3))

    @pytest.mark.parametrize("shape", [(1, 2, 0, 0), (1, 1, 2, 3)])
    def test_malformed_stack_is_rejected_before_evaluation(self, shape):
        # Dimension 0 gave an empty value from a polynomial and a
        # ZeroDivisionError from a realization; a 2x3 point was inside.
        x = np.zeros(shape)
        handles = [from_poly(FreePoly(1, {(0, 0): 1.0})), from_realization(mobius_realization(0.5))]
        for F in handles:
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                F.eval(x)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            DomainDescriptor.polydisk(1.0).contains(x)

    @pytest.mark.parametrize("name", CONTROL_NAMES)
    def test_controls_broadcast(self, name):
        F = control_handle(name, 2)
        rng = rng_for(65)
        points = [random_tuple(rng, 2, 3) for _ in range(4)]
        if name == "non-graded":
            with pytest.raises(ValueError, match="broke grading"):
                F.eval(stack_of(points))
            return
        values = F.eval(stack_of(points))
        for value, x in zip(values, points):
            np.testing.assert_array_equal(value, F.eval(x))


class TestEdgeCases:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: SeriesFunction([], 1.0), ValueError,
             "a series needs at least the constant part"),
            (lambda: SeriesFunction([1], 1.0), TypeError, "series parts must be FreePoly"),
            (lambda: SeriesFunction([FreePoly.one(1), 1], 1.0), TypeError,
             "series parts must be FreePoly"),
            (lambda: SeriesFunction([FreePoly.one(1), FreePoly.letter(2, 0)], 1.0), ValueError,
             "series parts differ in arity"),
            (lambda: SeriesFunction([FreePoly.one(1)], 0.0), ValueError,
             "convergence radius must be positive"),
            (lambda: from_series(SeriesFunction([FreePoly.one(1)], math.inf)), ValueError,
             "a series of infinite convergence radius needs an explicit domain"),
            (lambda: NCFunctionHandle(0, DomainDescriptor.polydisk(1.0), np.asarray), ValueError,
             "arity must be at least 1"),
            (lambda: control_handle("nope"), ValueError,
             "unknown control 'nope'; choices: entrywise-conjugation, fixed-corner, non-graded"),
        ],
        ids=["no parts", "first part not a polynomial", "later part not a polynomial",
             "arity mismatch", "zero radius", "infinite radius without domain", "arity zero",
             "unknown control"],
    )
    def test_bad_input_is_rejected(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message

    def test_infinite_radius_with_a_domain_is_a_handle(self):
        series = SeriesFunction([FreePoly.one(1), FreePoly.letter(1, 0)], math.inf)
        F = from_series(series, domain=DomainDescriptor.polydisk(5.0))
        np.testing.assert_allclose(F.eval(MatrixTuple.from_scalars([3.0], 1)), [[4.0]])
