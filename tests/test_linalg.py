"""Matrix arithmetic and block assembly against hand-checked oracles."""

import re

import numpy as np
import pytest

from ncfuncalc import (
    MatrixTuple,
    SingularMatrixError,
    direct_sum,
    inverse,
    operator_norm,
)
from ncfuncalc.linalg import NonConvergenceError, as_matrix, as_stack

from _helpers import (
    bidiagonal_block,
    ones_orthogonal_matrix,
    random_matrix,
    rng_for,
    unit_direction,
)


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_unipotent_by_product(self):
        a = np.array([[1, 1], [0, 1]], dtype=complex)
        inv = inverse(a)
        np.testing.assert_allclose(inv, [[1, -1], [0, 1]])
        np.testing.assert_allclose(a @ inv, np.eye(2), atol=1e-14)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            inverse(np.zeros((3, 3)))

    def test_numerically_singular(self):
        # Non-zero and not exactly singular in floating point, but with a
        # reciprocal condition far below the 1e-12 threshold.
        with pytest.raises(SingularMatrixError):
            inverse(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))
        rng = rng_for(31)
        q1, q2 = (
            np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
            for _ in "12"
        )
        sigma = np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.0])
        with pytest.raises(SingularMatrixError):
            inverse(q1 @ np.diag(sigma) @ q2.conj().T)

    def test_non_square(self):
        with pytest.raises(ValueError):
            inverse(np.zeros((2, 3)))

    def test_residual_500_seeded_trials(self):
        # Well-conditioned inputs via a controlled singular value profile.
        rng = rng_for(20260808)
        for trial in range(500):
            n = int(rng.integers(2, 13))
            q1 = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            q2 = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            sigma = np.exp(rng.uniform(np.log(1e-3), 0.0, size=n))
            a = q1 @ np.diag(sigma) @ q2.conj().T
            inv = inverse(a)
            resid = operator_norm(a @ inv - np.eye(n))
            bound = 1e-10 * (1.0 + operator_norm(a) * operator_norm(inv))
            assert resid <= bound, f"trial {trial}: residual {resid:.2e} above {bound:.2e}"


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0
        assert operator_norm(np.zeros((7, 7))) == 0.0

    def test_hand_singular_value(self):
        assert operator_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0, abs=1e-12)

    def test_unitary(self):
        rng = rng_for(1)
        for n in (3, 6):
            u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            assert operator_norm(u) == pytest.approx(1.0, abs=1e-10)

    def test_matches_lapack_at_large_dims(self):
        rng = rng_for(2)
        for n in (5, 9, 14):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            expected = np.linalg.norm(a, 2)
            assert operator_norm(a) == pytest.approx(expected, rel=1e-9)

    def test_rectangular(self):
        rng = rng_for(3)
        a = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-9)

    def test_near_degenerate_top_singular_values(self):
        # Two leaders closer than any iterative stopping rule can separate.
        a = np.diag([1.0, 1.0 - 1e-7, 0.7, 0.5, 0.3]).astype(complex)
        assert operator_norm(a) == pytest.approx(1.0, rel=1e-10)
        b = np.diag([1.0, 1.0, 0.7, 0.5, 0.3]).astype(complex)  # exact tie
        assert operator_norm(b) == pytest.approx(1.0, rel=1e-10)

    def test_top_singular_vector_orthogonal_to_ones(self):
        assert operator_norm(ones_orthogonal_matrix()) == pytest.approx(3.0, rel=1e-12)

    def test_bit_identical_to_numpy_norm(self):
        # operator_norm works on the complex128 form of its argument, so the
        # reference is np.linalg.norm of that same form.
        rng = rng_for(5)
        cases = [ones_orthogonal_matrix()]
        for shape in ((1, 1), (4, 4), (16, 16), (32, 32), (3, 7), (7, 3), (16, 32)):
            real = rng.standard_normal(shape)
            cases += [real, real + 1j * rng.standard_normal(shape)]
        for a in cases:
            expected = float(np.linalg.norm(np.asarray(a, dtype=np.complex128), 2))
            assert operator_norm(a) == expected

    def test_stack_gives_each_matrix_norm(self):
        rng = rng_for(6)
        for shape in ((5, 4, 4), (2, 3, 6, 4), (3, 1, 1)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            norms = operator_norm(a)
            assert norms.shape == shape[:-2]
            for idx in np.ndindex(shape[:-2]):
                assert norms[idx] == operator_norm(a[idx])
        assert type(operator_norm(a[0])) is float
        assert operator_norm(np.zeros((3, 0, 4))).tolist() == [0.0, 0.0, 0.0]

    def test_stack_rejects_non_finite_and_vectors(self):
        a = np.zeros((3, 2, 2))
        a[1, 0, 0] = np.nan
        with pytest.raises(ValueError):
            operator_norm(a)
        with pytest.raises(ValueError):
            operator_norm(np.ones(3))

    def test_submultiplicative(self):
        rng = rng_for(4)
        for _ in range(50):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) * (1 + 1e-9)


class TestDirectSum:
    def test_singleton(self):
        x = MatrixTuple([random_matrix(rng_for(7), 2)])
        np.testing.assert_allclose(direct_sum([x])[0], x[0])

    def test_scalar_blocks(self):
        x = MatrixTuple([[[2.0]]])
        y = MatrixTuple([[[3.0]]])
        np.testing.assert_allclose(direct_sum([x, y])[0], np.diag([2.0, 3.0]))

    def test_associative_layout(self):
        rng = rng_for(8)
        xs = [MatrixTuple([random_matrix(rng, n)]) for n in (1, 2, 3)]
        left = direct_sum([direct_sum(xs[:2]), xs[2]])
        right = direct_sum([xs[0], direct_sum(xs[1:])])
        np.testing.assert_allclose(left[0], right[0])

    def test_norm_is_max(self):
        rng = rng_for(9)
        for _ in range(20):
            x = MatrixTuple([random_matrix(rng, 3, scale=rng.uniform(0.1, 2.0)) for _ in range(2)])
            y = MatrixTuple([random_matrix(rng, 4, scale=rng.uniform(0.1, 2.0)) for _ in range(2)])
            s = direct_sum([x, y])
            for r in range(2):
                expected = max(operator_norm(x[r]), operator_norm(y[r]))
                assert operator_norm(s[r]) == pytest.approx(expected, abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError, match="^direct_sum needs one or more points"):
            direct_sum([])
        with pytest.raises(ValueError):
            direct_sum([MatrixTuple.zeros(1, 2), MatrixTuple.zeros(2, 2)])


class TestBidiagonalBlock:
    def test_single_block(self):
        x = MatrixTuple([random_matrix(rng_for(10), 2)])
        out = bidiagonal_block([x], [])
        np.testing.assert_allclose(out[0], x[0])

    def test_nilpotent_jet(self):
        zero = MatrixTuple([[[0.0]]])
        one = MatrixTuple([[[1.0]]])
        out = bidiagonal_block([zero, zero], [one])
        np.testing.assert_allclose(out[0], [[0, 1], [0, 0]])

    def test_three_point_chain(self):
        xs = [MatrixTuple([[[float(v)]]]) for v in (1, 2, 3)]
        ones = MatrixTuple([[[1.0]]])
        out = bidiagonal_block(xs, [ones, ones])
        np.testing.assert_allclose(out[0], [[1, 1, 0], [0, 2, 1], [0, 0, 3]])

    def test_length_mismatch(self):
        x = MatrixTuple.zeros(1, 2)
        with pytest.raises(ValueError):
            bidiagonal_block([x, x], [])


class TestAsStack:
    @pytest.mark.parametrize("shape", [(2, 1, 0, 0), (1, 0, 0), (2, 1, 2, 3), (1, 2, 3), (2, 3)])
    def test_malformed_stack_is_rejected_naming_its_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            as_stack(np.zeros(shape))

    def test_several_leading_axes_and_empty_stacks_pass(self):
        comps, lead = as_stack(np.zeros((2, 3, 4, 5, 5)))
        assert comps.shape == (2, 12, 5, 5) and lead == (3, 4)
        comps, lead = as_stack(np.zeros((2, 0, 3, 3)))
        assert comps.shape == (2, 0, 3, 3) and lead == (0,)


class TestMatrixTuple:
    def test_immutability(self):
        x = MatrixTuple.zeros(2, 2)
        with pytest.raises(ValueError):
            x[0][0, 0] = 1.0

    def test_scalar_and_unit_constructors(self):
        a = MatrixTuple.from_scalars([1 + 2j, -0.5], 3)
        np.testing.assert_allclose(a[0], (1 + 2j) * np.eye(3))
        e1 = unit_direction(2, 1, 2)
        np.testing.assert_allclose(e1[0], np.zeros((2, 2)))
        np.testing.assert_allclose(e1[1], np.eye(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixTuple([])
        with pytest.raises(ValueError):
            MatrixTuple([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError):
            MatrixTuple([np.zeros((2, 3))])

    def test_dimension_zero_is_rejected(self):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            MatrixTuple([np.zeros((0, 0))])
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            MatrixTuple.zeros(2, 0)


class TestEdgeCases:
    def test_as_matrix_rejects_a_vector(self):
        with pytest.raises(ValueError) as info:
            as_matrix(np.zeros(3))
        assert str(info.value) == "expected a 2-d matrix, got shape (3,)"

    def test_inverse_of_the_empty_matrix_is_empty(self):
        assert inverse(np.zeros((0, 0))).shape == (0, 0)

    def test_inverse_that_overflows_is_singular(self):
        # 1 / 1e-310 overflows to inf without a LAPACK error.
        with pytest.raises(SingularMatrixError) as info:
            inverse([[1e-310]])
        assert str(info.value) == "inverse has non-finite entries"

    def test_svd_failure_is_non_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NonConvergenceError) as info:
            operator_norm(np.eye(2))
        assert str(info.value) == "SVD failed: SVD did not converge"
