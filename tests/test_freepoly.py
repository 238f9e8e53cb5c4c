"""Free polynomial algebra: ring axioms, evaluation, intertwining."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfuncalc import FreePoly, MatrixTuple, direct_sum, inverse, operator_norm, variables

from _helpers import (
    homogeneous_component,
    random_matrix,
    random_poly,
    random_tuple,
    rng_for,
    scale_vars,
)


def polys(max_arity=3, max_deg=3):
    @st.composite
    def build(draw):
        d = draw(st.integers(1, max_arity))
        nterms = draw(st.integers(0, 5))
        terms = {}
        for _ in range(nterms):
            k = draw(st.integers(0, max_deg))
            word = tuple(draw(st.integers(0, d - 1)) for _ in range(k))
            re = draw(st.floats(-2, 2, allow_nan=False))
            im = draw(st.floats(-2, 2, allow_nan=False))
            terms[word] = complex(re, im)
        return FreePoly(d, terms)

    return build()


def pad(p: FreePoly, arity: int) -> FreePoly:
    return FreePoly(arity, p.terms)


class TestAlgebra:
    def test_add_zero_and_cancel(self):
        p = FreePoly(2, {(0,): 1.0, (0, 1): 2.0})
        assert p + FreePoly.zero(2) == p
        assert (p - p).is_zero

    def test_double(self):
        p = FreePoly(2, {(0, 1): 1.0})
        assert (p + p).terms == {(0, 1): 2.0}

    def test_unit_and_noncommutativity(self):
        x, y = variables(2)
        assert FreePoly.one(2) * x == x
        assert (x * y).terms == {(0, 1): 1.0}
        assert (y * x).terms == {(1, 0): 1.0}
        assert x * y != y * x

    def test_square_expansion(self):
        x, y = variables(2)
        sq = (x + y) ** 2
        assert sq.terms == {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}

    @staticmethod
    def assert_coeff_close(a, b, tol=1e-12):
        for w in set(a.terms) | set(b.terms):
            assert abs(a.coefficient(w) - b.coefficient(w)) <= tol

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, p, q, r):
        d = max(p.arity, q.arity, r.arity)
        p, q, r = pad(p, d), pad(q, d), pad(r, d)
        self.assert_coeff_close((p + q) + r, p + (q + r))
        assert p + q == q + p  # float addition commutes exactly
        self.assert_coeff_close((p * q) * r, p * (q * r))
        self.assert_coeff_close(p * (q + r), p * q + p * r)

    def test_homogeneous_components(self):
        p = FreePoly(2, {(): 3.0, (0,): 1.0, (0, 1): 5.0})
        assert homogeneous_component(p, 0).terms == {(): 3.0}
        assert homogeneous_component(p, 2).terms == {(0, 1): 5.0}
        total = FreePoly.zero(2)
        for k in range(p.degree() + 1):
            total = total + homogeneous_component(p, k)
        assert total == p

    def test_scale_vars(self):
        p = FreePoly(2, {(): 3.0, (0, 1): 1.0})
        assert scale_vars(p, 1.0) == p
        assert scale_vars(p, 0.0).terms == {(): 3.0}
        assert scale_vars(p, 2.0).coefficient((0, 1)) == 4.0

    def test_word_validation(self):
        with pytest.raises(ValueError):
            FreePoly(2, {(2,): 1.0})
        with pytest.raises(ValueError):
            FreePoly(0, {})

    def test_int_tuple_keys_are_kept(self):
        word = (0, 1, 1)
        assert next(iter(FreePoly(2, {word: 2.0}).terms)) is word
        for alias in ((np.int64(0), 1, 1), (False, True, True)):
            (key,) = FreePoly(2, {alias: 2.0}).terms
            assert key == word and all(type(j) is int for j in key)


class TestEvaluation:
    def test_unit_gives_identity(self):
        p = FreePoly.one(2)
        x = MatrixTuple.zeros(2, 3)
        np.testing.assert_allclose(p.evaluate(x), np.eye(3))

    def test_commutator_oracle(self):
        p = FreePoly(2, {(0, 1): 1.0, (1, 0): -1.0})
        x = MatrixTuple([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        np.testing.assert_allclose(p.evaluate(x), [[1, 0], [0, -1]])

    def test_splits_direct_sums(self):
        rng = rng_for(12)
        p = random_poly(rng, 2, 3)
        x = random_tuple(rng, 2, 2)
        y = random_tuple(rng, 2, 3)
        whole = p.evaluate(direct_sum([x, y]))
        np.testing.assert_allclose(whole[:2, :2], p.evaluate(x), atol=1e-12)
        np.testing.assert_allclose(whole[2:, 2:], p.evaluate(y), atol=1e-12)
        np.testing.assert_allclose(whole[:2, 2:], 0, atol=1e-12)

    def test_graded_output(self):
        rng = rng_for(13)
        p = random_poly(rng, 3, 2)
        for n in (1, 2, 3, 5):
            assert p.evaluate(random_tuple(rng, 3, n)).shape == (n, n)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            FreePoly.one(2).evaluate(MatrixTuple.zeros(3, 2))

    @staticmethod
    def word_by_word(p, comps):
        """Reference: every word's product formed from scratch, sample by sample."""
        shape = comps[0].shape
        expected = np.zeros(shape, dtype=complex)
        for index in np.ndindex(shape[:-2]):
            for w, c in p.terms.items():
                m = np.eye(shape[-1])
                for j in w:
                    m = m @ comps[j][index]
                expected[index] += c * m
        return expected

    def test_matches_word_by_word_sum(self):
        # The second point has an exactly zero component, whose products the
        # evaluation never forms; then two leading axes, an empty stack, the zero
        # polynomial and a constant-only polynomial.
        rng = rng_for(16)
        p = random_poly(rng, 3, 4, nterms=30)
        zero = np.zeros((3, 3))
        cases = [
            (p, random_tuple(rng, 3, 3)),
            (p, MatrixTuple([random_matrix(rng, 3), zero, random_matrix(rng, 3)])),
            (p, 0.45 * rng.standard_normal((3, 2, 3, 3, 3)) + 0j),
            (p, np.zeros((3, 0, 3, 3), dtype=complex)),
            (FreePoly.zero(3), 0.45 * rng.standard_normal((3, 2, 3, 3))),
            (FreePoly.constant(3, 2 - 1j), 0.45 * rng.standard_normal((3, 2, 3, 3))),
        ]
        for q, x in cases:
            comps = x.components if isinstance(x, MatrixTuple) else x
            expected = self.word_by_word(q, comps)
            for _ in range(2):  # the second call reuses the cached level table
                value = q.evaluate(x)
                assert value.shape == comps[0].shape
                np.testing.assert_allclose(value, expected, rtol=0, atol=1e-14)

    def test_zero_component_beats_an_overflowed_prefix(self):
        # x1^300 overflows, so a formed product by x0 = 0 would be inf * 0,
        # NaN; the word through x0 = 0 contributes exactly 0.
        p = FreePoly(2, {(1,) * 300 + (0,): 1})
        x = MatrixTuple([np.zeros((2, 2)), 100 * np.eye(2)])
        stack = np.stack([x.components, [np.eye(2), 100 * np.eye(2)]], axis=1)  # (d, B, n, n)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(p.evaluate(x), np.zeros((2, 2)))
            values = p.evaluate(stack)
            assert np.array_equal(values[0], np.zeros((2, 2)))
            assert np.array_equal(values[1], p.evaluate(stack[:, 1]), equal_nan=True)
            assert not np.all(np.isfinite(values[1]))

    def test_stacked_components_give_each_sample_its_value(self):
        # Samples stacked on a leading axis, one with an exactly zero
        # component that the others do not share.
        rng = rng_for(18)
        p = random_poly(rng, 3, 4, nterms=30)
        points = [random_tuple(rng, 3, 4) for _ in range(3)]
        points.append(MatrixTuple([random_matrix(rng, 4), np.zeros((4, 4)), random_matrix(rng, 4)]))
        stack = np.stack([np.stack(x.components) for x in points], axis=1)  # (d, B, n, n)
        values = p.evaluate(stack)
        assert values.shape == (4, 4, 4)
        for value, x in zip(values, points):
            assert np.array_equal(value, p.evaluate(x))

    def assert_stack_matches(self, p, stack):
        """Each sample of ``stack`` (d, B, n, n) matches the word-by-word sum
        and, bit for bit, its own lone evaluation."""
        values = p.evaluate(stack)
        np.testing.assert_allclose(values, self.word_by_word(p, stack), rtol=0, atol=1e-14)
        for b, value in enumerate(values):
            assert np.array_equal(value, p.evaluate(stack[:, b]))
        return values

    def test_stacked_taylor_jets_at_zero(self):
        # The jet of word w is the tuple of shifts X_j = sum of E_{i, i+1} over
        # the positions i with w_i = j: its prefix products vanish except on
        # the substrings of w, so each sample has its own live prefixes.  Two
        # words miss a letter, so their jets have an exactly zero component.
        rng = rng_for(19)
        words = [(0, 1, 2, 0), (2, 2, 1, 1), (0, 0, 0, 0), (1, 0, 1, 0), (2, 1, 0, 2)]
        p = random_poly(rng, 3, 5, nterms=60) + FreePoly(3, dict.fromkeys(words, 0.5))
        stack = np.zeros((3, len(words), 5, 5))
        for b, w in enumerate(words):
            for i, j in enumerate(w):
                stack[j, b, i, i + 1] = 1.0
        values = self.assert_stack_matches(p, stack)
        for value, w in zip(values, words):
            assert value[0, -1] == p.coefficient(w)  # the corner reads off c_w

    def test_strictly_upper_triangular_components(self):
        # Nilpotent components at n = 6: band offsets of at least 1, 2 and 3
        # make products of length 6, 3 and 2 vanish; the last sample also
        # has an exactly zero component.
        rng = rng_for(20)
        p = random_poly(rng, 3, 5, nterms=60)
        g = rng.standard_normal((3, 4, 6, 6)) + 1j * rng.standard_normal((3, 4, 6, 6))
        offsets = (1, 2, 3, 1)
        stack = np.stack([np.triu(g[:, b], k) for b, k in enumerate(offsets)], axis=1)
        stack[1, 3] = 0
        self.assert_stack_matches(p, stack)

    def test_independent_of_term_insertion_order(self):
        rng = rng_for(17)
        p = random_poly(rng, 2, 4, nterms=20)
        q = FreePoly(2, dict(reversed(list(p.terms.items()))))
        x = random_tuple(rng, 2, 4)
        assert np.array_equal(p.evaluate(x), q.evaluate(x))

    def test_evaluation_is_multiplicative(self):
        rng = rng_for(14)
        for _ in range(10):
            p = random_poly(rng, 2, 4)
            q = random_poly(rng, 2, 4)
            x = random_tuple(rng, 2, 3, scale=0.9)
            lhs = (p * q).evaluate(x)
            rhs = p.evaluate(x) @ q.evaluate(x)
            assert operator_norm(lhs - rhs) <= 1e-10 * max(1.0, operator_norm(rhs))

    def test_intertwining_under_similarity(self):
        rng = rng_for(15)
        for _ in range(10):
            p = random_poly(rng, 2, 3)
            x = random_tuple(rng, 2, 3)
            s = np.eye(3) + 0.1 * random_matrix(rng, 3)
            sinv = inverse(s)
            y = MatrixTuple([s @ c @ sinv for c in x.components])
            gap = operator_norm(s @ p.evaluate(x) - p.evaluate(y) @ s)
            assert gap <= 1e-8 * operator_norm(s)
