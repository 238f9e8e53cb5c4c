"""Coefficient extraction, expansion round trips, and tail bounds."""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ncfuncalc import (
    DomainDescriptor,
    ExtractionError,
    FreePoly,
    MatrixTuple,
    NCFunctionHandle,
    NonScalarResultError,
    PolyMatrix,
    Realization,
    SeriesFunction,
    TaylorExpansion,
    circle_norm_estimate,
    control_handle,
    delta_k,
    delta_polydisk,
    from_poly,
    from_realization,
    from_series,
    identity_realization,
    mobius_realization,
    operator_norm,
    tail_bound,
    taylor_expand,
)

import ncfuncalc.taylor
from ncfuncalc.linalg import scalar_part
from ncfuncalc.taylor import CIRCLE_INFLATE, CIRCLE_SAMPLES, JET_BLOCK_BYTES, WORD_CAP

from _helpers import (
    components,
    counting_handle,
    random_isometric_realization,
    random_matrix,
    random_poly,
    random_rowball_realization,
    random_tuple,
    rng_for,
    unit_direction,
)


def word_coefficient(F, word, *, dim=1):
    """The coefficient of ``word`` in the expansion of F at 0."""
    return taylor_expand(F, len(word), dim=dim).parts[len(word)].coefficient(word)


def closed_form(r):
    """The coefficient of w in r's expansion, ``B E_{w1} D E_{w2} ... D E_{wk} C``,
    for a letter-linear delta: E_j = kron(I_m, coefficient of x_j in delta)."""
    d = r.delta.arity
    units = [
        np.kron(np.eye(r.m), [[p.coefficient((j,)) for p in row] for row in r.delta.entries])
        for j in range(d)
    ]

    def coefficient(w):
        if not w:
            return complex(r.A)
        m = r.B @ units[w[0]]
        for j in w[1:]:
            m = m @ r.D @ units[j]
        return complex((m @ r.C)[0, 0])

    return coefficient


def closed_form_case(r):
    return from_realization(r), closed_form(r)


def rowball_series_case():
    series = SeriesFunction(
        [
            FreePoly(2, {w: (1 + 1j) ** k / (1 + sum(w)) for w in itertools.product(range(2), repeat=k)})
            for k in range(5)
        ],
        2.0,
    )
    F = from_series(series, truncation=4, domain=DomainDescriptor.rowball(0.7))
    return F, lambda w: series.parts[len(w)].coefficient(w)


class TestWordCoefficient:
    def test_reads_off_known_coefficient(self):
        F = from_poly(FreePoly(2, {(0, 1): 2.0}))
        assert word_coefficient(F, [0, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_absent_word_is_zero(self):
        F = from_poly(FreePoly(2, {(0, 1): 2.0}))
        assert abs(word_coefficient(F, [1, 0])) <= 1e-10

    def test_mobius_first_coefficient(self):
        F = from_realization(mobius_realization(0.5))
        assert word_coefficient(F, [0]) == pytest.approx(0.75, abs=1e-12)

    def test_mobius_series_oracle(self):
        # (z - a)(1 - conj(a) z)^{-1} = -a + (1 - |a|^2) sum_k conj(a)^{k-1} z^k
        a = 0.3 + 0.4j
        F = from_realization(mobius_realization(a))
        for k in range(1, 5):
            expected = (1 - abs(a) ** 2) * a.conjugate() ** (k - 1)
            got = word_coefficient(F, [0] * k)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_higher_dim_cross_check(self):
        F = from_poly(FreePoly(2, {(0, 1): 2.0, (1,): -0.5}))
        assert word_coefficient(F, [0, 1], dim=3) == pytest.approx(2.0, abs=1e-10)


class TestTaylorExpand:
    def test_round_trip_poly(self):
        rng = rng_for(50)
        p = random_poly(rng, 2, 4)
        expansion = taylor_expand(from_poly(p), 4)
        recovered = expansion.as_poly()
        words = set(p.terms) | set(recovered.terms)
        for w in words:
            assert abs(recovered.coefficient(w) - p.coefficient(w)) <= 1e-8

    def test_constant_function(self):
        expansion = taylor_expand(from_poly(FreePoly.constant(2, 1.5 - 2j)), 3)
        assert expansion.parts[0].coefficient(()) == pytest.approx(1.5 - 2j)
        for part in expansion.parts[1:]:
            assert part.is_zero

    def test_coefficient_far_below_the_largest_is_kept(self):
        # 5e-8 is below 1e-12 of the largest coefficient: the jets read both exactly.
        expansion = taylor_expand(from_poly(FreePoly(1, {(0,): 1e6, (0, 0): 5e-8})), 2)
        assert expansion.as_poly().terms == {(0,): 1e6, (0, 0): 5e-8}

    def test_small_domain_is_expanded(self):
        # polydisk(1e-7): the jets are halved to 2^-24 and rescaled exactly.
        x0 = FreePoly(1, {(0,): 1.0})
        expansion = taylor_expand(from_poly(x0, DomainDescriptor.polydisk(1e-7)), 2)
        assert expansion.as_poly() == x0

    def test_identity_realization_expansion(self):
        expansion = taylor_expand(from_realization(identity_realization()), 4)
        assert expansion.parts[0].is_zero
        assert expansion.parts[1].terms == {(0,): pytest.approx(1.0)}
        for part in expansion.parts[2:]:
            assert part.is_zero

    def test_degree_zero_is_the_constant_part(self):
        F, calls = counting_handle(FreePoly(2, {(): 0.5 - 1j, (0,): 1.0, (1, 0): 2.0}))
        expansion = taylor_expand(F, 0)
        assert expansion.parts == [FreePoly.constant(2, 0.5 - 1j)]
        assert expansion.residuals == {(): 0.0}
        assert len(calls) == 1

    def test_homogeneity_of_parts(self):
        rng = rng_for(51)
        expansion = taylor_expand(from_poly(random_poly(rng, 3, 3)), 3)
        for k, part in enumerate(expansion.parts):
            assert part.is_homogeneous(k)

    def test_round_trip_under_rowball_domain(self):
        rng = rng_for(54)
        p = random_poly(rng, 2, 3)
        F = from_poly(p, DomainDescriptor.rowball(1.0))
        recovered = taylor_expand(F, 3).as_poly()
        for w in set(p.terms) | set(recovered.terms):
            assert abs(recovered.coefficient(w) - p.coefficient(w)) <= 1e-8

    def test_bitwise_deterministic(self):
        rng = rng_for(55)
        F = from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0))
        a = taylor_expand(F, 3)
        b = taylor_expand(F, 3)
        assert a.as_poly().terms == b.as_poly().terms
        assert a.residuals == b.residuals

    @pytest.mark.parametrize(
        "p",
        [
            FreePoly(2, {(): 0.5 - 1j, (0, 1): 2.0, (1,): -1.0, (1, 1, 0): 0.25j}),
            FreePoly(2, {(): 3.0, (1, 0): 1.5}),  # parts 1, 3 and 4 are empty
            FreePoly.zero(2),
        ],
        ids=["constant term", "empty parts", "zero"],
    )
    def test_as_poly_is_the_sum_of_the_parts(self, p):
        expansion = taylor_expand(from_poly(p), 4)
        summed = sum(expansion.parts, FreePoly.zero(2)).terms
        assert list(expansion.as_poly().terms.items()) == list(summed.items())

    def test_as_poly_sums_a_word_shared_by_two_parts(self):
        parts = [FreePoly(2, {(): 1.0, (0, 1): 0.5}), FreePoly(2, {(0, 1): 0.25, (1,): 2.0})]
        merged = TaylorExpansion(parts).as_poly()
        assert merged.terms == {(): 1.0, (0, 1): 0.75, (1,): 2.0}
        assert TaylorExpansion([FreePoly(2, {(1,): 1.0}), FreePoly(2, {(1,): -1.0})]).as_poly().is_zero

    def test_word_cap(self):
        # 3 + 9 + ... + 3^8 = 9840 words through degree 8 are over WORD_CAP.
        F, calls = counting_handle(FreePoly.letter(3, 0))
        with pytest.raises(ValueError, match=f"9840 word extractions, above the cap {WORD_CAP}"):
            taylor_expand(F, 8)
        assert calls == []

    @pytest.mark.parametrize(
        "d, maxdeg, words",
        [(2, 12, 8190), (4, 7, 21844), (5, 6, 19530), (71, 2, 5112), (5001, 1, 5001)],
    )
    def test_word_cap_counts_the_words_of_every_degree(self, d, maxdeg, words):
        # d + d^2 + ... + d^maxdeg words, one over the cap being too many.
        F, calls = counting_handle(FreePoly.letter(d, 0))
        message = f"needs {words} word extractions, above the cap {WORD_CAP}"
        with pytest.raises(ValueError, match=message):
            taylor_expand(F, maxdeg)
        assert calls == []

    def test_dimension_must_be_positive(self):
        F, calls = counting_handle(FreePoly.letter(2, 0))
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            taylor_expand(F, 3, dim=0)
        assert calls == []

    def test_diagnostics_flag_balancedness(self):
        poly_exp = taylor_expand(from_poly(FreePoly.letter(1, 0)), 1)
        assert poly_exp.diagnostics()["balanced_domain"] is True
        # The polydisk delta is homogeneous of degree 1, so its ball is balanced.
        real_exp = taylor_expand(from_realization(mobius_realization(0.2)), 1)
        assert real_exp.diagnostics()["balanced_domain"] is True
        # ||delta(x)|| = ||x0^2|| scales by |t|^2: still balanced.
        square = PolyMatrix([[FreePoly(1, {(0, 0): 1.0})]])
        F = from_poly(FreePoly.letter(1, 0), DomainDescriptor.deltaball(square, 0.1))
        assert taylor_expand(F, 1).diagnostics()["balanced_domain"] is True
        # A constant term breaks homogeneity: balancedness is unknown.
        shifted = PolyMatrix([[FreePoly(1, {(): 0.5, (0,): 1.0})]])
        F = from_poly(FreePoly.letter(1, 0), DomainDescriptor.deltaball(shifted))
        assert taylor_expand(F, 1).diagnostics()["balanced_domain"] is None

    def test_extraction_failure_names_word(self):
        # The fixed-corner control breaks the jet structure itself; the
        # failure surfaces as an extraction error naming the word.
        from ncfuncalc import ExtractionError

        F = control_handle("fixed-corner", 1)
        with pytest.raises(ExtractionError) as err:
            taylor_expand(F, 2, dim=2)
        assert err.value.word is not None


def _assert_expands_to(F, maxdeg, reference):
    """The expansion of F holds exactly the words of ``reference``, each
    coefficient within 1e-12 relative of its value there."""
    got = taylor_expand(F, maxdeg).as_poly().terms
    assert got.keys() == reference.keys()
    for w, c in reference.items():
        assert abs(got[w] - c) <= 1e-12 * abs(c), w


def _constant_colligation(seed):
    """A structured similarity of a d = 2, m = 2 polydisk colligation whose
    function is the constant 0.3.  State a*d + j is auxiliary index a of
    letter j; B reads only a = 0, C feeds only a = 1, and D never maps a = 1
    to a = 0, so every word's coefficient is 0 in exact arithmetic.  The
    similarity S, block diagonal by letter, commutes with delta and mixes
    a = 0 with a = 1."""
    rng = rng_for(seed)
    B, C, D = np.zeros((1, 4), complex), np.zeros((4, 1), complex), random_matrix(rng, 4, 0.3)
    B[0, :2], C[2:, 0], D[:2, 2:] = random_matrix(rng, 2)[0], random_matrix(rng, 2)[:, 0], 0
    S = sum(np.kron(random_matrix(rng, 2), np.diag(np.eye(2)[j])) for j in range(2))
    S_inv = np.linalg.inv(S)
    return Realization(delta_polydisk(2), 2, 0.3, B @ S, S_inv @ C, S_inv @ D @ S)


class TestEveryReadCoefficientIsKept:
    """The expansion keeps every coefficient the jets read as nonzero: no
    cutoff by size, so small functions, rescaled domains and long tails keep
    their words."""

    def test_small_polynomial(self):
        p = FreePoly(2, {(): 5e-13, (0,): 1e-13, (0, 1): 2e-13})
        _assert_expands_to(from_poly(p), 3, p.terms)

    @pytest.mark.parametrize("R", [1e-9, 1e-7, 1.0, 1e6])
    def test_polynomial_in_the_units_of_its_domain(self, R):
        p = FreePoly(2, {(): 0.5, (0,): 1 / R, (0, 1): (0.7 - 0.2j) / R**2, (1, 1, 0): 0.5 / R**3})
        _assert_expands_to(from_poly(p, DomainDescriptor.polydisk(R)), 3, p.terms)

    def test_mobius_tail(self):
        # c_11 = 0.9975 * 0.05^10 = 9.7e-14.
        a = 0.05
        reference = {(0,) * k: (1 - a**2) * a ** (k - 1) for k in range(1, 13)}
        _assert_expands_to(from_realization(mobius_realization(a)), 12, {(): -a, **reference})

    def test_exponential_series_tail(self):
        # 0.5^16 / 16! = 7.3e-19.
        reference = {(0,) * k: 0.5**k / math.factorial(k) for k in range(17)}
        series = SeriesFunction([FreePoly(1, {w: c}) for w, c in reference.items()], math.inf)
        _assert_expands_to(from_series(series, 16, DomainDescriptor.polydisk(1.0)), 16, reference)

    @pytest.mark.parametrize("t", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_words_do_not_depend_on_scale(self, t):
        p = FreePoly(2, {(): 0.3, (0,): 1.0, (0, 1): 0.7 - 0.2j, (1, 1, 0): 0.5})
        F = from_poly(p)
        scaled = NCFunctionHandle(2, F.domain, lambda x: t * F.eval(x, unchecked=True))
        _assert_expands_to(scaled, 3, {w: t * c for w, c in p.terms.items()})

    @pytest.mark.parametrize("seed", range(4))
    def test_realization_that_is_not_minimal_shows_roundoff(self, seed):
        # Every word's coefficient is 0 in exact arithmetic; the expansion
        # keeps the roundoff the jets read, far below F(0).
        expansion = taylor_expand(from_realization(_constant_colligation(seed)), 6)
        terms = expansion.as_poly().terms
        assert terms.pop(()) == pytest.approx(0.3, abs=1e-15)
        assert terms and max(map(abs, terms.values())) <= 1e-12 * 0.3


def rescaling(x):
    """x0 in a basis rescaled per dimension: at zero base points the jet stays
    upper triangular, but every extracted block of x0 is non-scalar."""
    scale = np.diag(np.arange(1.0, np.shape(x[0])[-1] + 1.0))
    return scale @ x[0] @ np.linalg.inv(scale)


def _words_through(d, maxdeg):
    return [w for k in range(maxdeg + 1) for w in itertools.product(range(d), repeat=k)]


def _assert_coefficients(expansion, reference, words):
    got = expansion.as_poly()
    for w in words:
        ref = reference(w)
        assert abs(got.coefficient(w) - ref) <= 1e-14 * max(1.0, abs(ref)), w


class TestOneEvaluationPerWord:
    def test_evaluation_count(self):
        # F(0) once, then one stacked evaluation per block of the 61 covering
        # jets of length 8: fifteen blocks of 4, then a block of one.
        p = random_poly(rng_for(56), 3, 5, nterms=40)
        calls = []

        def counting(x):
            calls.append(np.shape(x[0])[:-2])  # the stack's leading shape
            return p.evaluate(x)

        F = NCFunctionHandle(3, DomainDescriptor.polydisk(math.inf), counting)
        taylor_expand(F, 5)
        assert JET_BLOCK_BYTES // (16 * 3 * 9**2) == 4
        assert len(calls) == 1 + -(-61 // 4) == 17
        assert calls == [()] + [(4,)] * 15 + [(1,)]

    def test_one_variable_takes_one_jet(self):
        # d = 1: the jet of x0^12 holds every shorter word, so F(0) and one jet.
        F, calls = counting_handle(random_poly(rng_for(59), 1, 12, nterms=10))
        expansion = taylor_expand(F, 12)
        assert len(calls) == 2
        assert len(expansion.residuals) == 13

    def test_polynomial_coefficients(self):
        rng = rng_for(57)
        words = _words_through(3, 5)
        for _ in range(3):
            p = random_poly(rng, 3, 5, nterms=40)
            _assert_coefficients(taylor_expand(from_poly(p), 5), p.coefficient, words)

    def test_realization_coefficients_against_word_products(self):
        r = random_isometric_realization(rng_for(58), 2, 3)
        for dim in (1, 2):
            expansion = taylor_expand(from_realization(r), 5, dim=dim)
            _assert_coefficients(expansion, closed_form(r), _words_through(2, 5))

    def test_structure_violation_names_first_word(self):
        # The first covering jet at d = 2, K = 3 follows the chunk 0001 of
        # the de Bruijn sequence 0001011100; (x0 x1)^T puts its block (2, 4)
        # below the diagonal.  The error names the covering jet's word.
        F = NCFunctionHandle(
            2, DomainDescriptor.polydisk(math.inf), lambda x: np.swapaxes(x[0] @ x[1], -1, -2)
        )
        for dim in (1, 2):
            with pytest.raises(ExtractionError) as err:
                taylor_expand(F, 3, dim=dim)
            assert err.value.word == (0, 0, 0, 1)
            assert "structure violated" in str(err.value)

    def test_non_scalar_extraction_names_word(self):
        F = NCFunctionHandle(1, DomainDescriptor.polydisk(math.inf), rescaling)
        with pytest.raises(NonScalarResultError) as err:
            taylor_expand(F, 3, dim=2)
        assert err.value.word == (0,)

    def test_first_non_scalar_word_beats_a_later_structure_violation(self):
        # At d = 2, K = 4 and dim = 2 the covering jets follow 000010, 010011,
        # 011010, 010111, 111100 and 111000 in blocks of two: the first block
        # holds jet 0, where rescaling x0 makes (0,) non-scalar, and the
        # second block jets 2-3, where (x1 x1 x1)^T breaks the structure first
        # in jet 3.  Every read of the first block is checked before the
        # second block's error leaves.
        def transposed(x):
            return np.swapaxes(x[1] @ x[1] @ x[1], -1, -2)

        assert JET_BLOCK_BYTES // (16 * 2 * (7 * 2) ** 2) == 2
        domain = DomainDescriptor.polydisk(math.inf)
        broken = NCFunctionHandle(2, domain, transposed)
        with pytest.raises(ExtractionError, match="structure violated") as err:
            taylor_expand(broken, 4, dim=2)
        assert err.value.word == (0, 1, 0, 1, 1, 1)
        both = NCFunctionHandle(2, domain, lambda x: rescaling(x) + transposed(x))
        with pytest.raises(NonScalarResultError) as err:
            taylor_expand(both, 4, dim=2)
        assert err.value.word == (0,)


def per_word_reference(F, maxdeg, dim=1):
    """Coefficient and residual of every word through ``maxdeg``, one lone
    delta_k call per word."""
    d = F.arity
    zero = MatrixTuple.zeros(d, dim)
    units = [unit_direction(d, j, dim) for j in range(d)]
    v0 = F.eval(zero)
    out = {(): scalar_part(v0)}
    for k in range(1, maxdeg + 1):
        for w in itertools.product(range(d), repeat=k):
            bases, dirs = [zero] * (k + 1), [units[j] for j in w]
            res = delta_k(F, bases, dirs, base_values=[v0] * (k + 1))
            out[w] = scalar_part(res.delta)
    return out


class TestBlockedExtraction:
    """Blocks of words give what one lone jet per word gives."""

    def test_polynomials_bit_for_bit(self):
        rng = rng_for(90)
        for d, maxdeg, dim in ((3, 5, 1), (2, 4, 2), (1, 6, 3)):
            F = from_poly(random_poly(rng, d, maxdeg, nterms=30))
            expansion = taylor_expand(F, maxdeg, dim=dim)
            got = expansion.as_poly()
            for w, (c, resid) in per_word_reference(F, maxdeg, dim).items():
                assert expansion.residuals[w] == resid, w
                assert got.coefficient(w) == (c if abs(c) > 1e-12 else 0), w

    @pytest.mark.parametrize(
        "F, reference",
        [closed_form_case(random_isometric_realization(rng_for(91), 2, 3)),
         closed_form_case(random_rowball_realization(rng_for(92), 2, 2)),
         rowball_series_case()],
        ids=["polydisk realization", "rowball realization", "rowball series"],
    )
    def test_bounded_domains_to_roundoff(self, F, reference):
        for dim in (1, 2):
            expansion = taylor_expand(F, 4, dim=dim)
            got = expansion.as_poly()
            for w in _words_through(2, 4):
                c = reference(w)
                assert abs(got.coefficient(w) - c) <= 1e-15 * max(1.0, abs(c)), w

    @pytest.mark.parametrize("d, k", [(1, 4), (2, 3), (3, 4)])
    def test_every_shorter_word_has_one_owner(self, d, k):
        # Each word is read once, at its first occurrence in reading order.
        cover = ncfuncalc.taylor._cover(d, k)
        assert cover.words == tuple(_words_through(d, k)[1:])
        assert all(not a.flags.writeable for a in cover[:-2])
        assert sorted(cover.index.tolist()) == list(range(len(cover.words)))
        assert cover.read == tuple(cover.words[n] for n in cover.index.tolist())
        reads = list(zip(cover.jet.tolist(), cover.start.tolist(), cover.stop.tolist()))
        assert reads == sorted(reads, key=lambda r: (r[0], r[1], r[2] - r[1]))
        chunks = cover.letters.tolist()
        for (t, i, j), n in zip(reads, cover.index.tolist()):
            w = cover.words[n]
            earlier = [
                (u, a) for u, chunk in enumerate(chunks[: t + 1])
                for a in range(len(chunk) - len(w) + 1)
                if tuple(chunk[a : a + len(w)]) == w and (u, a) < (t, i)
            ]
            assert not earlier, w

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_word_of_length_k_is_one_window(self, d, k):
        seq = ncfuncalc.taylor._de_bruijn(d, k)
        windows = [tuple(seq[i : i + k]) for i in range(len(seq) - k + 1)]
        assert len(seq) == d**k + k - 1
        assert sorted(windows) == list(itertools.product(range(d), repeat=k))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_word_is_read_where_its_letters_are(self, d, k):
        cover = ncfuncalc.taylor._cover(d, k)
        assert len(cover.index) == len(cover.words)
        for t, i, j, n in zip(cover.jet, cover.start, cover.stop, cover.index):
            assert tuple(cover.letters[t, i:j].tolist()) == cover.words[n]

    def test_covering_jet_counts(self):
        # d = 1 takes one jet of length K; d = 3, K = 5 takes 61 of length 8.
        for k in range(1, 7):
            assert ncfuncalc.taylor._cover(1, k).letters.tolist() == [[0] * k]
        assert ncfuncalc.taylor._cover(3, 5).letters.shape == (61, 8)

    def test_blocks_of_one_word_give_the_same_bits(self, monkeypatch):
        F = from_realization(random_isometric_realization(rng_for(93), 2, 2))
        p = from_poly(random_poly(rng_for(94), 3, 4, nterms=30))
        default = [taylor_expand(G, 4) for G in (F, p)]
        monkeypatch.setattr(ncfuncalc.taylor, "JET_BLOCK_BYTES", 1)
        for G, expected in zip((F, p), default):
            single = taylor_expand(G, 4)
            assert single.as_poly().terms == expected.as_poly().terms
            assert single.residuals == expected.residuals

    def test_memory_of_one_expansion(self):
        # One d=3, degree-5, 40-term expansion: blocks of words keep the jets
        # small; whole word lengths at once would take about 12 MiB.
        F = from_poly(random_poly(rng_for(95), 3, 5, nterms=40))
        tracemalloc.start()
        try:
            taylor_expand(F, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_transient_peak_of_a_benchmark_sized_expansion(self):
        # A polynomial shaped like the taylor-poly benchmark's: 1, 2, 3, 6, 10
        # and 18 words of length 0 to 5.  With blocks of 9 jets and dense prefix
        # products this expansion peaked at 390 KiB (numpy 2.4); the bound is
        # 1.15 times that, so a block size or product layout that grows the
        # peak fails here before it shows in the benchmark's peak RSS.  Blocks
        # of 4 covering jets, whose live products fill zero arrays of every
        # prefix, read 393 KiB.
        rng = rng_for(97)
        terms = {}
        for k, count in enumerate((1, 2, 3, 6, 10, 18)):
            words = list(itertools.product(range(3), repeat=k))
            for i in rng.choice(len(words), size=count, replace=False):
                terms[words[i]] = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        F = from_poly(FreePoly(3, terms))
        taylor_expand(F, 5)  # builds the cached level and word tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            taylor_expand(F, 5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * 390 * 2**10

    def test_transient_peak_of_a_cli_sized_realization_expansion(self):
        # d = 2, m = 3 to degree 6, the size of the cli workload's expand.
        # Jets of prefixes of the 64 top-length words peaked at 1,004 KiB;
        # covering jets read about 570 KiB.
        F = from_realization(random_isometric_realization(rng_for(58), 2, 3))
        taylor_expand(F, 6)  # builds the cached covering table
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            taylor_expand(F, 6)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1004 * 2**10

    def test_expansions_share_word_keys(self):
        rng = rng_for(96)
        a, b = (taylor_expand(from_poly(random_poly(rng, 2, 3, nterms=14)), 3) for _ in range(2))
        a, b = a.as_poly(), b.as_poly()
        keys_a = {w: w for w in a.terms}
        shared = [w for w in b.terms if w in keys_a]
        assert shared and all(keys_a[w] is w for w in shared)


class TestTailBound:
    def test_formula_value(self):
        # rho = 1/2, so the tail bound is M * rho^{K+1} / (1 - rho) = 1.0.
        assert tail_bound(1.0, 3.0, 0) == pytest.approx(1.0)
        assert tail_bound(2.0, 3.0, 2) == pytest.approx(2.0 * 0.5**3 / 0.5)

    def test_monotone_decay_to_zero(self):
        values = [tail_bound(1.0, 2.0, k) for k in range(0, 40, 5)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-5

    def test_r_must_exceed_one(self):
        with pytest.raises(ValueError):
            tail_bound(1.0, 1.0, 3)

    @pytest.mark.parametrize("M", [-1.0, math.nan])
    def test_circle_bound_must_be_nonnegative(self, M):
        # M = NaN read nan.
        with pytest.raises(ValueError, match="^the circle bound must be nonnegative$"):
            tail_bound(M, 3.0, 2)

    @pytest.mark.parametrize("K", [-3, 2.5, "2"])
    def test_degree_must_be_a_nonnegative_integer(self, K):
        # K = -3 read 8.0 and K = 2.5 read 0.177.
        with pytest.raises(ValueError, match="^the degree K must be a nonnegative integer"):
            tail_bound(1.0, 3.0, K)

    def test_geometric_truncation_under_bound(self):
        # Closed-form resolvent as an opaque handle; series truncations must
        # land within the bound computed from the sampled circle.
        rng = rng_for(52)
        closed = NCFunctionHandle(
            1,
            DomainDescriptor.polydisk(1.0),
            # x[0] is one n-by-n matrix or a stack of them: the evaluator takes both forms.
        lambda x: np.linalg.inv(np.eye(x[0].shape[-1]) - x[0]),
        )
        x = MatrixTuple([random_matrix(rng, 3, scale=1 / 3)])
        m_hat = circle_norm_estimate(closed, x, 3.0)
        for K in (2, 5, 10):
            series = SeriesFunction([FreePoly(1, {(0,) * k: 1.0}) for k in range(K + 1)], 1.0)
            FK = from_series(series, truncation=K, domain=DomainDescriptor.polydisk(0.5))
            err = operator_norm(closed.eval(x) - FK.eval(x))
            assert err <= tail_bound(m_hat, 3.0, K)

    def test_circle_estimate_is_one_stacked_call(self):
        rng = rng_for(54)
        p = random_poly(rng, 2, 3)
        F, calls = counting_handle(p)
        x = random_tuple(rng, 2, 3)
        m_hat = circle_norm_estimate(F, x, 3.0)
        assert calls == [3]
        # The reference: one lone evaluation per circle point.
        zetas = [2.0 * cmath.exp(2j * math.pi * t / CIRCLE_SAMPLES) for t in range(CIRCLE_SAMPLES)]
        x = components(x)
        assert m_hat == CIRCLE_INFLATE * max(operator_norm(p.evaluate(z * x)) for z in zetas)


    def test_circle_estimate_takes_a_stack(self):
        # The component array of a lone point is a point too.
        x = 0.1 * np.eye(2)[None]
        m_hat = circle_norm_estimate(from_poly(FreePoly.letter(1, 0)), x, 3.0)
        assert isinstance(m_hat, float)
        assert m_hat == pytest.approx(CIRCLE_INFLATE * 2.0 * 0.1, rel=1e-15)
        # A stack gets one estimate per sample, bit for bit its lone estimate,
        # from one stacked call on every sample's circle.
        rng = rng_for(55)
        p = random_poly(rng, 2, 3)
        F, calls = counting_handle(p)
        points = [random_tuple(rng, 2, 3) for _ in range(4)]
        lone = [circle_norm_estimate(F, x, 3.0) for x in points]
        calls.clear()
        stacked = circle_norm_estimate(F, np.stack([components(x) for x in points], axis=1), 3.0)
        assert calls == [3]
        assert stacked.shape == (4,)
        assert stacked.tolist() == lone


class TestEvaluationConsistency:
    def test_realization_partial_sums_within_tail_bound(self):
        a = 0.5
        F = from_realization(mobius_realization(a))
        rng = rng_for(53)
        for _ in range(5):
            x = MatrixTuple([random_matrix(rng, 3, scale=0.3)])
            r = 3.0
            m_hat = circle_norm_estimate(F, x, r)
            expansion = taylor_expand(F, 8)
            for K in (4, 6, 8):
                partial = FreePoly.zero(1)
                for part in expansion.parts[: K + 1]:
                    partial = partial + part
                gap = operator_norm(F.eval(x) - partial.evaluate(x))
                assert gap <= tail_bound(m_hat, r, K)


class TestEdgeCases:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: TaylorExpansion([FreePoly.one(1), FreePoly.letter(2, 0)]).as_poly(),
             "free polynomials of different arity"),
            (lambda: taylor_expand(from_poly(FreePoly.one(1)), -1),
             "maxdeg must be nonnegative"),
            (lambda: circle_norm_estimate(from_poly(FreePoly.one(1)), MatrixTuple.zeros(1, 2), 1.0),
             "the dilation radius must exceed 1"),
        ],
        ids=["parts of two arities", "negative degree", "dilation radius 1"],
    )
    def test_bad_input_is_rejected(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
