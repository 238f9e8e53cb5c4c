"""Delta balls, colligations, transfer functions, and contractivity scans."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ncfuncalc import (
    DomainDescriptor,
    FreePoly,
    MatrixTuple,
    NotIsometricError,
    PolyMatrix,
    Realization,
    ResolventSingularError,
    ScanReport,
    check_isometry,
    contractivity_scan,
    delta_polydisk,
    delta_rowball,
    direct_sum,
    eval_delta,
    eval_realization,
    from_realization,
    identity_realization,
    in_ball,
    inverse,
    mobius_realization,
    operator_norm,
    realization,
    taylor_expand,
)
from ncfuncalc.realization import (
    DOMAIN_CHECK_MARGIN,
    RESCALE_BISECTIONS,
    RESCALE_HALVINGS,
    SCAN_BLOCK_BYTES,
    SCAN_MARGIN,
)

from _helpers import (
    homogeneous_component,
    random_isometric_realization,
    random_matrix,
    random_tuple,
    rng_for,
)


class TestDeltaConstructors:
    def test_single_variable(self):
        for delta in (delta_polydisk(1), delta_rowball(1)):
            assert (delta.rows, delta.cols) == (1, 1)
            assert delta.entries[0][0] == FreePoly.letter(1, 0)

    def test_polydisk_is_diagonal(self):
        delta = delta_polydisk(2)
        assert delta.entries[0][0] == FreePoly.letter(2, 0)
        assert delta.entries[1][1] == FreePoly.letter(2, 1)
        assert delta.entries[0][1].is_zero and delta.entries[1][0].is_zero

    def test_rowball_is_row(self):
        delta = delta_rowball(2)
        assert (delta.rows, delta.cols) == (1, 2)
        assert delta.entries[0] == (FreePoly.letter(2, 0), FreePoly.letter(2, 1))

    def test_degree_of_a_homogeneous_delta(self):
        x0, x1 = FreePoly.letter(2, 0), FreePoly.letter(2, 1)
        zero = FreePoly.zero(2)
        assert delta_polydisk(3).degree() == delta_rowball(3).degree() == 1
        assert PolyMatrix([[x0 * x1, zero], [zero, x1 * x1 - x0 * x1]]).degree() == 2
        assert PolyMatrix([[x0 * x0 * x1]]).degree() == 3
        # Mixed degrees, a constant term, or no nonzero entry: not homogeneous.
        assert PolyMatrix([[x0, x1 * x1]]).degree() is None
        assert PolyMatrix([[x0 * x0 + 0.5]]).degree() is None
        assert PolyMatrix([[FreePoly.constant(2, 0.5)]]).degree() is None
        assert PolyMatrix([[zero]]).degree() is None

    def test_equality_by_entries(self):
        assert delta_rowball(2) == delta_rowball(2)
        assert hash(delta_rowball(2)) == hash(delta_rowball(2))
        assert delta_rowball(2) != delta_polydisk(2)
        assert delta_rowball(2) != delta_rowball(3)
        assert DomainDescriptor.deltaball(delta_rowball(2), 0.1) == DomainDescriptor.deltaball(
            delta_rowball(2), 0.1
        )


class TestEvalDelta:
    def test_polydisk_block_diagonal(self):
        rng = rng_for(60)
        x = random_tuple(rng, 2, 3)
        block = eval_delta(delta_polydisk(2), x)
        np.testing.assert_allclose(block[:3, :3], x[0])
        np.testing.assert_allclose(block[3:, 3:], x[1])
        np.testing.assert_allclose(block[:3, 3:], 0)

    def test_rowball_gram_identity(self):
        rng = rng_for(61)
        x = random_tuple(rng, 3, 2)
        row = eval_delta(delta_rowball(3), x)
        gram = row @ row.conj().T
        expected = sum(c @ c.conj().T for c in x.components)
        np.testing.assert_allclose(gram, expected, atol=1e-12)

    def test_zero_tuple(self):
        np.testing.assert_allclose(
            eval_delta(delta_rowball(2), MatrixTuple.zeros(2, 2)), np.zeros((2, 4))
        )

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            eval_delta(delta_polydisk(2), MatrixTuple.zeros(3, 2))


class TestBallAndExhaustion:
    def test_zero_always_inside(self):
        delta = delta_polydisk(1)
        zero = MatrixTuple.zeros(1, 2)
        assert in_ball(delta, zero)
        for k in (2, 5):
            assert DomainDescriptor.deltaball(delta, 1 / k, norm_cap=k).contains(zero)

    def test_margin(self):
        delta = delta_polydisk(1)
        x = MatrixTuple.from_scalars([0.9], 1)
        assert in_ball(delta, x, 0.0)
        assert not in_ball(delta, x, 0.2)
        with pytest.raises(ValueError):
            in_ball(delta, x, 1.0)

    def test_norm_cap_comes_before_the_delta_norm(self):
        # Past the cap the point is outside without evaluating delta, which
        # would overflow here.
        square = PolyMatrix([[FreePoly(1, {(0, 0): 1.0})]])
        ball = DomainDescriptor.deltaball(square, 0.05, norm_cap=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ball.contains(MatrixTuple.from_scalars([1e200], 2)) is False
        assert ball.contains(MatrixTuple.from_scalars([0.5], 2)) is True

    def test_exhaustion_closed_under_direct_sums(self):
        rng = rng_for(67)
        k = 3
        exhaustion = DomainDescriptor.deltaball(delta_polydisk(2), 1 / k, norm_cap=k)
        points = []
        for _ in range(6):
            x = random_tuple(rng, 2, 2, scale=0.5)
            if exhaustion.contains(x):
                points.append(x)
        assert len(points) >= 2
        assert exhaustion.contains(direct_sum(points))

    def test_homogeneous_delta_rescales_to_the_requested_norm(self):
        # ||delta(t u)|| = t^2 ||delta(u)|| for delta = x0^2: a factor read as
        # if it were t^1 lands the sample far inside the requested norm.
        square = PolyMatrix([[FreePoly(1, {(0, 0): 1.0})]])
        ball = DomainDescriptor.deltaball(square, 0.05)
        rng = rng_for(68)
        for _ in range(200):
            x = ball.rescale(random_tuple(rng, 1, 4), 0.9)
            assert operator_norm(eval_delta(square, x)) == pytest.approx(0.9, rel=1e-12)

    def test_affine_delta_rescales_to_the_requested_norm(self):
        # ||delta(t u)|| = ||t u + 0.5 I||: bisection on t lands a sample whose
        # norm at 0 lies below the size at that size, where the factor
        # size / ||delta(u)|| does not.
        affine = PolyMatrix([[FreePoly(1, {(0,): 1.0, (): 0.5})]])
        ball = DomainDescriptor.deltaball(affine, 0.05)
        rng = rng_for(69)
        for _ in range(50):
            x = ball.rescale(random_tuple(rng, 1, 4), 0.9)
            assert operator_norm(eval_delta(affine, x)) == pytest.approx(0.9, rel=1e-12)


class TestIsometry:
    def test_identity_realization_is_permutation_isometry(self):
        assert check_isometry(identity_realization()) <= 1e-15

    def test_mobius_isometry(self):
        for a in (0.5, 0.3 - 0.6j):
            assert check_isometry(mobius_realization(a)) <= 1e-12

    def test_broken_colligation_detected(self):
        r = mobius_realization(0.8)
        bad = Realization(delta=r.delta, m=r.m, A=r.A, B=r.B, C=r.C, D=2.0 * np.asarray(r.D))
        assert check_isometry(bad) >= 1.0


class TestEvalRealization:
    def test_identity_transfer(self):
        rng = rng_for(62)
        F = identity_realization()
        x = random_tuple(rng, 1, 4, scale=0.8)
        np.testing.assert_allclose(eval_realization(F, x), x[0], atol=1e-12)

    def test_mobius_at_zero(self):
        np.testing.assert_allclose(
            eval_realization(mobius_realization(0.5), MatrixTuple.zeros(1, 1)),
            [[-0.5]],
            atol=1e-14,
        )

    def test_singular_resolvent_raises(self):
        # 1 - 0.5 x at x = diag(2, 0.5) is diag(0, 0.75): singular, not zero.
        x = MatrixTuple([np.diag([2.0, 0.5])])
        with pytest.raises(ResolventSingularError):
            eval_realization(mobius_realization(0.5), x)

    def test_mobius_matrix_closed_form(self):
        rng = rng_for(63)
        for a in (0.5, 0.2 + 0.4j):
            r = mobius_realization(a)
            for n in (1, 2, 4, 8):
                x = MatrixTuple([random_matrix(rng, n, scale=rng.uniform(0.2, 0.9))])
                expected = (x[0] - a * np.eye(n)) @ inverse(
                    np.eye(n) - np.conj(a) * x[0]
                )
                np.testing.assert_allclose(eval_realization(r, x), expected, atol=1e-10)

    def test_matches_kronecker_transfer_formula(self):
        # Reference: the transfer formula with every amplification formed as
        # an explicit Kronecker product, on square (polydisk) and
        # non-square (row-ball) delta.
        rng = rng_for(67)
        q = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))[0]
        rowball = Realization(
            delta=delta_rowball(2), m=3, A=q[0, 0], B=q[0:1, 1:4], C=q[1:, 0:1], D=q[1:, 1:4]
        )
        for r in (random_isometric_realization(rng, 2, 3), rowball):
            for n in (1, 2, 4):
                x = random_tuple(rng, 2, n, scale=0.3)
                eye_n = np.eye(n)
                dlt = np.kron(np.eye(r.m), eval_delta(r.delta, x))
                resolvent = np.linalg.inv(np.eye(dlt.shape[1]) - np.kron(r.D, eye_n) @ dlt)
                expected = r.A * eye_n + np.kron(r.B, eye_n) @ dlt @ resolvent @ np.kron(r.C, eye_n)
                np.testing.assert_allclose(eval_realization(r, x), expected, rtol=0, atol=1e-14)

    def test_multivariable_isometric_realization_contractive_pointwise(self):
        rng = rng_for(64)
        r = random_isometric_realization(rng, d=2, m=2)
        assert check_isometry(r) <= 1e-12
        for _ in range(10):
            x = random_tuple(rng, 2, 3, scale=0.6)
            assert operator_norm(eval_realization(r, x)) <= 1.0 + 1e-10

    def test_resolvent_norm_within_neumann_band(self):
        # For an isometric colligation the resolvent norm cannot beat the
        # geometric series estimate by more than roundoff.
        rng = rng_for(65)
        r = random_isometric_realization(rng, d=2, m=1)
        eye = np.eye(r.m * r.delta.cols * 2, dtype=np.complex128)
        for _ in range(10):
            x = random_tuple(rng, 2, 2, scale=0.5)
            dlt = np.kron(np.eye(r.m), eval_delta(r.delta, x))
            norm_delta = operator_norm(eval_delta(r.delta, x))
            resolvent = inverse(eye - np.kron(np.asarray(r.D), np.eye(2)) @ dlt)
            assert operator_norm(resolvent) <= 1.1 / (1.0 - norm_delta)

    def test_taylor_consistency_against_symbolic_neumann(self):
        # Independent oracle: expand the transfer function symbolically as
        # A + sum_t B (I_m x delta) [D (I_m x delta)]^t C over the free algebra
        # and compare homogeneous coefficients with the extracted expansion.
        rng = rng_for(66)
        for r in (
            mobius_realization(0.4 - 0.1j),
            random_isometric_realization(rng, 2, 1),
            random_isometric_realization(rng, 2, 2),
        ):
            d = r.arity
            maxdeg = 4

            def pm_scalar_grid(mat):
                mat = np.asarray(mat)
                return [
                    [FreePoly.constant(d, mat[i, j]) for j in range(mat.shape[1])]
                    for i in range(mat.shape[0])
                ]

            def pm_mul(a, b):
                rows, inner, cols = len(a), len(b), len(b[0])
                assert len(a[0]) == inner
                out = []
                for i in range(rows):
                    row = []
                    for j in range(cols):
                        acc = FreePoly.zero(d)
                        for t in range(inner):
                            acc = acc + a[i][t] * b[t][j]
                        row.append(acc)
                    out.append(row)
                return out

            def pm_kron_eye(m, grid):
                rows, cols = len(grid), len(grid[0])
                zero = FreePoly.zero(d)
                out = [[zero] * (m * cols) for _ in range(m * rows)]
                for mu in range(m):
                    for i in range(rows):
                        for j in range(cols):
                            out[mu * rows + i][mu * cols + j] = grid[i][j]
                return out

            delta_sym = pm_kron_eye(r.m, [list(row) for row in r.delta.entries])
            b_sym = pm_scalar_grid(r.B)
            c_sym = pm_scalar_grid(r.C)
            d_sym = pm_scalar_grid(r.D)

            total = FreePoly.constant(d, r.A)
            term = pm_mul(b_sym, delta_sym)  # 1 x mJ
            power = [[FreePoly.one(d) if i == j else FreePoly.zero(d) for j in range(len(c_sym))] for i in range(len(c_sym))]
            for _ in range(maxdeg + 1):
                total = total + pm_mul(pm_mul(term, power), c_sym)[0][0]
                power = pm_mul(pm_mul(d_sym, delta_sym), power)

            expansion = taylor_expand(from_realization(r), maxdeg)
            symbolic = sum(
                (homogeneous_component(total, k) for k in range(maxdeg + 1)),
                FreePoly.zero(d),
            )
            recovered = expansion.as_poly()
            for w in set(symbolic.terms) | set(recovered.terms):
                assert abs(symbolic.coefficient(w) - recovered.coefficient(w)) <= 1e-8


class TestResolventCertificate:
    """The solve route runs only where ``||D|| ||delta(x)||`` certifies that
    the full inverse would pass its condition test."""

    @pytest.fixture
    def inverse_calls(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(np.shape(a))
            return inverse(a)

        monkeypatch.setattr(realization, "inverse", counted)
        return calls

    @pytest.mark.parametrize("scale, inverted", [(0.5, 0), (2.5, 1)])
    def test_mobius_closed_form_on_both_routes(self, inverse_calls, scale, inverted):
        # q = 0.5 * scale: 0.25 takes the solve, 1.25 the inverse.
        a = 0.5
        x = MatrixTuple.from_scalars([scale], 2)
        expected = (x[0] - a * np.eye(2)) @ np.linalg.inv(np.eye(2) - np.conj(a) * x[0])
        np.testing.assert_allclose(
            eval_realization(mobius_realization(a), x), expected, rtol=1e-14, atol=1e-14
        )
        assert len(inverse_calls) == inverted

    def test_mobius_closed_form_at_a_non_normal_point(self, inverse_calls):
        # The resolvent 1 - conj(a) x is neither symmetric nor normal, so a
        # solve against the rows of C (x) 1 instead of its columns would
        # return a transposed value.
        a = 0.3 - 0.6j
        x = MatrixTuple([np.array([[0.1, 0.4 + 0.2j], [-0.05j, 0.2]])])
        expected = (x[0] - a * np.eye(2)) @ np.linalg.inv(np.eye(2) - np.conj(a) * x[0])
        np.testing.assert_allclose(
            eval_realization(mobius_realization(a), x), expected, rtol=1e-14, atol=1e-14
        )
        assert inverse_calls == []

    def test_solve_reads_the_columns_of_c_on_every_numpy(self, monkeypatch):
        # numpy 1.x reads a right-hand side with one axis fewer than the
        # stack of matrices as a stack of vectors; equal ranks mean matrices
        # on every numpy version.
        solve = np.linalg.solve
        ranks = []

        def checked(a, b):
            ranks.append((np.ndim(a), np.ndim(b)))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked)
        eval_realization(mobius_realization(0.5), MatrixTuple.from_scalars([0.5], 2))
        contractivity_scan(SCAN_CASES["polydisk"](), 2, 5, seed=3)
        assert ranks and all(ra == rb for ra, rb in ranks)

    @pytest.mark.parametrize(
        "diagonal", [(2 * (1 - 1e-13), 0.5), (2 * (1 - 1.5e-12), -2 * (1 - 1.5e-12))]
    )
    def test_near_singular_below_q_one_still_raises(self, inverse_calls, diagonal):
        # q = 1 - 1e-13 and 1 - 1.5e-12, both below 1, yet the resolvents
        # diag(1e-13, 0.75) and diag(1.5e-12, 2 - 1.5e-12) have reciprocal
        # condition ~1.3e-13 and ~7.5e-13, at most 1e-12.  A bare q < 1 rule,
        # or 1 - q > 1e-12, would solve them and return a huge value.
        x = MatrixTuple([np.diag(diagonal)])
        with pytest.raises(ResolventSingularError):
            eval_realization(mobius_realization(0.5), x)
        assert len(inverse_calls) == 1

    def test_isometric_scan_never_inverts(self, inverse_calls):
        r = random_isometric_realization(rng_for(91), 2, 3)
        assert contractivity_scan(r, 4, 20, seed=4).passed
        assert inverse_calls == []
        eval_realization(r, MatrixTuple.from_scalars([2.5, 2.5], 4))
        assert inverse_calls == [(24, 24)]

    def test_scan_memory_stays_per_sample(self):
        # One block of resolvents at a time, within SCAN_BLOCK_BYTES: a scan
        # that stacked all 40 samples' 96x96 resolvents would peak near 15 MB.
        r = random_isometric_realization(rng_for(92), 2, 3)
        contractivity_scan(r, 16, 2, seed=1)  # warm numpy's lazy set-up
        tracemalloc.start()
        try:
            contractivity_scan(r, 16, 40, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def kronecker_transfer(r, x):
    """The transfer formula with every Kronecker product formed and one 2-d
    solve: A + (B (x) 1)(1 (x) delta(x)) (1 - (D (x) 1)(1 (x) delta(x)))^{-1} (C (x) 1)."""
    n = x.dim
    lifted = np.kron(np.eye(r.m), eval_delta(r.delta, x))
    k = np.kron(r.D, np.eye(n)) @ lifted
    resolvent_c = np.linalg.solve(np.eye(k.shape[0]) - k, np.kron(r.C, np.eye(n)))
    return r.A * np.eye(n) + np.kron(r.B, np.eye(n)) @ lifted @ resolvent_c


def reference_scan(r, n, samples, seed):
    """The scan one sample at a time, on 2-d numpy calls only: scale the
    direction to its size, halve it until ``||delta(x)||`` is inside the
    ball, evaluate the Kronecker formula, take the norm.  Returns the report
    and the number of samples that needed a halving.

    The scale is the p-th root of the ratio for a delta of degree p.  For a
    delta that is not homogeneous it is the bisection of ``||delta(t u)|| =
    size`` between 0 and the ratio, doubled until its norm reaches the size;
    a sample whose norm at 0 is not below the size keeps the ratio."""
    bound = 1.0 - SCAN_MARGIN
    d, p = r.arity, r.delta.degree()

    def delta_norm(x):
        return float(np.linalg.norm(eval_delta(r.delta, x), 2))

    def scale(u, size):
        ratio = size / delta_norm(u)
        if p is not None:
            return ratio ** (1.0 / p)
        if not delta_norm(0.0 * u) < size:
            return ratio
        lo, hi = 0.0, ratio
        for _ in range(RESCALE_HALVINGS):
            if delta_norm(hi * u) >= size:
                break
            hi *= 2.0
        if delta_norm(hi * u) < size:
            return ratio
        for _ in range(RESCALE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if delta_norm(mid * u) <= size else (lo, mid)
        return lo

    max_norm, halved = 0.0, 0
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        u = MatrixTuple(
            [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d)]
        )
        size = bound * rng.uniform() ** ((p or 1) / (2 * d * n * n))
        x = scale(u, size) * u
        halved += not delta_norm(x) < bound - DOMAIN_CHECK_MARGIN
        while not delta_norm(x) < bound - DOMAIN_CHECK_MARGIN:
            x = 0.5 * x
        ball = DomainDescriptor.deltaball(r.delta, SCAN_MARGIN)
        assert all(np.array_equal(a, b) for a, b in zip(ball.rescale(u, size), x))
        max_norm = max(max_norm, np.linalg.norm(kronecker_transfer(r, x), 2))
    return ScanReport(dim=n, samples=samples, max_norm=max_norm, seed=seed), halved


def assert_same_report(report, expected):
    """Equal reports up to roundoff in ``max_norm``."""
    assert report.as_dict() == {**expected.as_dict(), "max_norm": report.max_norm}
    assert report.max_norm == pytest.approx(expected.max_norm, rel=1e-13)


def scalar_delta_realization(terms):
    """x -> delta(x) over the ball ||delta(x)|| < 1, for the 1 x 1 delta with
    these terms (permutation colligation)."""
    delta = PolyMatrix([[FreePoly(1, terms)]])
    return Realization(
        delta=delta, m=1, A=0.0, B=np.array([[1.0]]), C=np.array([[1.0]]), D=np.array([[0.0]])
    )


def quadratic_realization():
    """x -> x0^2 over the ball ||x0^2|| < 1: delta of degree 2."""
    return scalar_delta_realization({(0, 0): 1.0})


def affine_realization():
    """x -> x0 + 0.5 over the ball ||x0 + 0.5|| < 1: not homogeneous."""
    return scalar_delta_realization({(0,): 1.0, (): 0.5})


def offset_realization():
    """x -> x0 + 0.9 over the ball ||x0 + 0.9|| < 1: not homogeneous, and 0
    lies close to the boundary of the scan's ball."""
    return scalar_delta_realization({(0,): 1.0, (): 0.9})


def rowball_realization(rng, d=2, m=3):
    """An isometric colligation over the row ball: the first 1 + m columns
    of a (1 + m d)-square unitary."""
    g = rng.standard_normal((1 + m * d,) * 2) + 1j * rng.standard_normal((1 + m * d,) * 2)
    v = np.linalg.qr(g)[0][:, : 1 + m]
    return Realization(
        delta=delta_rowball(d), m=m, A=v[0, 0], B=v[0:1, 1:], C=v[1:, 0:1], D=v[1:, 1:]
    )


def repeated_letter_realization():
    """An isometric colligation over the ball ||[x0 x0]|| < 1: the row-ball
    colligation with both entries of delta read as x0 (degree 1, d = 1)."""
    r = rowball_realization(rng_for(96))
    x0 = FreePoly.letter(1, 0)
    return Realization(delta=PolyMatrix([[x0, x0]]), m=r.m, A=r.A, B=r.B, C=r.C, D=r.D)


SCAN_CASES = {
    "polydisk": lambda: random_isometric_realization(rng_for(94), 2, 3),
    "rowball": lambda: rowball_realization(rng_for(95)),
    "repeated": repeated_letter_realization,
    "mobius": lambda: mobius_realization(0.3 - 0.6j),
    "identity": identity_realization,
    "quadratic": quadratic_realization,
    "affine": affine_realization,
    "offset": offset_realization,
}


class TestStackedScan:
    """The scan in blocks gives the report of a scan one sample at a time."""

    @pytest.fixture
    def batches(self, monkeypatch):
        sizes = []
        transfer = realization._transfer

        def recording(r, delta_x, delta_norms):
            sizes.append(delta_x.shape[0])
            return transfer(r, delta_x, delta_norms)

        monkeypatch.setattr(realization, "_transfer", recording)
        return sizes

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    @pytest.mark.parametrize("n, samples", [(1, 2), (1, 41), (16, 2), (16, 41)])
    def test_matches_per_sample_reference(self, name, n, samples):
        r = SCAN_CASES[name]()
        expected, _ = reference_scan(r, n, samples, seed=n + samples)
        assert_same_report(contractivity_scan(r, n, samples, seed=n + samples), expected)

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_blocks_of_one_give_the_same_bits(self, name, monkeypatch, batches):
        r = SCAN_CASES[name]()
        blocked = contractivity_scan(r, 16, 9, seed=8)
        assert max(batches) > 1
        monkeypatch.setattr(realization, "SCAN_BLOCK_BYTES", 0)
        batches.clear()
        assert contractivity_scan(r, 16, 9, seed=8).as_dict() == blocked.as_dict()
        assert batches == [1] * 9

    @pytest.fixture
    def delta_calls(self, monkeypatch):
        """The number of samples in each stack that ``eval_delta`` measures."""
        calls = []
        eval_stack = realization.eval_delta

        def counted(delta, comps):
            calls.append(comps.shape[1])
            return eval_stack(delta, comps)

        monkeypatch.setattr(realization, "eval_delta", counted)
        return calls

    @pytest.mark.parametrize("name", ["polydisk", "rowball", "repeated"])
    def test_delta_is_evaluated_once_per_block(self, name, batches, delta_calls):
        # On the directions only: a homogeneous ball reads ||delta(x)|| and
        # delta(x) off ||delta(u)|| and delta(u) for the membership test, the
        # certificate and the transfer step alike.
        contractivity_scan(SCAN_CASES[name](), 16, 41, seed=1)
        assert delta_calls == batches

    @pytest.mark.parametrize("name", ["polydisk", "rowball", "repeated"])
    def test_two_norm_passes_per_block(self, name, monkeypatch, batches):
        # Per block, ||delta(u)|| and the values' norms; per scan, the
        # isometry residual and ||D||.
        r = SCAN_CASES[name]()
        calls = []
        norm = realization.operator_norm

        def counted(a):
            calls.append(np.shape(a))
            return norm(a)

        monkeypatch.setattr(realization, "operator_norm", counted)
        contractivity_scan(r, 16, 41, seed=1)
        assert len(calls) == 2 * len(batches) + 2

    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("case", ["polydisk", "rowball", "repeated", "quadratic", "norm-balls"])
    def test_rescale_reads_the_gauge_off_the_direction(self, case, n):
        # The gauges and delta(x) that a homogeneous ball derives from u are
        # the ones x itself gives, through halvings too (sizes up to 3 bound).
        if case == "norm-balls":
            domains = [DomainDescriptor.polydisk(0.9), DomainDescriptor.rowball(0.9)]
            d = 2
        else:
            r = SCAN_CASES[case]()
            domains = [DomainDescriptor.deltaball(r.delta, SCAN_MARGIN)]
            d = r.arity
        rng = rng_for(97)
        for ball in domains:
            u = rng.standard_normal((d, 7, n, n)) + 1j * rng.standard_normal((d, 7, n, n))
            sizes = ball.bound * np.array([0.1, 0.5, 0.9, 0.999, 1.2, 2.0, 3.0])
            x, gauges, values = ball._rescale(u, sizes)
            measured, measured_values = ball._gauges(x)
            np.testing.assert_allclose(gauges, measured, rtol=1e-14, atol=0)
            assert np.all(ball._inside(measured))
            if ball.kind != "deltaball":
                assert values is None and measured_values is None
            elif ball.delta.degree() == 1:
                assert np.array_equal(values, eval_delta(ball.delta, x))
            else:
                expected = eval_delta(ball.delta, x)
                np.testing.assert_allclose(
                    values, expected, rtol=0, atol=1e-14 * np.max(np.abs(expected))
                )

    def test_affine_delta_halves_inside_a_block(self, batches, delta_calls):
        # ||delta(t u)|| = ||t u + c|| is not t ||delta(u)||.  A sample whose
        # norm at 0 lies below its size is sized by bisection and lands inside:
        # on x0 + 0.5 no sample of 41 is halved.  The others keep the factor
        # size / ||delta(u)||; on x0 + 0.9 some land outside, and the first
        # halving measures again exactly the samples that the per-sample
        # reference halves.
        for r, halvings in ((affine_realization(), False), (offset_realization(), True)):
            expected, halved = reference_scan(r, 1, 41, seed=5)
            assert (halved > 0) == halvings
            delta_calls.clear()
            batches.clear()
            assert_same_report(contractivity_scan(r, 1, 41, seed=5), expected)
            assert batches == [41]
            # The last full-block call measures x; a halving comes right after it.
            after_x = len(delta_calls) - delta_calls[::-1].index(41)
            assert delta_calls[after_x:after_x + 1] == ([halved] if halvings else [])

    def test_blocks_split_at_the_byte_budget(self, batches):
        # N = m J n = 96: four 96x96 resolvents per block, and a last block of 1.
        r = SCAN_CASES["polydisk"]()
        contractivity_scan(r, 16, 41, seed=1)
        block = SCAN_BLOCK_BYTES // (16 * 96**2)
        assert batches == [block] * (41 // block) + [41 % block]

    def test_resolvent_above_the_budget_scans_one_sample_per_block(self, batches):
        r = SCAN_CASES["polydisk"]()
        n = 36  # N = 216 > sqrt(SCAN_BLOCK_BYTES / 16)
        assert 16 * (r.m * r.delta.cols * n) ** 2 > SCAN_BLOCK_BYTES
        expected, _ = reference_scan(r, n, 3, seed=2)
        assert_same_report(contractivity_scan(r, n, 3, seed=2), expected)
        assert batches == [1, 1, 1]


class TestContractivityScan:
    def test_mobius_scan_passes(self):
        report = contractivity_scan(mobius_realization(0.5), 4, 200, seed=5)
        assert report.passed and report.collected == report.draws == 200
        assert report.max_norm <= 1.0 + 1e-8

    def test_identity_scan_passes(self):
        report = contractivity_scan(identity_realization(), 2, 100, seed=6)
        assert report.passed
        assert report.max_norm < 1.0

    def test_deterministic_reports(self):
        a = contractivity_scan(mobius_realization(0.3), 3, 50, seed=9)
        b = contractivity_scan(mobius_realization(0.3), 3, 50, seed=9)
        assert a.as_dict() == b.as_dict()

    def test_non_isometric_rejected(self):
        r = mobius_realization(0.5)
        bad = Realization(delta=r.delta, m=r.m, A=r.A, B=r.B, C=r.C, D=2.0 * np.asarray(r.D))
        with pytest.raises(NotIsometricError):
            contractivity_scan(bad, 2, 10, seed=0)

    def test_rowball_scan_at_n16_passes(self):
        report = contractivity_scan(rowball_realization(rng_for(83)), 16, 40, seed=3)
        assert report.passed
        assert report.collected == report.draws == 40

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_quadratic_scan_reaches_the_boundary(self, n):
        # Samples follow the radial law of ||delta|| = ||x0||^2 itself, so the
        # largest of 200 comes near the bound 0.95 at every dimension.
        report = contractivity_scan(quadratic_realization(), n, 200, seed=3)
        assert 0.9 < report.max_norm < 1 - SCAN_MARGIN

    @pytest.mark.parametrize("n", [0, -1])
    def test_dimension_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            contractivity_scan(mobius_realization(0.5), n, 10, seed=0)

    def test_ball_excluding_zero_starves(self):
        from ncfuncalc import PolyMatrix, SamplerStarvationError

        # ||x0 + 2|| < 0.95 holds near -2 only; halving toward 0 never enters.
        shifted = PolyMatrix([[FreePoly.letter(1, 0) + FreePoly.constant(1, 2.0)]])
        r = Realization(
            delta=shifted, m=1, A=0.0, B=np.array([[1.0]]), C=np.array([[1.0]]), D=np.array([[0.0]])
        )
        with pytest.raises(SamplerStarvationError):
            contractivity_scan(r, 2, 10, seed=0)


class TestRealizationValidation:
    def test_shape_checks(self):
        delta = delta_polydisk(2)
        with pytest.raises(ValueError):
            Realization(delta=delta, m=1, A=0.0, B=np.ones((1, 3)), C=np.ones((2, 1)), D=np.eye(2))
        with pytest.raises(ValueError):
            Realization(delta=delta, m=0, A=0.0, B=np.ones((1, 2)), C=np.ones((2, 1)), D=np.eye(2))

    def test_mobius_parameter_check(self):
        with pytest.raises(ValueError):
            mobius_realization(1.0)
