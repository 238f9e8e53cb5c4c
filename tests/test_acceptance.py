"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here and matches the library defaults.
"""

import math
import time

import numpy as np

from ncfuncalc import (
    DomainDescriptor,
    FreePoly,
    MatrixTuple,
    NCFunctionHandle,
    SeriesFunction,
    check_delta_structure,
    check_direct_sum,
    check_intertwining,
    check_isometry,
    check_symmetry,
    check_unipotent_converse,
    circle_norm_estimate,
    contractivity_scan,
    control_handle,
    delta_k,
    dk_fd,
    eval_realization,
    from_poly,
    from_realization,
    from_series,
    inverse,
    mobius_realization,
    operator_norm,
    recover_klinear,
    run_suite,
    tail_bound,
    taylor_expand,
)

from _helpers import (
    components,
    random_isometric_realization,
    random_matrix,
    random_poly,
    random_tuple,
    rng_for,
    stack_tuples,
)


def report(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number} ({name}): {detail} [{time.time() - started:.1f}s]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_taylor_round_trip():
    started = time.time()
    rng = rng_for(20260801)
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(1, 4))
        p = random_poly(rng, d, 4, nterms=int(rng.integers(3, 10)))
        # Alternate between an entire handle (unit jet scale) and a unit-ball
        # handle, where extraction rescales the directions and corrects back.
        domain = DomainDescriptor.polydisk(1.0) if trial % 2 else None
        expansion = taylor_expand(from_poly(p, domain), 4)
        recovered = expansion.as_poly()
        for w in set(p.terms) | set(recovered.terms):
            worst = max(worst, abs(recovered.coefficient(w) - p.coefficient(w)))
    report(
        1,
        "taylor round-trip",
        worst <= 1e-8,
        f"200 polynomials, worst coefficient error {worst:.3e} <= 1e-8",
        started,
    )


def test_criterion_2_toeplitz_finite_difference_identity():
    started = time.time()
    rng = rng_for(20260802)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(1, 3))
        F = from_poly(random_poly(rng, d, 4))
        n = int(rng.integers(1, 4))
        x = random_tuple(rng, d, n)
        h = random_tuple(rng, d, n)
        for k in (1, 2, 3):
            for lam in (1.0, 0.5, 0.1):
                xs = [components(x) + (j * lam) * components(h) for j in range(k + 1)]
                lhs = math.factorial(k) * delta_k(F, xs, [h] * k).delta
                rhs = dk_fd(F, x, h, k, lam)
                gap = float(np.linalg.norm(lhs - rhs)) / max(
                    1e-10, float(np.linalg.norm(rhs))
                )
                worst = max(worst, gap)
    report(
        2,
        "Toeplitz finite-difference identity",
        worst <= 1e-8,
        f"100 trials, k<=3, lam in {{1, 0.5, 0.1}}, worst relative gap {worst:.3e} <= 1e-8",
        started,
    )


def test_criterion_3_bidiagonal_structure():
    started = time.time()
    rng = rng_for(20260803)
    handles = [
        ("poly", from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0)), 0.45),
        ("mobius", from_realization(mobius_realization(0.5)), 0.4),
        ("isometric", from_realization(random_isometric_realization(rng, 2, 1)), 0.3),
    ]
    worst = 0.0
    for _, F, scale in handles:
        d = F.arity
        for k in (1, 2, 3):
            for n in (2, 4):
                xs = [random_tuple(rng, d, n, scale=scale) for _ in range(k + 1)]
                hs = [random_tuple(rng, d, n) for _ in range(k)]
                rep = check_delta_structure(F, xs, hs)
                worst = max(worst, rep.worst_residual)
    report(
        3,
        "bidiagonal block structure",
        worst <= 1e-8,
        f"poly+realization handles, k<=3, n<=4, worst block mismatch {worst:.3e} <= 1e-8",
        started,
    )


def test_criterion_4_derivative_symmetry():
    started = time.time()
    rng = rng_for(20260804)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(1, 3))
        F = from_poly(random_poly(rng, d, 4))
        n = int(rng.integers(1, 3))
        x = random_tuple(rng, d, n)
        hs = [random_tuple(rng, d, n) for _ in range(3)]
        rep = check_symmetry(F, x, hs)
        worst = max(worst, rep.worst_residual)
    report(
        4,
        "derivative symmetry",
        worst <= 1e-8,
        f"50 trials, all 3! permutations, worst spread {worst:.3e} <= 1e-8",
        started,
    )


def test_criterion_5_nc_axioms_and_negative_controls():
    started = time.time()
    rng = rng_for(20260805)
    F = from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0))
    mob = from_realization(mobius_realization(0.4 + 0.2j))

    worst_dsum = 0.0
    worst_sim = 0.0
    worst_uni = 0.0
    for handle, scale in ((F, 0.45), (mob, 0.4)):
        d = handle.arity
        for _ in range(10):
            xs = [random_tuple(rng, d, 2, scale=scale), random_tuple(rng, d, 3, scale=scale)]
            worst_dsum = max(worst_dsum, check_direct_sum(handle, xs).worst_residual)
            x = random_tuple(rng, d, 3, scale=scale)
            s = np.eye(3) + 0.1 * random_matrix(rng, 3)
            cond = operator_norm(s) * operator_norm(inverse(s))
            rep = check_intertwining(handle, x, s, s @ components(x) @ inverse(s))
            worst_sim = max(worst_sim, rep.worst_residual / cond)
            y = random_tuple(rng, d, 3, scale=scale)
            l = 0.2 * random_matrix(rng, 3)
            worst_uni = max(worst_uni, check_unipotent_converse(handle, x, y, l).worst_residual)

    # Negative controls: each axiom check must reject its broken handle.
    corner = control_handle("fixed-corner", 1)
    conj = control_handle("entrywise-conjugation", 1)
    corner_fails = not check_direct_sum(
        corner, [random_tuple(rng, 1, 2), random_tuple(rng, 1, 3)]
    ).passed
    x = random_tuple(rng, 1, 3)
    s = np.eye(3) + 0.1 * random_matrix(rng, 3)
    conj_fails_sim = not check_intertwining(conj, x, s, s @ components(x) @ inverse(s)).passed
    conj_fails_uni = not check_unipotent_converse(
        conj, x, random_tuple(rng, 1, 3), 0.2 * random_matrix(rng, 3)
    ).passed

    ok = (
        worst_dsum <= 1e-9
        and worst_sim <= 1e-7
        and worst_uni <= 1e-8
        and corner_fails
        and conj_fails_sim
        and conj_fails_uni
    )
    report(
        5,
        "NC axioms",
        ok,
        (
            f"direct-sum {worst_dsum:.2e}<=1e-9, similarity {worst_sim:.2e}<=1e-7, "
            f"unipotent {worst_uni:.2e}<=1e-8, controls rejected "
            f"{corner_fails and conj_fails_sim and conj_fails_uni}"
        ),
        started,
    )


def test_criterion_6_mobius_realization_closed_form():
    started = time.time()
    rng = rng_for(20260806)
    worst = 0.0
    worst_iso = 0.0
    for a in (0.5, 0.3 - 0.55j):
        r = mobius_realization(a)
        worst_iso = max(worst_iso, check_isometry(r))
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x = MatrixTuple([random_matrix(rng, n, scale=float(rng.uniform(0.1, 0.97)))])
            expected = (x[0] - a * np.eye(n)) @ inverse(np.eye(n) - np.conj(a) * x[0])
            worst = max(worst, float(np.abs(eval_realization(r, x) - expected).max()))
    report(
        6,
        "Moebius realization",
        worst <= 1e-10 and worst_iso <= 1e-12,
        f"100 contractive points n<=8, worst closed-form gap {worst:.3e} <= 1e-10, "
        f"isometry residual {worst_iso:.3e} <= 1e-12",
        started,
    )


def test_criterion_7_contractivity_scans():
    started = time.time()
    rng = rng_for(20260807)
    colligations = [
        ("mobius", mobius_realization(0.5)),
        ("isometric-d2-m2", random_isometric_realization(rng, 2, 2)),
    ]
    worst = 0.0
    all_pass = True
    for _, r in colligations:
        for n in (1, 2, 4, 8):
            rep = contractivity_scan(r, n, 200, seed=20260807 + n)
            worst = max(worst, rep.max_norm)
            all_pass = all_pass and rep.passed
    report(
        7,
        "contractivity",
        all_pass and worst <= 1.0 + 1e-8,
        f"200-sample scans at n in {{1,2,4,8}}, max norm {worst:.12f} <= 1 + 1e-8",
        started,
    )


def test_criterion_8_cauchy_tail_bound():
    started = time.time()
    rng = rng_for(20260809)
    closed = NCFunctionHandle(
        1,
        DomainDescriptor.polydisk(1.0),
        # x[0] is one n-by-n matrix or a stack of them: the evaluator takes both forms.
        lambda x: np.linalg.inv(np.eye(x[0].shape[-1]) - x[0]),
    )
    ok = True
    detail_parts = []
    for n in (2, 4):
        x = MatrixTuple([random_matrix(rng, n, scale=1.0 / 3.0)])
        m_hat = circle_norm_estimate(closed, x, 3.0)
        for K in (2, 5, 10):
            series = SeriesFunction(
                [FreePoly(1, {(0,) * k: 1.0}) for k in range(K + 1)], 1.0
            )
            FK = from_series(series, truncation=K, domain=DomainDescriptor.polydisk(0.5))
            err = operator_norm(closed.eval(x) - FK.eval(x))
            bound = tail_bound(m_hat, 3.0, K)
            ok = ok and err <= bound
            if n == 2:
                detail_parts.append(f"K={K}: {err:.2e}<={bound:.2e}")
    report(8, "Cauchy tail bound", ok, "; ".join(detail_parts), started)


def test_criterion_9_klinear_recovery():
    started = time.time()
    rng = rng_for(20260810)
    cases = [
        ("k1-d2", 1, 2, FreePoly(2, {(0,): 1.5 - 0.5j, (1,): 0.25})),
        ("k2-d1", 2, 1, FreePoly(2, {(0, 1): 1.0, (1, 0): -0.5})),
        ("k2-d2", 2, 2, FreePoly(4, {(0, 3): 1.0, (1, 2): 0.5})),
        ("k3-d1", 3, 1, FreePoly(3, {(0, 1, 2): 1.0, (2, 0, 1): 0.25})),
    ]
    worst = 0.0
    for _, k, d, poly in cases:
        lam = from_poly(poly)
        probes = [[random_tuple(rng, d, 2) for _ in range(k)] for _ in range(4)]
        recovered = recover_klinear(lam, k, probes)
        assert recovered.is_homogeneous(k)
        for _ in range(20):
            probe = [random_tuple(rng, d, 2) for _ in range(k)]
            stacked = stack_tuples(probe)
            gap = float(np.abs(lam.eval(stacked) - recovered.evaluate(stacked)).max())
            worst = max(worst, gap)
    report(
        9,
        "k-linear recovery",
        worst <= 1e-7,
        f"k<=3 maps, 20 fresh probes each, worst reproduction gap {worst:.3e} <= 1e-7",
        started,
    )


def test_full_suite_over_reference_handles():
    # The bundled suite is itself part of the deliverable; the reference
    # handles must pass it and every control must fail it.
    started = time.time()
    rng = rng_for(20260811)
    good = [
        from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0)),
        from_realization(mobius_realization(0.5)),
    ]
    ok = all(all(r.passed for r in run_suite(F)) for F in good)
    bad_detected = all(
        any(not r.passed for r in run_suite(control_handle(name, 1)))
        for name in ("entrywise-conjugation", "fixed-corner", "non-graded")
    )
    report(
        10,
        "bundled verification suite",
        ok and bad_detected,
        f"reference handles pass: {ok}; controls rejected: {bad_detected}",
        started,
    )
