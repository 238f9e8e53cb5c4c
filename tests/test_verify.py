"""Property checks, the bundled suite, and k-linear recovery."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from ncfuncalc import (
    CONTROL_NAMES,
    DomainDescriptor,
    FreePoly,
    MatrixTuple,
    NCFunctionHandle,
    NonLinearInputError,
    PreconditionViolationError,
    PropertyReport,
    SeriesFunction,
    SuiteConfig,
    check_direct_sum,
    check_delta_structure,
    check_intertwining,
    check_symmetry,
    check_unipotent_converse,
    contractivity_scan,
    control_handle,
    direct_sum,
    dk_multilinear,
    from_poly,
    from_realization,
    from_series,
    inverse,
    mobius_realization,
    recover_klinear,
    run_suite,
)
from ncfuncalc import verify
from ncfuncalc.verify import THRESHOLDS

from _helpers import (
    components,
    counting_handle,
    random_isometric_realization,
    random_matrix,
    random_poly,
    random_tuple,
    rng_for,
    stack_tuples,
)


class TestCheckDirectSum:
    def test_polynomial_handle_passes(self):
        rng = rng_for(70)
        F = from_poly(random_poly(rng, 2, 3))
        xs = [random_tuple(rng, 2, 2), random_tuple(rng, 2, 3)]
        report = check_direct_sum(F, xs)
        assert report.passed and report.worst_residual <= 1e-10

    def test_single_point_trivial(self):
        rng = rng_for(71)
        F = from_poly(random_poly(rng, 1, 2))
        report = check_direct_sum(F, [random_tuple(rng, 1, 2)])
        assert report.worst_residual == 0.0

    def test_no_point_rejected(self):
        F = from_poly(random_poly(rng_for(73), 1, 2))
        with pytest.raises(ValueError, match="^direct_sum needs one or more points"):
            check_direct_sum(F, [])

    def test_negative_control_fails(self):
        rng = rng_for(72)
        F = control_handle("fixed-corner", 1)
        xs = [random_tuple(rng, 1, 2), random_tuple(rng, 1, 2)]
        assert not check_direct_sum(F, xs).passed


class TestCheckIntertwining:
    def test_similarity_pair(self):
        rng = rng_for(73)
        F = from_poly(random_poly(rng, 2, 3))
        x = random_tuple(rng, 2, 3)
        s = np.eye(3) + 0.1 * random_matrix(rng, 3)
        y = s @ components(x) @ inverse(s)
        report = check_intertwining(F, x, s, y)
        assert report.passed

    def test_rectangular_projection(self):
        rng = rng_for(74)
        F = from_poly(random_poly(rng, 2, 3))
        x1 = random_tuple(rng, 2, 2)
        x2 = random_tuple(rng, 2, 3)
        big = direct_sum([x1, x2])
        proj = np.hstack([np.eye(2), np.zeros((2, 3))])
        report = check_intertwining(F, big, proj, x1)
        assert report.worst_residual <= 1e-9

    def test_zero_intertwiner(self):
        rng = rng_for(75)
        F = from_poly(random_poly(rng, 1, 2))
        x = random_tuple(rng, 1, 2)
        report = check_intertwining(F, x, np.zeros((2, 2)), x)
        assert report.worst_residual == 0.0

    def test_precondition_violation(self):
        rng = rng_for(76)
        F = from_poly(random_poly(rng, 1, 2))
        x = random_tuple(rng, 1, 2)
        y = random_tuple(rng, 1, 2)
        with pytest.raises(PreconditionViolationError):
            check_intertwining(F, x, np.eye(2), y)

    def test_intertwiner_of_the_wrong_shape_is_rejected(self):
        F, x = from_poly(FreePoly.letter(1, 0)), MatrixTuple.zeros(1, 2)
        with pytest.raises(ValueError) as info:
            check_intertwining(F, x, np.eye(3), x)
        assert str(info.value) == "L must be 2x2, got (3, 3)"

    def test_conjugation_control_fails(self):
        rng = rng_for(77)
        F = control_handle("entrywise-conjugation", 1)
        x = random_tuple(rng, 1, 3)
        s = np.eye(3) + 0.1 * random_matrix(rng, 3)
        y = s @ components(x) @ inverse(s)
        assert not check_intertwining(F, x, s, y).passed


class TestCheckUnipotentConverse:
    def test_zero_l_reduces_to_direct_sum(self):
        rng = rng_for(78)
        F = from_poly(random_poly(rng, 2, 3))
        x, y = random_tuple(rng, 2, 2), random_tuple(rng, 2, 2)
        report = check_unipotent_converse(F, x, y, np.zeros((2, 2)))
        assert report.passed and report.worst_residual <= 1e-10

    def test_small_l(self):
        rng = rng_for(79)
        F = from_poly(random_poly(rng, 2, 3))
        x, y = random_tuple(rng, 2, 3), random_tuple(rng, 2, 3)
        l = 0.2 * random_matrix(rng, 3)
        assert check_unipotent_converse(F, x, y, l).passed

    def test_conjugation_control_fails(self):
        rng = rng_for(80)
        F = control_handle("entrywise-conjugation", 1)
        x, y = random_tuple(rng, 1, 2), random_tuple(rng, 1, 2)
        l = 0.2 * random_matrix(rng, 2)
        assert not check_unipotent_converse(F, x, y, l).passed

    def test_points_of_two_dimensions_are_rejected(self):
        F = from_poly(FreePoly.letter(1, 0))
        with pytest.raises(ValueError) as info:
            check_unipotent_converse(F, MatrixTuple.zeros(1, 2), MatrixTuple.zeros(1, 3), np.eye(2))
        assert str(info.value) == "x and y must share arity and dimension n = 2, L be 2x2"


class TestCheckSymmetry:
    def test_polynomial_second_order(self):
        rng = rng_for(81)
        F = from_poly(random_poly(rng, 2, 3))
        x = random_tuple(rng, 2, 2)
        hs = [random_tuple(rng, 2, 2) for _ in range(2)]
        assert check_symmetry(F, x, hs).passed

    def test_identical_arguments_exact(self):
        rng = rng_for(82)
        F = from_poly(random_poly(rng, 1, 3))
        x = random_tuple(rng, 1, 2)
        h = random_tuple(rng, 1, 2)
        report = check_symmetry(F, x, [h, h])
        assert report.worst_residual == 0.0

    def test_order_one_vacuous(self):
        rng = rng_for(83)
        F = from_poly(random_poly(rng, 1, 2))
        report = check_symmetry(F, random_tuple(rng, 1, 2), [random_tuple(rng, 1, 2)])
        assert report.passed and report.worst_residual == 0.0

    def test_order_four_sums_all_permutations(self):
        rng = rng_for(95)
        F = from_poly(random_poly(rng, 1, 4))
        x = random_tuple(rng, 1, 1)
        hs = [random_tuple(rng, 1, 1) for _ in range(4)]
        report = check_symmetry(F, x, hs)
        assert report.trials == 24
        assert report.passed

    def test_norm_weighted_square_fails(self):
        # X -> ||X0||_F X0^2 is not an nc function.  Its polarized second
        # derivative at 0 is symmetric by construction, so only the
        # comparison with the ordered jet corners can reject it.  The norm
        # is taken per sample, as the evaluator contract asks.
        F = NCFunctionHandle(
            1,
            DomainDescriptor.polydisk(math.inf),
            lambda x: np.linalg.norm(x[0], axis=(-2, -1))[..., None, None] * (x[0] @ x[0]),
        )
        rng = rng_for(2)
        hs = [random_tuple(rng, 1, 1) for _ in range(2)]
        report = check_symmetry(F, MatrixTuple.zeros(1, 1), hs)
        assert not report.passed
        assert report.worst_residual > 0.1

    def test_evaluation_count_at_order_three(self):
        # F(x) once, as a stack of one point, then one stack of the 2^3 - 1
        # polarized and 3! ordered jets.
        rng = rng_for(97)
        p = random_poly(rng, 2, 3)
        calls = []

        def counting(x):
            calls.append(np.shape(x[0]))
            return p.evaluate(x)

        F = NCFunctionHandle(2, DomainDescriptor.polydisk(math.inf), counting)
        x = random_tuple(rng, 2, 2)
        hs = [random_tuple(rng, 2, 2) for _ in range(3)]
        assert check_symmetry(F, x, hs).passed
        assert calls == [(1, 2, 2), (13, 8, 8)]

    def test_order_five_rejected(self):
        rng = rng_for(96)
        F = from_poly(random_poly(rng, 1, 2))
        hs = [random_tuple(rng, 1, 1) for _ in range(5)]
        with pytest.raises(ValueError):
            check_symmetry(F, random_tuple(rng, 1, 1), hs)

    def test_no_direction_rejected(self):
        F = from_poly(random_poly(rng_for(97), 1, 2))
        with pytest.raises(ValueError, match="^symmetry check needs one list of 1 to 4 directions"):
            check_symmetry(F, MatrixTuple.zeros(1, 2), [])


class TestDeltaStructure:
    def test_poly_handle(self):
        rng = rng_for(84)
        F = from_poly(random_poly(rng, 2, 3))
        xs = [random_tuple(rng, 2, 2) for _ in range(3)]
        hs = [random_tuple(rng, 2, 2) for _ in range(2)]
        assert check_delta_structure(F, xs, hs).passed

    def test_realization_handle(self):
        rng = rng_for(85)
        F = from_realization(mobius_realization(0.4))
        xs = [random_tuple(rng, 1, 2, scale=0.4) for _ in range(3)]
        hs = [random_tuple(rng, 1, 2) for _ in range(2)]
        assert check_delta_structure(F, xs, hs).passed

    def test_each_base_point_evaluated_once(self):
        rng = rng_for(86)
        F, calls = counting_handle(random_poly(rng, 2, 3))
        xs = [random_tuple(rng, 2, 2) for _ in range(3)]
        hs = [random_tuple(rng, 2, 2) for _ in range(2)]
        assert check_delta_structure(F, xs, hs).passed
        # The three base values in one call, the whole jet, and the two
        # order-1 sub-chains in one call.
        assert calls == [2, 6, 4]


class TestRecoverKlinear:
    def probes_for(self, rng, d, k, count=4, dim=2):
        return [[random_tuple(rng, d, dim) for _ in range(k)] for _ in range(count)]

    def test_bilinear_round_trip(self):
        lam = from_poly(FreePoly(2, {(0, 1): 1.0}))
        rng = rng_for(86)
        recovered = recover_klinear(lam, 2, self.probes_for(rng, 1, 2))
        assert set(recovered.terms) == {(0, 1)}
        assert recovered.coefficient((0, 1)) == pytest.approx(1.0, abs=1e-10)

    def test_zero_map(self):
        lam = from_poly(FreePoly.zero(2))
        rng = rng_for(87)
        recovered = recover_klinear(lam, 2, self.probes_for(rng, 1, 2))
        assert recovered.is_zero

    def test_linear_case(self):
        c = 1.5 - 0.5j
        lam = from_poly(FreePoly(1, {(0,): c}))
        rng = rng_for(88)
        recovered = recover_klinear(lam, 1, self.probes_for(rng, 1, 1))
        assert recovered.coefficient((0,)) == pytest.approx(c, abs=1e-10)

    def test_wrapped_second_derivative(self):
        # Lambda(h, g) = D^2 F(0)[h, g] for F = x0^2 is h g + g h; the
        # recovered polynomial must reproduce it on fresh probes.
        F = from_poly(FreePoly(1, {(0, 0): 1.0}))

        def evaluator(stacked):
            # One tuple or a stack of them: the derivative at each sample.
            hs, gs = np.asarray(stacked[0]), np.asarray(stacked[1])
            n = hs.shape[-1]
            zero = MatrixTuple.zeros(1, n)
            values = [
                dk_multilinear(F, zero, [MatrixTuple([h]), MatrixTuple([g])])
                for h, g in zip(hs.reshape(-1, n, n), gs.reshape(-1, n, n))
            ]
            return np.reshape(values, hs.shape)

        lam = NCFunctionHandle(2, DomainDescriptor.polydisk(math.inf), evaluator)
        rng = rng_for(89)
        recovered = recover_klinear(lam, 2, self.probes_for(rng, 1, 2))
        expected = {(0, 1): 1.0, (1, 0): 1.0}
        assert set(recovered.terms) == set(expected)
        for w, c in expected.items():
            assert recovered.coefficient(w) == pytest.approx(c, abs=1e-8)
        for probe in self.probes_for(rng, 1, 2, count=5):
            direct = lam.eval(stack_tuples(probe))
            via_poly = recovered.evaluate(stack_tuples(probe))
            assert np.abs(direct - via_poly).max() <= 1e-7

    def test_fewer_than_two_probes_is_rejected(self):
        # x0 x0 is not bilinear in (x0, x1); two probes would catch it.
        lam = from_poly(FreePoly(2, {(0, 0): 1.0}))
        for probes in ([], self.probes_for(rng_for(90), 1, 2, count=1)):
            with pytest.raises(ValueError) as info:
                recover_klinear(lam, 2, probes)
            assert str(info.value) == f"the linearity check needs two probes, got {len(probes)}"
        with pytest.raises(NonLinearInputError):
            recover_klinear(lam, 2, self.probes_for(rng_for(90), 1, 2, count=2))

    @pytest.mark.parametrize(
        "arity, k, message",
        [(1, 0, "order must be at least 1"), (3, 2, "handle arity 3 is not divisible by 2")],
    )
    def test_order_must_split_the_arity(self, arity, k, message):
        with pytest.raises(ValueError) as info:
            recover_klinear(from_poly(FreePoly.zero(arity)), k, [])
        assert str(info.value) == message

    def test_nonlinear_rejected(self):
        lam = from_poly(FreePoly(2, {(0, 0, 1): 1.0}))  # quadratic in block 1
        rng = rng_for(90)
        with pytest.raises(NonLinearInputError):
            recover_klinear(lam, 2, self.probes_for(rng, 1, 2))


def doubled_above_one(x):
    """Mutant: x0 x1 at dimension 1, 2 x0 x1 above it."""
    product = x[0] @ x[1]
    return product if np.shape(x[0])[-1] == 1 else 2 * product


def shifted_at_one(x):
    """Mutant: the commutator x0 x1 - x1 x0, plus 5 x0 at dimension 1 only."""
    commutator = x[0] @ x[1] - x[1] @ x[0]
    return commutator + 5 * x[0] if np.shape(x[0])[-1] == 1 else commutator


def eig_exp(x):
    """Mutant: exp(x0) through an eigendecomposition, which is right only on
    diagonalizable points."""
    w, v = np.linalg.eig(np.asarray(x[0]))
    return (v * np.exp(w)[..., None, :]) @ np.linalg.inv(v)


def normalized_trace(x):
    """Mutant: tr(x0) / n times the identity."""
    x0 = np.asarray(x[0])
    n = x0.shape[-1]
    return np.trace(x0, axis1=-2, axis2=-1)[..., None, None] / n * np.eye(n)


# Evaluators at d = 2, each taking one tuple or a stack of them; none is an
# nc function.
MUTANTS = {
    "transpose of x0 x1": lambda x: np.swapaxes(x[0] @ x[1], -1, -2),
    "adjoint of x0": lambda x: np.conj(np.swapaxes(x[0], -1, -2)),
    "entrywise square of x0": lambda x: np.square(x[0]),
    "conj(x0) x1": lambda x: np.conj(x[0]) @ x[1],
    "entrywise abs of x0": lambda x: np.abs(x[0]),
    "normalized trace of x0": normalized_trace,
    "exp(x0) by eig": eig_exp,
    "doubled above dimension 1": doubled_above_one,
    "shifted at dimension 1": shifted_at_one,
}


def series_handle():
    """0.3 + sum_k (0.5^k x0^k + 0.25^k x1 x0^(k-1)), truncated at degree 4."""
    series = SeriesFunction(
        [FreePoly(2, {(0,) * k: 0.5**k, (1,) + (0,) * max(k - 1, 0): 0.25**k})
         if k else FreePoly.constant(2, 0.3) for k in range(5)],
        2.0,
    )
    return from_series(series, truncation=4, domain=DomainDescriptor.polydisk(1.0))


# Handles whose verdicts must not depend on the scale t of t F.  Left out:
# "shifted at dimension 1", built on the commutator x0 x1 - x1 x0, whose values
# at scalar points are pure roundoff.  t times roundoff is a gap that the floor
# of 1 in linalg.relative reads as absolute, so it fails scalar-point-derivative
# from t = 1e9 on (ROADMAP item 16).
SCALED = {
    "polynomial": lambda: from_poly(
        FreePoly(2, {(): 0.3, (0,): 1.0, (0, 1): 0.7 - 0.2j, (1, 1, 0): 0.5}),
        DomainDescriptor.polydisk(1.0),
    ),
    "mobius": lambda: from_realization(mobius_realization(0.5)),
    "series": series_handle,
    "isometric realization": lambda: from_realization(
        random_isometric_realization(rng_for(94), 2, 3)
    ),
    **{f"control {name}": functools.partial(control_handle, name, 2) for name in CONTROL_NAMES},
    **{
        f"mutant {name}": functools.partial(
            NCFunctionHandle, 2, DomainDescriptor.polydisk(math.inf), evaluator
        )
        for name, evaluator in MUTANTS.items()
        if name != "shifted at dimension 1"
    },
}


@functools.cache
def failing_at_scale(name: str, t: float) -> frozenset:
    F = SCALED[name]()
    scaled = NCFunctionHandle(F.arity, F.domain, lambda x: t * F.eval(x, unchecked=True))
    return frozenset(r.name for r in run_suite(scaled, SuiteConfig(seed=1)) if not r.passed)


class TestRunSuite:
    def test_polynomial_handle_all_pass(self):
        rng = rng_for(91)
        F = from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0))
        reports = run_suite(F)
        assert all(r.passed for r in reports), [
            (r.name, r.worst_residual, r.detail) for r in reports if not r.passed
        ]

    def test_mobius_handle_all_pass(self):
        reports = run_suite(from_realization(mobius_realization(0.5)))
        assert all(r.passed for r in reports)

    def test_series_handle_all_pass(self):
        reports = run_suite(series_handle())
        assert all(r.passed for r in reports), [
            (r.name, r.worst_residual, r.detail) for r in reports if not r.passed
        ]

    @pytest.mark.parametrize("t", [1e3, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("name", list(SCALED))
    def test_verdicts_do_not_depend_on_scale(self, name, t):
        # Every residual reads its gap against the size of the values it
        # compares, so t F fails exactly the checks that F fails.
        assert failing_at_scale(name, t) == failing_at_scale(name, 1.0)

    def test_controls_fail_named_checks(self):
        failing = {
            name: {r.name for r in run_suite(control_handle(name, 1)) if not r.passed}
            for name in CONTROL_NAMES
        }
        assert "direct-sum" in failing["fixed-corner"]
        assert "similarity-intertwining" in failing["entrywise-conjugation"]
        assert "unipotent-converse" in failing["entrywise-conjugation"]
        assert "gradedness" in failing["non-graded"]
        for name in CONTROL_NAMES:
            assert failing[name], f"control {name} slipped through the suite"

    @pytest.mark.parametrize("evaluator", [doubled_above_one, shifted_at_one])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dimension_one_mutants_fail(self, evaluator, seed):
        # Neither is an nc function: F(a (+) b) differs from F(a) (+) F(b) for
        # 1x1 points a and b, and F(a I_n) from F(a) I_n.  Both agree with an
        # nc function at every point the other eight checks evaluate.
        F = NCFunctionHandle(2, DomainDescriptor.polydisk(math.inf), evaluator)
        failing = {r.name for r in run_suite(F, SuiteConfig(seed=seed)) if not r.passed}
        assert failing == {"direct-sum", "scalar-point-scalarity"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mutation_matrix(self, seed):
        # Every mutant fails some check, and every check fails on some
        # mutant or control: no check is one that cannot fail.
        handles = {
            name: NCFunctionHandle(2, DomainDescriptor.polydisk(math.inf), evaluator)
            for name, evaluator in MUTANTS.items()
        }
        handles.update((name, control_handle(name, 2)) for name in CONTROL_NAMES)
        reports = {name: run_suite(F, SuiteConfig(seed=seed)) for name, F in handles.items()}
        failing = {name: {r.name for r in reps if not r.passed} for name, reps in reports.items()}
        assert all(failing[name] for name in MUTANTS), failing
        checks = [r.name for r in reports[CONTROL_NAMES[0]]]
        assert len(checks) == 10
        never_failed = set(checks).difference(*failing.values())
        assert not never_failed, never_failed

    def test_fixed_corner_fails_scalar_point_derivative(self):
        # The constant e_00 output has the wrong diagonal blocks on every
        # jet, so the structure check of the first-order jet rejects it.
        reports = {r.name: r for r in run_suite(control_handle("fixed-corner", 1))}
        report = reports["scalar-point-derivative"]
        assert not report.passed
        assert report.detail.startswith("StructureViolationError")

    def test_deterministic_bitwise(self):
        rng = rng_for(92)
        F = from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0))
        cfg = SuiteConfig(seed=123)
        a = json.dumps([r.as_dict() for r in run_suite(F, cfg)])
        b = json.dumps([r.as_dict() for r in run_suite(F, cfg)])
        assert a == b

    def test_seed_changes_reports(self):
        rng = rng_for(93)
        F = from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0))
        a = [r.worst_residual for r in run_suite(F, SuiteConfig(seed=1))]
        b = [r.worst_residual for r in run_suite(F, SuiteConfig(seed=2))]
        assert a != b

    def test_config_dims_are_tuples_however_given(self):
        cfg = SuiteConfig(dims=[2, 3], scalar_dims=range(2, 4), graded_dims=(1,))
        assert (cfg.dims, cfg.scalar_dims, cfg.graded_dims) == ((2, 3), (2, 3), (1,))
        assert cfg == SuiteConfig(dims=(2, 3), scalar_dims=(2, 3), graded_dims=(1,))
        assert hash(cfg) == hash(SuiteConfig(dims=(2, 3), scalar_dims=(2, 3), graded_dims=(1,)))

    def test_config_from_dict(self):
        cfg = SuiteConfig.from_dict({"seed": 5, "dims": [2, 2], "trials": 2})
        assert cfg.seed == 5 and cfg.dims == (2, 2) and cfg.trials == 2
        with pytest.raises(ValueError):
            SuiteConfig.from_dict({"unknown_key": 1})

    @pytest.mark.parametrize(
        "bad",
        [
            {"trials": 0},
            {"trials": 1.5},
            {"max_order": 0},
            {"max_order": 1},
            {"max_order": 4},
            {"dims": []},
            {"scalar_dims": [2, 0]},
            {"graded_dims": []},
        ],
    )
    def test_config_rejects_settings_that_check_nothing(self, bad):
        with pytest.raises(ValueError):
            SuiteConfig.from_dict(bad)

    @pytest.mark.parametrize("kind", ["realization", "polynomial"])
    def test_suite_jets_fit_the_domain_at_first_try(self, monkeypatch, kind):
        # On a bound-1 domain, directions of norm 1 at points of norm at most
        # 0.45 put nearly every jet outside at scale 1: about 90 rejected
        # membership tests per run on these handles, each one SVD at the jet
        # dimension.  Directions of norm 0.5 leave about 12: unit-direction
        # jets at scalar points and a few higher-order jets.
        rng = rng_for(3)
        if kind == "realization":
            F = from_realization(random_isometric_realization(rng, 2, 3))
        else:
            F = from_poly(random_poly(rng, 2, 3), DomainDescriptor.polydisk(1.0))
        verdicts = []
        contains = DomainDescriptor.contains

        def recording(self, x):
            inside = contains(self, x)
            verdicts.extend(np.ravel(inside).tolist())  # one verdict per sample
            return inside

        monkeypatch.setattr(DomainDescriptor, "contains", recording)
        reports = run_suite(F, SuiteConfig(seed=3))
        assert all(r.passed for r in reports)
        assert verdicts.count(False) <= 15

    @staticmethod
    def recorded_suite(p, domain=DomainDescriptor.polydisk(math.inf)):
        """The leading shape of every evaluation in one default suite run of
        ``p.evaluate``, with whether all its components are strictly upper
        triangular (a jet at the zero base point, or the zero tuple), listed
        under the check that made it."""
        calls, by_check = [], {}

        def recording(x):
            comps = np.array([x[j] for j in range(p.arity)])
            calls.append((np.shape(x[0]), not np.tril(comps).any()))
            return p.evaluate(x)

        def grouping(name, *args, **kwargs):
            by_check.setdefault(name, []).extend(calls)
            calls.clear()
            return report(name, *args, **kwargs)

        F = NCFunctionHandle(p.arity, domain, recording)
        report, verify._report = verify._report, grouping
        try:
            assert all(r.passed for r in run_suite(F, SuiteConfig(seed=0)))
        finally:
            verify._report = report
        return by_check

    @pytest.mark.parametrize(
        "p, domain, expand_calls",
        [
            (FreePoly(2, {(0, 1): 1.0, (1,): 0.5}), DomainDescriptor.polydisk(math.inf), 2),
            (random_poly(rng_for(11), 3, 5, nterms=40), DomainDescriptor.polydisk(math.inf), 3),
            (random_isometric_realization(rng_for(3), 2, 3), DomainDescriptor.polydisk(1.0), 2),
        ],
        ids=["d=2 polynomial", "d=3 polynomial", "d=2 m=3 realization"],
    )
    def test_one_evaluator_call_per_dimension_of_each_check(self, p, domain, expand_calls):
        # Each check draws all its trials first and evaluates them as one
        # stack per dimension.  taylor_expand at K = 3 evaluates F(0), then
        # one block of the 4 covering jets at d = 2, and blocks of 13 and 1
        # of the 14 at d = 3.
        calls = self.recorded_suite(p, domain)
        assert {name: len(shapes) for name, shapes in calls.items()} == {
            "gradedness": 4,  # dimensions 1, 2, 3, 5
            "direct-sum": 4,  # the sums at 6, and the pieces at 1, 2, 3
            "similarity-intertwining": 1,  # x and y at 2
            "unipotent-converse": 2,  # x and y at 2, z at 4
            "scalar-point-scalarity": 3,  # dimensions 1, 2, 4
            "scalar-point-derivative": 2,  # the points, their jets
            "delta-structure": 3,  # base points, jets, order-1 sub-chains
            "delta-multilinearity": 2,  # base points, jets
            "derivative-symmetry": 3,  # base points, jets of order 2 and 3
            "taylor-polynomiality": expand_calls + 4,  # taylor_expand, F(0), 3 orders
        }

    def test_scalar_points_and_multilinearity_jets_are_stacked(self):
        # scalar-point-scalarity: its six 1x1 points in one evaluation and its
        # three n x n points in one per n; delta-multilinearity: the nine base
        # points in one evaluation, then one stack of the three trials' four
        # jets each.
        calls = self.recorded_suite(FreePoly(2, {(0, 1): 1.0, (1,): 0.5}))
        assert [shape for shape, _ in calls["scalar-point-scalarity"]] == [
            (6, 1, 1), (3, 2, 2), (3, 4, 4)
        ]
        assert [shape for shape, _ in calls["delta-multilinearity"]] == [(9, 2, 2), (12, 6, 6)]

    def test_taylor_polynomiality_makes_one_stacked_call_per_order(self):
        # Three trials at n = 2 for each order k = 1, 2, 3: F at the zero 2x2
        # tuple once, and per order one stack of the 3 (2^k - 1) polarization
        # jets, of dimension 2 (k + 1).
        calls = self.recorded_suite(FreePoly(2, {(0, 1): 1.0, (1,): 0.5}))
        at_zero = [shape for shape, zero in calls["taylor-polynomiality"] if zero]
        assert at_zero[-4:] == [(2, 2), (3, 4, 4), (9, 6, 6), (21, 8, 8)]
        assert at_zero.count((2, 2)) == 1

    def test_realization_suite_peak_stays_under_the_scan_peak(self):
        # Realization.evaluate splits every stack at the scan's byte budget, so
        # the suite's stacked jets hold no more resolvents than a scan block.
        r = random_isometric_realization(rng_for(3), 2, 3)

        def peak(run) -> int:
            run()
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        suite = peak(lambda: run_suite(from_realization(r), SuiteConfig(seed=0)))
        assert suite <= peak(lambda: contractivity_scan(r, 16, 40, 0))

    def test_order_two_runs_one_symmetry_trial(self):
        F = from_poly(FreePoly(2, {(0, 1): 1.0}))
        reports = {r.name: r for r in run_suite(F, SuiteConfig(max_order=2, trials=1))}
        assert reports["derivative-symmetry"].trials == 1
        assert reports["taylor-polynomiality"].trials == 2
        assert all(r.passed for r in reports.values())

    def test_six_letters_lower_the_taylor_order(self):
        # 6^3 = 216 words of degree 3 are over 200: the Taylor check stops at degree 2.
        p = FreePoly(6, {(0, 5): 1.0, (3,): 0.5, (1, 2, 4): 0.25})
        reports = {r.name: r for r in run_suite(from_poly(p), SuiteConfig(trials=1))}
        assert reports["taylor-polynomiality"].trials == 2
        assert reports["derivative-symmetry"].trials == 2
        assert all(r.passed for r in reports.values())


class TestThresholds:
    @pytest.mark.parametrize("worst", [math.inf, math.nan])
    def test_non_finite_residual_fails(self, worst):
        report = PropertyReport("direct-sum", 0, worst, THRESHOLDS["direct-sum"])
        assert not report.passed
        assert report.as_dict()["worst_residual"] is None
        assert report.as_dict()["passed"] is False

    @pytest.fixture(scope="class")
    def suite_reports(self):
        F = from_poly(FreePoly(2, {(0, 1): 1.0}))
        return {r.name: r for r in run_suite(F, SuiteConfig(max_order=2, trials=1))}

    @pytest.mark.parametrize(
        "check, suite_name",
        [
            (lambda F, x, h: check_direct_sum(F, [x, x]), "direct-sum"),
            (lambda F, x, h: check_intertwining(F, x, np.eye(2), x), "similarity-intertwining"),
            (lambda F, x, h: check_unipotent_converse(F, x, x, h[0]), "unipotent-converse"),
            (lambda F, x, h: check_delta_structure(F, [x] * 3, [h, h]), "delta-structure"),
            (lambda F, x, h: check_symmetry(F, x, [h, h]), "derivative-symmetry"),
        ],
    )
    def test_check_threshold_matches_suite(self, suite_reports, check, suite_name):
        rng = rng_for(98)
        F = from_poly(FreePoly(2, {(0, 1): 1.0}))
        x, h = random_tuple(rng, 2, 2), random_tuple(rng, 2, 2)
        report = check(F, x, h)
        assert report.passed
        assert report.threshold == suite_reports[suite_name].threshold
        assert report.threshold == THRESHOLDS[report.name]
