"""Executable structural properties of graded intertwining-preserving functions.

Every check returns a :class:`PropertyReport` rather than raising on
failure; :func:`run_suite` bundles the checks with seeded sampling so that
identical configurations produce bitwise-identical reports.  Every verdict
compares a residual with the threshold that :data:`THRESHOLDS` gives for its
report name, in the public checks and in the suite alike.  The negative
control handles in :mod:`ncfuncalc.ncfun` (deliberately broken evaluators)
make the suite's ability to fail itself testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np

from .freepoly import FreePoly
from .linalg import MatrixTuple, direct_sum, inverse, operator_norm, scalar_part
from .ncderiv import delta_k, dk_multilinear
from .ncfun import NCFunctionHandle
from .taylor import taylor_expand

__all__ = [
    "PreconditionViolationError",
    "NonLinearInputError",
    "PropertyReport",
    "SuiteConfig",
    "THRESHOLDS",
    "check_direct_sum",
    "check_intertwining",
    "check_unipotent_converse",
    "check_delta_structure",
    "check_symmetry",
    "recover_klinear",
    "run_suite",
]


# The threshold of every verdict, keyed by report name.
THRESHOLDS = {
    "gradedness": 0.5,
    "direct-sum": 1e-9,
    "intertwining": 1e-7,
    "similarity-intertwining": 1e-7,
    "unipotent-converse": 1e-8,
    "scalar-point-scalarity": 1e-10,
    "scalar-point-derivative": 1e-8,
    "delta-structure": 1e-8,
    "delta-multilinearity": 1e-8,
    "derivative-symmetry": 1e-8,
    "taylor-polynomiality": 1e-6,
}
PRECONDITION_TOL = 1e-10
LINEARITY_TOL = 1e-8


class PreconditionViolationError(ValueError):
    """The inputs do not satisfy the hypothesis the check needs."""


class NonLinearInputError(ValueError):
    """A map presented as k-linear failed the linearity spot check."""


@dataclass(frozen=True)
class PropertyReport:
    """One verified property: residual against threshold, pass or fail."""

    name: str
    trials: int
    worst_residual: float
    threshold: float
    seed: int | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        """Whether the residual is at most the threshold; never for inf or NaN."""
        return self.worst_residual <= self.threshold

    def as_dict(self) -> dict:
        """JSON form; a non-finite residual (a check that raised) is null."""
        worst = self.worst_residual
        return {
            "name": self.name,
            "trials": self.trials,
            "worst_residual": worst if math.isfinite(worst) else None,
            "threshold": self.threshold,
            "passed": self.passed,
            "seed": self.seed,
            "detail": self.detail,
        }


def _relnorm(diff: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(diff)) / max(1.0, float(np.linalg.norm(reference)))


def _report(
    name: str, worst: float, trials: int = 1, seed: int | None = None, detail: str = ""
) -> PropertyReport:
    """A report read against the threshold that THRESHOLDS gives for ``name``."""
    return PropertyReport(name, trials, worst, THRESHOLDS[name], seed, detail)


def check_direct_sum(F: NCFunctionHandle, xs) -> PropertyReport:
    """Evaluation at a direct sum must be the direct sum of the evaluations."""
    xs = list(xs)
    whole = F.eval(direct_sum(xs))
    pieces = direct_sum([MatrixTuple([F.eval(x)]) for x in xs])[0]
    return _report("direct-sum", _relnorm(whole - pieces, pieces))


def check_intertwining(
    F: NCFunctionHandle, x: MatrixTuple, L: np.ndarray, y: MatrixTuple
) -> PropertyReport:
    """If L x = y L componentwise then L F(x) = F(y) L.

    ``L`` may be rectangular (y at dimension p, x at dimension n, L p-by-n).
    Raises :class:`PreconditionViolationError` when L x differs from y L.
    """
    L = np.asarray(L, dtype=np.complex128)
    if L.shape != (y.dim, x.dim):
        raise ValueError(f"L must be {y.dim}x{x.dim}, got {L.shape}")
    lnorm = operator_norm(L)
    if lnorm == 0.0:
        return _report("intertwining", 0.0)
    pre = max(operator_norm(L @ x[r] - y[r] @ L) for r in range(x.arity))
    if pre > PRECONDITION_TOL * max(1.0, lnorm):
        raise PreconditionViolationError(
            f"L x differs from y L by {pre:.3e}, not an intertwining pair"
        )
    return _report("intertwining", operator_norm(L @ F.eval(x) - F.eval(y) @ L) / lnorm)


def check_unipotent_converse(
    F: NCFunctionHandle, x: MatrixTuple, y: MatrixTuple, L: np.ndarray
) -> PropertyReport:
    """Conjugated direct sums split: F(S^{-1} (x (+) y) S) = S^{-1} (F(x) (+) F(y)) S.

    S is the unipotent block matrix [[1, L], [0, 1]]; with L = 0 this reduces
    to the plain direct-sum property.
    """
    x.check_compatible(y)
    n = x.dim
    L = np.asarray(L, dtype=np.complex128)
    if L.shape != (n, n):
        raise ValueError(f"L must be {n}x{n}, got {L.shape}")
    # S^{-1} (x (+) y) S has components [[x, xL - Ly], [0, y]].
    z = MatrixTuple(
        [
            np.block([[x[r], x[r] @ L - L @ y[r]], [np.zeros((n, n)), y[r]]])
            for r in range(x.arity)
        ]
    )
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    s = np.block([[eye, L], [zero, eye]])
    sinv = np.block([[eye, -L], [zero, eye]])
    expected = sinv @ np.block([[F.eval(x), zero], [zero, F.eval(y)]]) @ s
    return _report("unipotent-converse", _relnorm(F.eval(z) - expected, expected))


def check_delta_structure(F: NCFunctionHandle, xs, hs) -> PropertyReport:
    """The jet image must match the difference-differentials of every sub-chain.

    Block (i, j) above the diagonal is compared against an independently
    computed order-(j - i) delta of the base points x_i..x_j and directions
    h_i..h_{j-1}; diagonal blocks against F(x_i); below-diagonal blocks
    against zero.  Each F(x_i) is evaluated once and shared by every jet.
    """
    xs = list(xs)
    hs = list(hs)
    k = len(hs)
    values = [F.eval(x) for x in xs]
    res = delta_k(F, xs, hs, base_values=values)
    n = xs[0].dim
    full = res.full_upper
    scale = max(1.0, float(np.linalg.norm(full)))
    worst = res.structure_residual / scale
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if i == 0 and j == k:
                continue  # the corner block is the delta itself, by definition
            block = full[i * n : (i + 1) * n, j * n : (j + 1) * n]
            expected = delta_k(F, xs[i : j + 1], hs[i:j], base_values=values[i : j + 1]).delta
            worst = max(worst, float(np.linalg.norm(block - expected)) / scale)
    return _report("delta-structure", worst)


def check_symmetry(F: NCFunctionHandle, x: MatrixTuple, hs) -> PropertyReport:
    """The polarized derivative must equal the sum of the ordered jet corners.

    For an nc function, D^k F(x)[h_1, ..., h_k] (by polarization, from
    diagonal derivatives only) equals the sum over all k! orders sigma of
    delta_k(F, [x] * (k + 1), h_sigma).delta; the two routes share no
    evaluation, and the ordered jets are one stacked :func:`delta_k` call
    sharing one F(x).  Orders up to 4 are supported (24 jets at k = 4).
    """
    hs = list(hs)
    k = len(hs)
    if k > 4:
        raise ValueError("symmetry check supports orders up to 4")
    polarized = dk_multilinear(F, x, hs)
    values = [F.eval(x)] * (k + 1)
    orders = list(permutations(range(k)))
    # dirs[i] holds the i-th direction of every order: shape (d, k!, n, n).
    dirs = np.array([h.components for h in hs])[np.array(orders).T].swapaxes(1, 2)
    ordered = sum(delta_k(F, [x] * (k + 1), dirs, base_values=values).delta)
    return _report("derivative-symmetry", _relnorm(polarized - ordered, ordered), len(orders))


def recover_klinear(lam: NCFunctionHandle, k: int, probes, *, dim: int = 1) -> FreePoly:
    """Recover the homogeneous polynomial behind a k-linear graded map.

    ``lam`` is a handle in d*k variables, understood as k blocks of d; its
    diagonal k-th derivative at 0 is k! times the map itself, so the
    degree-k Taylor part reproduces it, so ``lam`` must evaluate stacked
    components (:func:`~ncfuncalc.taylor.taylor_expand`).  Linearity in the
    first block is spot-checked on the first two probes before extraction.
    """
    if k < 1:
        raise ValueError("order must be at least 1")
    if lam.arity % k != 0:
        raise ValueError(f"handle arity {lam.arity} is not divisible by {k}")
    probes = [list(p) for p in probes]
    if len(probes) >= 2:
        a, b = probes[0], probes[1]

        def point(tuples):  # k d-tuples, concatenated: one point of lam
            return MatrixTuple(np.concatenate([t.components for t in tuples]))

        lhs = lam.eval(point([a[0] + b[0]] + a[1:]))
        rhs = lam.eval(point(a)) + lam.eval(point([b[0]] + a[1:]))
        resid = _relnorm(lhs - rhs, rhs)
        if resid > LINEARITY_TOL:
            raise NonLinearInputError(
                f"additivity in the first block fails by {resid:.3e}"
            )
    expansion = taylor_expand(lam, k, dim=dim)
    return expansion.parts[k]


# -- the bundled suite -------------------------------------------------------


_DIMS_FIELDS = ("dims", "scalar_dims", "graded_dims")


@dataclass(frozen=True)
class SuiteConfig:
    """Seed and sampling sizes for run_suite; the thresholds are THRESHOLDS."""

    seed: int = 7
    dims: tuple[int, ...] = (2, 3)
    scalar_dims: tuple[int, ...] = (2, 4)
    graded_dims: tuple[int, ...] = (1, 2, 3, 5)
    trials: int = 3
    max_order: int = 3

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError("trials must be an integer of at least 1")
        if not isinstance(self.max_order, int) or not 2 <= self.max_order <= 3:
            raise ValueError("max_order must be 2 or 3")
        for name in _DIMS_FIELDS:
            dims = getattr(self, name)
            if not dims or not all(isinstance(n, int) and n >= 1 for n in dims):
                raise ValueError(f"{name} must be a non-empty list of dimensions of at least 1")

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {}
        for key, value in data.items():
            if key not in known:
                raise ValueError(f"unknown suite config key {key!r}")
            if key in _DIMS_FIELDS:
                value = tuple(int(v) for v in value)
            kwargs[key] = value
        return cls(**kwargs)

    def with_seed(self, seed: int) -> "SuiteConfig":
        return replace(self, seed=int(seed))


def _sample_direction(rng: np.random.Generator, d: int, n: int, scale: float = 1.0) -> MatrixTuple:
    g = rng.standard_normal((d, 2, n, n))  # real, imaginary part of each letter
    g = g[:, 0] + 1j * g[:, 1]
    return MatrixTuple(scale * g / np.maximum(operator_norm(g), 1e-12)[:, None, None])


def _sample_point(rng: np.random.Generator, F: NCFunctionHandle, n: int) -> MatrixTuple:
    size = 0.45 * min(F.domain.bound, 1.0) * float(rng.uniform(0.5, 1.0))
    return F.domain.rescale(_sample_direction(rng, F.arity, n), size)


def _sample_scalar_point(rng: np.random.Generator, F: NCFunctionHandle, n: int) -> MatrixTuple:
    size = 0.15 * min(F.domain.bound, 1.0) * float(rng.uniform(0.5, 1.0))
    scalars = rng.standard_normal(F.arity) + 1j * rng.standard_normal(F.arity)
    return F.domain.rescale(MatrixTuple.from_scalars(scalars, n), size)


def _sample_similarity(rng: np.random.Generator, n: int) -> tuple[np.ndarray, float]:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = g / max(operator_norm(g), 1e-12)
    s = np.eye(n, dtype=np.complex128) + 0.1 * g
    cond = operator_norm(s) * operator_norm(inverse(s))
    return s, cond


def run_suite(F: NCFunctionHandle, config: SuiteConfig | None = None) -> list[PropertyReport]:
    """Run every structural check against a handle; failures are verdicts.

    A check that raises (for instance because the handle breaks grading) is
    reported as failed with the exception in the detail field, so broken
    handles produce failing reports rather than crashes.
    """
    cfg = config or SuiteConfig()
    reports: list[PropertyReport] = []
    # Jet directions sized to the domain, so that a jet at a sampled point
    # (norm at most 0.45 of the bound) usually passes its first membership test.
    jet_scale = min(1.0, 0.5 * F.domain.bound)

    def run(index: int, name: str, body) -> None:
        rng = np.random.default_rng((cfg.seed, index))
        try:
            worst, trials, detail = body(rng)
        except Exception as exc:  # verdict, not crash
            worst, trials, detail = math.inf, 0, f"{type(exc).__name__}: {exc}"
        reports.append(_report(name, float(worst), trials, cfg.seed, detail))

    def graded(rng):
        for n in cfg.graded_dims:
            F.eval(_sample_point(rng, F, n))  # eval raises if grading breaks
        return 0.0, len(cfg.graded_dims), ""

    def dsum(rng):
        # A 1x1 point in every sum: F at dimension 1 must agree with F above it.
        worst = 0.0
        for _ in range(cfg.trials):
            xs = [_sample_point(rng, F, n) for n in (1, *cfg.dims)]
            worst = max(worst, check_direct_sum(F, xs).worst_residual)
        return worst, cfg.trials, ""

    def similarity(rng):
        worst = 0.0
        for _ in range(cfg.trials):
            n = cfg.dims[0]
            x = _sample_point(rng, F, n)
            s, cond = _sample_similarity(rng, n)
            y = x.conjugate_by(s)
            rep = check_intertwining(F, x, s, y)
            worst = max(worst, rep.worst_residual / cond)
        return worst, cfg.trials, "residual divided by cond(S)"

    def unipotent(rng):
        worst = 0.0
        for _ in range(cfg.trials):
            n = cfg.dims[0]
            x = _sample_point(rng, F, n)
            y = _sample_point(rng, F, n)
            l = _sample_direction(rng, 1, n, scale=0.2)[0]
            worst = max(worst, check_unipotent_converse(F, x, y, l).worst_residual)
        return worst, cfg.trials, ""

    def scalarity(rng):
        # F(a I_n) = F(a) I_n, with F(a) evaluated at dimension 1: a I_n is the
        # direct sum of n copies of the scalar point a.  All points are drawn
        # first; the 1x1 points are one stacked evaluation, the n x n points
        # one per n.
        points = [
            [_sample_scalar_point(rng, F, n) for _ in range(cfg.trials)] for n in cfg.scalar_dims
        ]
        scalars = np.array([[x_r[0, 0] for x_r in x] for xs in points for x in xs])
        cs = iter(F.eval(scalars.T[:, :, None, None])[:, 0, 0])
        worst = 0.0
        for n, xs in zip(cfg.scalar_dims, points):
            for value in F.eval(np.stack([x.components for x in xs], axis=1)):
                c = next(cs)
                resid = float(np.abs(value - c * np.eye(n)).max())
                worst = max(worst, resid / max(1.0, abs(c)))
        return worst, len(cfg.scalar_dims) * cfg.trials, ""

    def scalar_derivative(rng):
        # Coefficients from the unit directions, validated on fresh ones: per
        # trial, one stacked call makes the d unit jets, then the d sampled.
        n = cfg.dims[0]
        d = F.arity
        units = np.eye(d)[:, :, None, None] * np.eye(n)  # units[r] is e_r: (d, n, n)
        worst = 0.0
        for _ in range(cfg.trials):
            a = _sample_scalar_point(rng, F, n)
            hs = [_sample_direction(rng, d, n, jet_scale) for _ in range(d)]
            dirs = np.concatenate([units, np.stack([h.components for h in hs], axis=1)], axis=1)
            ders = delta_k(F, [a, a], [dirs], base_values=[F.eval(a)] * 2).delta
            coeffs, resids = (v.tolist() for v in scalar_part(ders[:d]))
            for c, resid in zip(coeffs, resids):
                worst = max(worst, resid / max(1.0, abs(c)))
            for h, der in zip(hs, ders[d:]):
                predicted = sum(c * h[r] for r, c in enumerate(coeffs))
                worst = max(worst, _relnorm(der - predicted, predicted))
        return worst, cfg.trials, ""

    def structure(rng):
        worst = 0.0
        n = cfg.dims[0]
        for _ in range(cfg.trials):
            xs = [_sample_point(rng, F, n) for _ in range(3)]
            hs = [_sample_direction(rng, F.arity, n, jet_scale) for _ in range(2)]
            worst = max(worst, check_delta_structure(F, xs, hs).worst_residual)
        return worst, cfg.trials, ""

    def multilinear(rng):
        # Per trial, one stacked call makes the four jets in directions
        # (h1, h2), (h1 + h1b, h2), (h1b, h2) and (h1, c h2).
        worst = 0.0
        n = cfg.dims[0]
        d = F.arity
        for _ in range(cfg.trials):
            xs = [_sample_point(rng, F, n) for _ in range(3)]
            h1, h1b, h2 = (_sample_direction(rng, d, n, jet_scale) for _ in range(3))
            c = complex(rng.standard_normal() + 1j * rng.standard_normal())
            firsts, seconds = [h1, h1 + h1b, h1b, h1], [h2, h2, h2, c * h2]
            dirs = [np.stack([h.components for h in hs], axis=1) for hs in (firsts, seconds)]
            values = [F.eval(x) for x in xs]
            base, added, other, scaled = delta_k(F, xs, dirs, base_values=values).delta
            split = base + other
            worst = max(worst, _relnorm(added - split, split))
            worst = max(worst, _relnorm(scaled - c * base, scaled))
        return worst, cfg.trials, ""

    def symmetry(rng):
        worst = 0.0
        n = cfg.dims[0]
        d = F.arity
        for k in range(2, cfg.max_order + 1):
            x = _sample_point(rng, F, n)
            hs = [_sample_direction(rng, d, n, jet_scale) for _ in range(k)]
            worst = max(worst, check_symmetry(F, x, hs).worst_residual)
        return worst, cfg.max_order - 1, ""

    def taylor_polynomiality(rng):
        d = F.arity
        kmax = cfg.max_order
        while d**kmax > 200 and kmax > 1:
            kmax -= 1
        expansion = taylor_expand(F, kmax)
        n = 2
        worst = 0.0
        zero = MatrixTuple.zeros(d, n)
        for k in range(1, kmax + 1):
            # Per order, one stacked call makes every trial's polarization jets.
            part = expansion.parts[k]
            trials = [
                [_sample_direction(rng, d, n, jet_scale) for _ in range(k)]
                for _ in range(cfg.trials)
            ]
            stacks = [np.stack([hs[i].components for hs in trials], axis=1) for i in range(k)]
            for hs, lhs in zip(trials, dk_multilinear(F, zero, stacks)):
                rhs = np.zeros((n, n), dtype=np.complex128)
                for sigma in permutations(range(k)):
                    for w, c in part.sorted_terms():
                        m = np.eye(n, dtype=np.complex128)
                        for pos, letter in enumerate(w):
                            m = m @ hs[sigma[pos]][letter]
                        rhs += c * m
                worst = max(worst, _relnorm(lhs - rhs, rhs))
        return worst, cfg.trials * kmax, ""

    run(0, "gradedness", graded)
    run(1, "direct-sum", dsum)
    run(2, "similarity-intertwining", similarity)
    run(3, "unipotent-converse", unipotent)
    run(4, "scalar-point-scalarity", scalarity)
    run(5, "scalar-point-derivative", scalar_derivative)
    run(6, "delta-structure", structure)
    run(7, "delta-multilinearity", multilinear)
    run(8, "derivative-symmetry", symmetry)
    run(9, "taylor-polynomiality", taylor_polynomiality)
    return reports
