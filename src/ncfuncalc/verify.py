"""Executable structural properties of graded intertwining-preserving functions.

Every check returns a :class:`PropertyReport` rather than raising on
failure, its verdict a residual against the threshold that
:data:`THRESHOLDS` gives its report name.  The public checks take points as
stacks of shape (d, B, n, n), a :class:`~ncfuncalc.linalg.MatrixTuple` being
the lone form, check every sample, and evaluate F once per distinct
dimension.  :func:`run_suite` draws all the trials of each check first, with
seeded sampling so that identical configurations produce bitwise-identical
reports, scales them into the domain as stacks, and hands them to that check
as stacks.  The negative control handles in :mod:`ncfuncalc.ncfun`
(deliberately broken evaluators) make the suite's ability to fail itself
testable."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, permutations

import numpy as np

from .freepoly import FreePoly
from .linalg import (
    as_stack,
    as_stacks,
    direct_sum,
    inverse,
    operator_norm,
    relative,
    scalar_part,
)
from .ncderiv import delta_k, dk_multilinear, polarization
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


def _size(values) -> float:
    """The largest Frobenius norm among the matrices of ``values``, arrays (..., n, n)."""
    return max(float(np.linalg.norm(v, axis=(-2, -1)).max()) for v in values)


def _residual(gaps, values) -> float:
    """The largest gap a check finds relative to the largest value it compares, by :func:`_size`."""
    return float(relative(_size(gaps), _size(values)))


def _report(
    name: str, worst: float, trials: int = 1, seed: int | None = None, detail: str = ""
) -> PropertyReport:
    """A report read against the threshold that THRESHOLDS gives for ``name``."""
    return PropertyReport(name, trials, worst, THRESHOLDS[name], seed, detail)


def _values(F: NCFunctionHandle, stacks) -> list[np.ndarray]:
    """F at each stack of points, from one evaluation per distinct dimension."""
    out = [None] * len(stacks)
    for n in dict.fromkeys(s.shape[-1] for s in stacks):
        members = [i for i, s in enumerate(stacks) if s.shape[-1] == n]
        flat = F.eval(np.concatenate([stacks[i] for i in members], axis=1))
        for i, end in zip(members, accumulate(stacks[i].shape[1] for i in members)):
            out[i] = flat[end - stacks[i].shape[1] : end]
    return out


def check_direct_sum(F: NCFunctionHandle, xs) -> PropertyReport:
    """Evaluation at a direct sum must be the direct sum of the evaluations,
    sample by sample for stacks of T points."""
    stacks, lead = as_stacks(xs)
    whole = F.eval(direct_sum(stacks))
    pieces = direct_sum([v[None] for v in _values(F, stacks)])[0]
    return _report("direct-sum", _residual([whole - pieces], [whole, pieces]), math.prod(lead))


def _intertwining(F: NCFunctionHandle, x, L: np.ndarray, y) -> list[float]:
    """Each sample's ``||L F(x) - F(y) L|| / ||L||`` (0 where L is 0), relative
    to the largest Frobenius ``||F(x)||`` or ``||F(y)||`` of all the samples."""
    (xs, ys), lead = as_stacks([x, y])
    n, p, L = xs.shape[-1], ys.shape[-1], np.asarray(L, dtype=np.complex128)
    if L.shape[-2:] != (p, n):
        raise ValueError(f"L must be {p}x{n}, got {L.shape}")
    L = np.broadcast_to(L, (math.prod(lead), p, n))
    lnorm = operator_norm(L)
    pre = np.max(operator_norm(L @ xs - ys @ L), axis=0)
    bad = np.flatnonzero(relative(pre, lnorm) > PRECONDITION_TOL)
    if bad.size:
        raise PreconditionViolationError(
            f"L x differs from y L by {pre[bad[0]]:.3e}, not an intertwining pair"
        )
    fx, fy = _values(F, [xs, ys])
    gap = np.divide(operator_norm(L @ fx - fy @ L), lnorm, out=np.zeros(len(L)), where=lnorm > 0)
    return relative(gap, _size([fx, fy])).tolist()


def check_intertwining(F: NCFunctionHandle, x, L: np.ndarray, y) -> PropertyReport:
    """If L x = y L componentwise then L F(x) = F(y) L.

    ``L`` may be rectangular (y at dimension p, x at dimension n, L p-by-n),
    and a stack (T, p, n) for stacks of T points.  Raises
    :class:`PreconditionViolationError` when L x differs from y L.
    """
    residuals = _intertwining(F, x, L, y)
    return _report("intertwining", max(residuals), len(residuals))


def check_unipotent_converse(F: NCFunctionHandle, x, y, L: np.ndarray) -> PropertyReport:
    """Conjugated direct sums split: F(S^{-1} (x (+) y) S) = S^{-1} (F(x) (+) F(y)) S.

    S is the unipotent block matrix [[1, L], [0, 1]]; with L = 0 this reduces
    to the plain direct-sum property.  ``L`` is a stack (T, n, n) for stacks
    of T points.
    """
    (xs, ys), lead = as_stacks([x, y])
    trials, n, L = math.prod(lead), xs.shape[-1], np.asarray(L, dtype=np.complex128)
    if xs.shape[::2] != ys.shape[::2] or L.shape[-2:] != (n, n):
        raise ValueError(f"x and y must share arity and dimension n = {n}, L be {n}x{n}")
    L = np.broadcast_to(L, (trials, n, n))
    # S^{-1} (x (+) y) S has components [[x, xL - Ly], [0, y]].
    z = direct_sum([xs, ys])
    z[..., :n, n:] = xs @ L - L @ ys
    s = np.broadcast_to(np.eye(2 * n, dtype=np.complex128), (trials, 2 * n, 2 * n)).copy()
    sinv = s.copy()
    s[:, :n, n:], sinv[:, :n, n:] = L, -L
    expected = sinv @ direct_sum([v[None] for v in _values(F, [xs, ys])])[0] @ s
    value = F.eval(z)
    return _report("unipotent-converse", _residual([value - expected], [value, expected]), trials)


def check_delta_structure(F: NCFunctionHandle, xs, hs) -> PropertyReport:
    """The jet image must match the difference-differentials of every sub-chain.

    Block (i, j) above the diagonal is compared against an independently
    computed order-(j - i) delta of the base points x_i..x_j and directions
    h_i..h_{j-1}; diagonal blocks against F(x_i); below-diagonal blocks
    against zero.  Stacks of T points make T jets; the sub-chains of one
    order are one stacked :func:`delta_k` call.
    """
    hs = list(hs)
    stacks, lead = as_stacks([*xs, *hs])
    k, trials, n = len(hs), math.prod(lead), stacks[0].shape[-1]
    stacks = [np.broadcast_to(s, (len(s), trials, n, n)) for s in stacks]
    points, dirs = stacks[: k + 1], stacks[k + 1 :]
    values = [np.broadcast_to(v, (trials, n, n)) for v in _values(F, points)]
    res = delta_k(F, points, dirs, base_values=values)
    sub = {}  # sub[i, j][s] is the delta of sample s's sub-chain i..j
    for m in range(1, k):
        # Slot t of the order-m sub-chains i..i+m, stacked over i = 0..k-m.
        chains = [np.concatenate(group[t : t + k - m + 1], axis=-3) for group in (points, values)
                  for t in range(m + 1)]
        jets = delta_k(
            F,
            chains[: m + 1],
            [np.concatenate(dirs[t : t + k - m + 1], axis=1) for t in range(m)],
            base_values=chains[m + 1 :],
        )
        for i, deltas in enumerate(jets.delta.reshape(k - m + 1, trials, n, n)):
            sub[i, i + m] = deltas
    full = res.full_upper.reshape(trials, k + 1, n, k + 1, n)
    gaps = [full[:, i, :, j] - deltas for (i, j), deltas in sub.items()]
    gaps.append(np.reshape(res.structure_residual, (trials, 1, 1)))  # already a norm
    return _report("delta-structure", _residual(gaps, [res.full_upper, *sub.values()]), trials)


def check_symmetry(F: NCFunctionHandle, x, hs) -> PropertyReport:
    """The polarized derivative must equal the sum of the ordered jet corners.

    For an nc function, D^k F(x)[h_1, ..., h_k] (by polarization, from
    diagonal derivatives only) equals the sum over all k! orders sigma of
    delta_k(F, [x] * (k + 1), h_sigma).delta.  The two routes share no jet.
    ``hs`` are the k directions of ``x``, or for a stack of T points T lists
    of directions, whose orders may differ; the jets of one order are one
    stacked :func:`delta_k` call.  Orders up to 4 (24 ordered jets at k = 4).
    """
    base, lead = as_stack(x)
    trials = [list(t) for t in hs] if lead else [list(hs)]
    if len(trials) != base.shape[1] or not all(1 <= len(t) <= 4 for t in trials):
        raise ValueError("symmetry check needs one list of 1 to 4 directions per point")
    values, n = F.eval(base), base.shape[-1]
    pairs, jets = [], 0
    for k in sorted(set(map(len, trials))):
        idx = [t for t, directions in enumerate(trials) if len(directions) == k]
        # comps[i] holds direction i of every trial of order k: (d, T_k, n, n).
        comps = [np.stack([as_stack(trials[t][i])[0][:, 0] for t in idx], axis=1) for i in range(k)]
        sums, polarize = polarization(comps)
        orders = list(permutations(range(k)))
        tiles = 2**k - 1 + len(orders)
        deltas = delta_k(
            F,
            [np.concatenate([base[:, idx]] * tiles, axis=1)] * (k + 1),
            [np.concatenate([sums, *(comps[o[i]] for o in orders)], axis=1) for i in range(k)],
            base_values=[np.concatenate([values[idx]] * tiles)] * (k + 1),
        ).delta.reshape(tiles, len(idx), n, n)
        pairs.append((polarize(deltas[: 2**k - 1]), sum(deltas[2**k - 1 :])))  # polarized, ordered
        jets += len(orders) * len(idx)
    gaps = [a - b for a, b in pairs]
    return _report("derivative-symmetry", _residual(gaps, [v for p in pairs for v in p]), jets)


def recover_klinear(lam: NCFunctionHandle, k: int, probes) -> FreePoly:
    """Recover the homogeneous polynomial behind a k-linear graded map.

    ``lam`` is a handle in d*k variables, understood as k blocks of d; its
    diagonal k-th derivative at 0 is k! times the map itself, so the
    degree-k Taylor part reproduces it, so ``lam`` must evaluate stacked
    components (:func:`~ncfuncalc.taylor.taylor_expand`).  Linearity in the
    first block is spot-checked on the first two probes before extraction,
    so fewer than two probes raise ``ValueError``.
    """
    if k < 1:
        raise ValueError("order must be at least 1")
    if lam.arity % k != 0:
        raise ValueError(f"handle arity {lam.arity} is not divisible by {k}")
    probes = [list(p) for p in probes]
    if len(probes) < 2:
        raise ValueError(f"the linearity check needs two probes, got {len(probes)}")
    # k d-tuples, concatenated, are one point of lam: three points in one stack.
    a, b = (np.concatenate([as_stack(t)[0][:, 0] for t in p]) for p in probes[:2])
    d = lam.arity // k
    points = [np.concatenate([a[:d] + b[:d], a[d:]]), a, np.concatenate([b[:d], a[d:]])]
    lhs, *rhs = lam.eval(np.stack(points, axis=1))
    resid = _residual([lhs - sum(rhs)], [lhs, sum(rhs)])
    if resid > LINEARITY_TOL:
        raise NonLinearInputError(f"additivity in the first block fails by {resid:.3e}")
    return taylor_expand(lam, k).parts[k]


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
        # type(...) is int: a bool is not a count, and a JSON float is not one.
        for name, least in (("seed", 0), ("trials", 1), ("max_order", 2)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if self.max_order > 3:
            raise ValueError("max_order must be 2 or 3")
        for name in _DIMS_FIELDS:
            dims = tuple(getattr(self, name))
            if not dims or not all(type(n) is int and n >= 1 for n in dims):
                raise ValueError(f"{name} must be a non-empty list of dimensions of at least 1")
            object.__setattr__(self, name, dims)  # tuples keep the frozen config hashable

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown suite config key {sorted(unknown)[0]!r}")
        return cls(**data)


def _direction(rng: np.random.Generator, d: int, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((d, 2, n, n))  # real, imaginary part of each letter
    g = g[:, 0] + 1j * g[:, 1]
    return scale * g / np.maximum(operator_norm(g), 1e-12)[:, None, None]


def _draw_point(rng: np.random.Generator, F: NCFunctionHandle, n: int) -> tuple[float, np.ndarray]:
    size = 0.45 * min(F.domain.bound, 1.0) * float(rng.uniform(0.5, 1.0))
    return size, _direction(rng, F.arity, n)


def _draw_scalar_point(rng: np.random.Generator, F: NCFunctionHandle, n: int) -> tuple[float, np.ndarray]:
    size = 0.15 * min(F.domain.bound, 1.0) * float(rng.uniform(0.5, 1.0))
    scalars = rng.standard_normal(F.arity) + 1j * rng.standard_normal(F.arity)
    return size, scalars[:, None, None] * np.eye(n, dtype=np.complex128)


def _points(F: NCFunctionHandle, draws) -> np.ndarray:
    """The stack (d, B, n, n) of B drawn (size, direction) pairs, scaled into F's domain."""
    sizes, dirs = zip(*draws)
    return F.domain.rescale(np.stack(dirs, axis=1), sizes)


def _sample_similarity(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    s = np.eye(n, dtype=np.complex128) + 0.1 * _direction(rng, 1, n)[0]
    sinv = inverse(s)
    return s, sinv, operator_norm(s) * operator_norm(sinv)  # S, S^-1 and cond(S)


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

    def run(index: int, name: str, body, trials: int = cfg.trials, detail: str = "") -> None:
        rng = np.random.default_rng((cfg.seed, index))
        try:
            worst = body(rng)
        except Exception as exc:  # verdict, not crash
            worst, trials, detail = math.inf, 0, f"{type(exc).__name__}: {exc}"
        reports.append(_report(name, float(worst), trials, cfg.seed, detail))

    # Every check draws all its trials first, in the order of their samples,
    # scales each stack of points into the domain in one call, and evaluates
    # them as one stack per dimension.
    n, d = cfg.dims[0], F.arity
    kmax = cfg.max_order  # the Taylor check's top degree
    while d**kmax > 200 and kmax > 1:
        kmax -= 1

    def graded(rng):
        for m in cfg.graded_dims:
            F.eval(_points(F, [_draw_point(rng, F, m)])[:, 0])  # eval raises if grading breaks
        return 0.0

    def dsum(rng):
        # A 1x1 point in every sum: F at dimension 1 must agree with F above it.
        trials = [[_draw_point(rng, F, m) for m in (1, *cfg.dims)] for _ in range(cfg.trials)]
        return check_direct_sum(F, [_points(F, slot) for slot in zip(*trials)]).worst_residual

    def similarity(rng):
        trials = [(_draw_point(rng, F, n), *_sample_similarity(rng, n)) for _ in range(cfg.trials)]
        draws, sims, sinvs, conds = zip(*trials)
        xs, sims = _points(F, draws), np.array(sims)
        residuals = _intertwining(F, xs, sims, sims @ xs @ np.array(sinvs))
        return max(r / cond for r, cond in zip(residuals, conds))

    def unipotent(rng):
        trials = [
            (_draw_point(rng, F, n), _draw_point(rng, F, n), _direction(rng, 1, n, 0.2)[0])
            for _ in range(cfg.trials)
        ]
        xs, ys, ls = zip(*trials)
        return check_unipotent_converse(F, _points(F, xs), _points(F, ys), np.array(ls)).worst_residual

    def scalarity(rng):
        # F(a I_n) = F(a) I_n, F(a) at dimension 1 (a I_n is n copies of a summed):
        # the 1x1 points are one stacked evaluation, the n x n points one per n.
        points = [
            _points(F, [_draw_scalar_point(rng, F, m) for _ in range(cfg.trials)])
            for m in cfg.scalar_dims
        ]
        scalars = np.concatenate([xs[:, :, :1, :1] for xs in points], axis=1)
        cs = np.split(F.eval(scalars), len(points))
        values = [F.eval(xs) for xs in points]
        expected = [c * np.eye(m) for c, m in zip(cs, cfg.scalar_dims)]
        return _residual([v - e for v, e in zip(values, expected)], values + expected)

    def scalar_derivative(rng):
        # Coefficients from the unit directions, validated on fresh ones: one
        # call makes each trial's d unit jets and d sampled ones at its point.
        units = np.eye(d)[:, :, None, None] * np.eye(n)  # units[r] is e_r: (d, n, n)
        trials = [
            (_draw_scalar_point(rng, F, n), [_direction(rng, d, n, jet_scale) for _ in range(d)])
            for _ in range(cfg.trials)
        ]
        points = _points(F, [a for a, _ in trials])
        values = np.repeat(F.eval(points), 2 * d, axis=0)
        dirs = np.concatenate([np.concatenate([units, np.stack(hs, 1)], 1) for _, hs in trials], 1)
        points = np.repeat(points, 2 * d, axis=1)
        ders = delta_k(F, [points] * 2, [dirs], base_values=[values] * 2).delta
        ders = ders.reshape(-1, 2 * d, n, n)
        coeffs = scalar_part(ders[:, :d])[0]  # (trials, d): D F(a)[e_r] = c_r I
        # D F(a)[h] = sum_r c_r h_r, for the unit directions and the sampled ones.
        predicted = np.einsum("tr,rtjab->tjab", coeffs, dirs.reshape(d, -1, 2 * d, n, n))
        return _residual([ders - predicted], [ders, predicted])

    def structure(rng):
        trials = [
            ([_draw_point(rng, F, n) for _ in range(3)],
             [_direction(rng, d, n, jet_scale) for _ in range(2)])
            for _ in range(cfg.trials)
        ]
        draws, dirs = zip(*trials)
        hs = [np.stack(slot, axis=1) for slot in zip(*dirs)]
        return check_delta_structure(F, [_points(F, s) for s in zip(*draws)], hs).worst_residual

    def multilinear(rng):
        # One call makes each trial's four jets in directions (h1, h2),
        # (h1 + h1b, h2), (h1b, h2) and (h1, c h2).
        draws, pairs, cs = [], [], []
        for _ in range(cfg.trials):
            draws.append([_draw_point(rng, F, n) for _ in range(3)])
            h1, h1b, h2 = (_direction(rng, d, n, jet_scale) for _ in range(3))
            cs.append(complex(rng.standard_normal() + 1j * rng.standard_normal()))
            pairs += [(h1, h2), (h1 + h1b, h2), (h1b, h2), (h1, cs[-1] * h2)]
        points = [_points(F, slot) for slot in zip(*draws)]
        values = [np.repeat(v, 4, axis=0) for v in _values(F, points)]
        dirs = [np.stack(slot, axis=1) for slot in zip(*pairs)]
        ders = delta_k(F, [np.repeat(x, 4, axis=1) for x in points], dirs, base_values=values)
        base, added, other, scaled = ders.delta.reshape(-1, 4, n, n).transpose(1, 0, 2, 3)
        split, times = base + other, np.array(cs)[:, None, None] * base
        return _residual([added - split, scaled - times], [added, split, scaled, times])

    def symmetry(rng):
        draws, hs = [], []
        for k in range(2, cfg.max_order + 1):
            draws.append(_draw_point(rng, F, n))
            hs.append([_direction(rng, d, n, jet_scale) for _ in range(k)])
        return check_symmetry(F, _points(F, draws), hs).worst_residual

    def taylor_polynomiality(rng):
        expansion = taylor_expand(F, kmax)
        pairs = []
        zero = np.zeros((d, 2, 2), dtype=np.complex128)
        at_zero = [F.eval(zero)]
        for k in range(1, kmax + 1):
            # One stacked call per order; both sides polarize the same subset sums.
            trials = [[_direction(rng, d, 2, jet_scale) for _ in range(k)] for _ in range(cfg.trials)]
            stacks = [np.stack(slot, axis=1) for slot in zip(*trials)]
            lhs = dk_multilinear(F, zero, stacks, base_values=at_zero * (k + 1))
            sums, polarize = polarization(stacks)
            pairs.append((lhs, polarize(expansion.parts[k].evaluate(sums))))
        return _residual([a - b for a, b in pairs], [v for p in pairs for v in p])

    run(0, "gradedness", graded, len(cfg.graded_dims))
    run(1, "direct-sum", dsum)
    run(2, "similarity-intertwining", similarity, detail="residual divided by cond(S)")
    run(3, "unipotent-converse", unipotent)
    run(4, "scalar-point-scalarity", scalarity, len(cfg.scalar_dims) * cfg.trials)
    run(5, "scalar-point-derivative", scalar_derivative)
    run(6, "delta-structure", structure)
    run(7, "delta-multilinearity", multilinear)
    run(8, "derivative-symmetry", symmetry, cfg.max_order - 1)
    run(9, "taylor-polynomiality", taylor_polynomiality, cfg.trials * kmax)
    return reports
