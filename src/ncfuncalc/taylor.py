"""Taylor expansion at the scalar point 0 and Cauchy-type tail bounds.

The coefficient of a word w = (j_1, ..., j_k) is read off one
difference-differential evaluation: at zero base points with the unit
directions e_{j_1}, ..., e_{j_k}, the (1, k+1) jet block is the scalar
coefficient times the identity.  Extractions run at base dimension 1 by
default; re-running at a larger dimension cross-checks that the block
really is scalar.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .freepoly import FreePoly, Word, grlex_key
from .linalg import MatrixTuple, operator_norm, scalar_part
from .ncderiv import StructureViolationError, delta_k
from .ncfun import NCFunctionHandle

__all__ = [
    "ExtractionError",
    "NonScalarResultError",
    "TaylorExpansion",
    "taylor_expand",
    "tail_bound",
    "circle_norm_estimate",
    "WORD_CAP",
]

WORD_CAP = 5_000
SCALAR_TOL = 1e-8
COEFF_PRUNE = 1e-12
CIRCLE_SAMPLES = 64
CIRCLE_INFLATE = 1.1


class ExtractionError(ArithmeticError):
    """Coefficient extraction failed; ``word`` names the offending monomial."""

    def __init__(self, message: str, word: Word | None = None):
        super().__init__(message)
        self.word = word


class NonScalarResultError(ExtractionError):
    """The extracted jet block was not a scalar multiple of the identity."""


def _scalar(block: np.ndarray, word: Word) -> tuple[complex, float]:
    """The scalar c and residual of ``block`` as c times the identity, read
    for ``word`` (F(0) for the empty word); raises :class:`NonScalarResultError`
    when the residual exceeds ``SCALAR_TOL`` relative to ``max(1, |c|)``."""
    c, resid = scalar_part(block)
    if resid > SCALAR_TOL * max(1.0, abs(c)):
        where = f"extraction at word {word}" if word else "value at the scalar point 0"
        raise NonScalarResultError(f"{where} is not scalar (residual {resid:.3e})", word=word)
    return c, resid


@dataclass
class TaylorExpansion:
    """Homogeneous parts of the expansion plus per-word extraction residuals.

    ``balanced`` records whether the handle's domain is known to be closed
    under scalar multiplication by the closed unit disk (norm balls are);
    for a general delta ball that is unknown and the expansion's global
    validity is not certified.
    """

    parts: list[FreePoly]
    residuals: dict[Word, float] = field(default_factory=dict)
    domain_kind: str = "polydisk"
    balanced: bool | None = True

    def as_poly(self) -> FreePoly:
        out = FreePoly.zero(self.parts[0].arity)
        for p in self.parts:
            out = out + p
        return out

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def diagnostics(self) -> dict:
        return {
            "domain_kind": self.domain_kind,
            "balanced_domain": self.balanced,
            "max_residual": self.max_residual(),
            "residuals": [
                {"word": list(w), "residual": r}
                for w, r in sorted(self.residuals.items(), key=lambda kv: grlex_key(kv[0]))
            ],
        }


def taylor_expand(
    F: NCFunctionHandle, maxdeg: int, *, dim: int = 1, word_cap: int = WORD_CAP
) -> TaylorExpansion:
    """Extract the homogeneous parts of F at 0 through degree ``maxdeg``.

    The zero point, the unit directions and the checked F(0) are built
    once; each word, in graded lexicographic order, then costs one
    :func:`~ncfuncalc.ncderiv.delta_k` call.  Coefficients below 1e-12 in
    magnitude are dropped as extraction noise; the algebra itself never
    prunes, this is purely a numeric cutoff.  Each word's jet starts from
    the scale the previous word settled on, so the halving toward the domain
    is paid about once per expansion.
    """
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    d = F.arity
    total_words = sum(d**k for k in range(1, maxdeg + 1))
    if total_words > word_cap:
        raise ValueError(
            f"expansion needs {total_words} word extractions, above the cap {word_cap}"
        )

    residuals: dict[Word, float] = {}
    zero = MatrixTuple.zeros(d, dim)
    units = [MatrixTuple.unit_direction(d, j, dim) for j in range(d)]
    v0 = F.eval(zero)
    c0, residuals[()] = _scalar(v0, ())
    parts = [FreePoly.constant(d, c0) if abs(c0) > COEFF_PRUNE else FreePoly.zero(d)]

    eps = 1.0
    for k in range(1, maxdeg + 1):
        terms: dict[Word, complex] = {}
        bases, base_values = [zero] * (k + 1), [v0] * (k + 1)
        for w in itertools.product(range(d), repeat=k):
            try:
                res = delta_k(F, bases, [units[j] for j in w], epsilon=eps, base_values=base_values)
            except StructureViolationError as exc:
                raise ExtractionError(f"jet structure violated at word {w}: {exc}", word=w) from exc
            c, residuals[w] = _scalar(res.delta, w)
            eps = res.epsilon
            if abs(c) > COEFF_PRUNE:
                terms[w] = c
        parts.append(FreePoly(d, terms))

    return TaylorExpansion(
        parts=parts,
        residuals=residuals,
        domain_kind=F.domain.kind,
        balanced=F.domain.balanced,
    )


def tail_bound(M: float, r: float, K: int) -> float:
    """Geometric bound on the norm of the dropped tail past degree K.

    Valid when the disk of radius r times the point stays in the domain and
    M bounds the function on the circle of radius (1 + r) / 2: each
    homogeneous part is bounded by M * rho^k with rho = 2 / (1 + r), so the
    tail is at most M * rho^(K+1) / (1 - rho).
    """
    if not r > 1:
        raise ValueError("the dilation radius must exceed 1")
    if M < 0:
        raise ValueError("the circle bound must be nonnegative")
    rho = 2.0 / (1.0 + r)
    return M * rho ** (K + 1) / (1.0 - rho)


def circle_norm_estimate(F: NCFunctionHandle, x: MatrixTuple, r: float) -> float:
    """Sampled stand-in for the supremum of ||F(zeta x)|| on |zeta| = (1+r)/2.

    Takes the max over ``CIRCLE_SAMPLES`` equispaced points on the circle and
    inflates it by the safety factor ``CIRCLE_INFLATE``; an estimate for use
    with :func:`tail_bound`, not a certificate.
    """
    if not r > 1:
        raise ValueError("the dilation radius must exceed 1")
    radius = (1.0 + r) / 2.0
    worst = 0.0
    for t in range(CIRCLE_SAMPLES):
        zeta = radius * cmath.exp(2j * math.pi * t / CIRCLE_SAMPLES)
        worst = max(worst, operator_norm(F.eval(zeta * x)))
    return CIRCLE_INFLATE * worst
