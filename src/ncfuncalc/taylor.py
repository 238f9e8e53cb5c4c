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
import math
from dataclasses import dataclass, field

import numpy as np

from .freepoly import FreePoly, Word, grlex_key
from .linalg import MatrixTuple, operator_norm
from .ncderiv import StructureViolationError, delta_k, jet_epsilon
from .ncfun import NCFunctionHandle

__all__ = [
    "ExtractionError",
    "NonScalarResultError",
    "TaylorExpansion",
    "word_coefficient",
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


def _extract(
    F: NCFunctionHandle,
    word: Word,
    zero: MatrixTuple,
    units: list[MatrixTuple],
    epsilon: float,
    value_at_zero: np.ndarray | None = None,
) -> tuple[complex, float]:
    """Return (coefficient, scalarity residual) of ``word`` from one jet.

    ``units`` are the unit directions at the dimension of ``zero`` and
    ``epsilon`` their jet scale; ``value_at_zero``, when given, is the
    already-checked F(0).
    """
    k = len(word)
    dim = zero.dim
    base_values = None if value_at_zero is None else [value_at_zero] * (k + 1)
    try:
        res = delta_k(
            F,
            [zero] * (k + 1),
            [units[j] for j in word],
            epsilon=epsilon,
            base_values=base_values,
        )
    except StructureViolationError as exc:
        raise ExtractionError(f"jet structure violated at word {word}: {exc}", word=word) from exc
    block = res.delta
    c = complex(np.trace(block) / dim)
    resid = float(np.abs(block - c * np.eye(dim)).max())
    if resid > SCALAR_TOL * max(1.0, abs(c)):
        raise NonScalarResultError(
            f"extraction at word {word} is not scalar (residual {resid:.3e})", word=word
        )
    return c, resid


def _extraction_frame(
    F: NCFunctionHandle, dim: int
) -> tuple[MatrixTuple, list[MatrixTuple], float]:
    """The zero point and the unit directions at ``dim``, and their jet scale."""
    d = F.arity
    zero = MatrixTuple.zeros(d, dim)
    units = [MatrixTuple.unit_direction(d, j, dim) for j in range(d)]
    return zero, units, jet_epsilon(F.domain, [zero], units)


def word_coefficient(F: NCFunctionHandle, word, *, dim: int = 1) -> complex:
    """Scalar coefficient of the monomial ``word`` in the expansion at 0.

    Raises :class:`NonScalarResultError` when the extracted block deviates
    from a scalar by more than ``SCALAR_TOL`` relative to its size, which
    signals that the handle is not intertwining preserving.
    """
    w = tuple(int(j) for j in word)
    if len(w) < 1:
        raise ValueError("use eval at the zero tuple for the degree-0 part")
    if any(j < 0 or j >= F.arity for j in w):
        raise ValueError(f"word {w} uses letters outside [0, {F.arity})")
    c, _ = _extract(F, w, *_extraction_frame(F, dim))
    return c


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

    def evaluate(self, x: MatrixTuple) -> np.ndarray:
        return self.as_poly().evaluate(x)

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

    Coefficients below 1e-12 in magnitude are dropped as extraction noise;
    the algebra itself never prunes, this is purely a numeric cutoff.
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
    zero, units, eps = _extraction_frame(F, dim)
    v0 = F.eval(zero)
    c0 = complex(np.trace(v0) / dim)
    residuals[()] = float(np.abs(v0 - c0 * np.eye(dim)).max())
    if residuals[()] > SCALAR_TOL * max(1.0, abs(c0)):
        raise NonScalarResultError(
            f"value at the scalar point 0 is not scalar (residual {residuals[()]:.3e})",
            word=(),
        )
    parts = [FreePoly.constant(d, c0) if abs(c0) > COEFF_PRUNE else FreePoly.zero(d)]

    for k in range(1, maxdeg + 1):
        terms: dict[Word, complex] = {}
        for w in _words_of_length(d, k):
            c, residuals[w] = _extract(F, w, zero, units, eps, v0)
            if abs(c) > COEFF_PRUNE:
                terms[w] = c
        parts.append(FreePoly(d, terms))

    return TaylorExpansion(
        parts=parts,
        residuals=residuals,
        domain_kind=F.domain.kind,
        balanced=F.domain.balanced,
    )


def _words_of_length(d: int, k: int):
    if k == 0:
        yield ()
        return
    for prefix in _words_of_length(d, k - 1):
        for j in range(d):
            yield prefix + (j,)


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
