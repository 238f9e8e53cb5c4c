"""Taylor expansion at the scalar point 0 and Cauchy-type tail bounds.

The coefficient of a word w = (j_1, ..., j_k) is read off one
difference-differential jet: at zero base points with the unit directions
e_{j_1}, ..., e_{j_k}, the (1, k+1) jet block is the scalar coefficient
times the identity.  The words of one length are extracted in blocks, each
one stacked :func:`~ncfuncalc.ncderiv.delta_k` call and so one evaluation
of F per block, not one per word; a block holds as many words as keep its
jet components within ``JET_BLOCK_BYTES`` (at least one).  Extractions run
at base dimension 1 by default; re-running at a larger dimension
cross-checks that the block really is scalar.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .freepoly import FreePoly, Word, grlex_key
from .linalg import MatrixTuple, operator_norm
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
JET_BLOCK_BYTES = 16 * 2**10


class ExtractionError(ArithmeticError):
    """Coefficient extraction failed; ``word`` names the offending monomial."""

    def __init__(self, message: str, word: Word | None = None):
        super().__init__(message)
        self.word = word


class NonScalarResultError(ExtractionError):
    """The extracted jet block was not a scalar multiple of the identity."""


def _scalars(blocks: np.ndarray, words) -> tuple[np.ndarray, np.ndarray]:
    """The scalars c and residuals of a stack of square ``blocks``, each read
    as c times the identity (the numbers :func:`~ncfuncalc.linalg.scalar_part`
    gives), for ``words`` (F(0) for the empty word).  Raises
    :class:`NonScalarResultError` at the first word whose residual exceeds
    ``SCALAR_TOL`` relative to ``max(1, |c|)``."""
    n = blocks.shape[-1]
    c = np.trace(blocks, axis1=-2, axis2=-1) / n
    resid = np.abs(blocks - c[:, None, None] * np.eye(n)).max(axis=(-2, -1))
    bad = np.flatnonzero(resid > SCALAR_TOL * np.maximum(1.0, np.abs(c)))
    if bad.size:
        word, r = words[bad[0]], resid[bad[0]]
        where = f"extraction at word {word}" if word else "value at the scalar point 0"
        raise NonScalarResultError(f"{where} is not scalar (residual {r:.3e})", word=word)
    return c, resid


@cache
def _words(d: int, k: int) -> tuple[tuple[Word, ...], np.ndarray]:
    """The words of length k in d letters, in graded lexicographic order, and
    their letters as a read-only array of shape (d^k, k).  Built once per
    (d, k), so every expansion keys its terms with the same word tuples."""
    words = tuple(itertools.product(range(d), repeat=k))
    letters = np.array(words, dtype=np.intp).reshape(len(words), k)
    letters.setflags(write=False)
    return words, letters


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
        terms: dict[Word, complex] = {}
        for p in self.parts:
            for w, c in p.terms.items():
                terms[w] = terms.get(w, 0) + c
        return FreePoly(self.parts[0].arity, terms)

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
    once; the words of each length, in graded lexicographic order, then cost
    one stacked :func:`~ncfuncalc.ncderiv.delta_k` call per block (module
    docstring), so F must evaluate stacked components.  Coefficients below
    1e-12 in magnitude are dropped as extraction noise; the algebra itself
    never prunes, this is purely a numeric cutoff.  Each block's jets start
    from the scale the last word of the block before settled on, so the
    halving toward the domain is paid about once per expansion.
    """
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    d = F.arity
    total_words = sum(d**k for k in range(1, maxdeg + 1))
    if total_words > word_cap:
        raise ValueError(
            f"expansion needs {total_words} word extractions, above the cap {word_cap}"
        )

    zero = MatrixTuple.zeros(d, dim)
    units = np.eye(d)[:, :, None, None] * np.eye(dim)  # units[j] is e_j: (d, dim, dim)
    v0 = F.eval(zero)
    (c0,), (r0,) = _scalars(v0[None], [()])
    residuals: dict[Word, float] = {(): float(r0)}
    parts = [FreePoly.constant(d, c0) if abs(c0) > COEFF_PRUNE else FreePoly.zero(d)]

    eps = 1.0
    for k in range(1, maxdeg + 1):
        words, letters = _words(d, k)
        bases, base_values = [zero] * (k + 1), [v0] * (k + 1)
        block = max(1, JET_BLOCK_BYTES // (16 * d * ((k + 1) * dim) ** 2))
        terms: dict[Word, complex] = {}
        for start in range(0, len(words), block):
            chunk = words[start : start + block]
            # hs[i] holds the i-th direction of every word: shape (d, B, dim, dim).
            hs = units[letters[start : start + block].T].transpose(0, 2, 1, 3, 4)
            try:
                res = delta_k(F, bases, hs, epsilon=eps, base_values=base_values)
            except StructureViolationError as exc:
                w = chunk[exc.sample]
                raise ExtractionError(f"jet structure violated at word {w}: {exc}", word=w) from exc
            cs, resids = _scalars(res.delta, chunk)
            eps = float(res.epsilon[-1])
            for w, c, r in zip(chunk, cs.tolist(), resids.tolist()):
                residuals[w] = r
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
