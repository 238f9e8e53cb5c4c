"""Taylor expansion at the scalar point 0 and Cauchy-type tail bounds.

At zero base points with the unit directions e_{j_1}, ..., e_{j_k}, block
(0, i) of F on the jet is the i-th difference-differential in the first i
directions (the block upper triangular formula of Kaliuzhnyi-Verbovetskyi
and Vinnikov): the coefficient of the prefix (j_1, ..., j_i) times the
identity.  So one jet of a word gives the coefficients of all its prefixes,
and only the d^K words of the top length K = ``maxdeg`` get jets.  A word u
of length j < K is read off the jet of ``u + (0,) * (K - j)``, the first
top-length word in graded lexicographic order that it prefixes: top-length
word t owns its length-j prefix exactly when its last K - j letters are 0.
A cached boolean mask of shape (d^K, K) records that ownership; the owners
of length j are every d^(K-j)-th top-length word, in the order of the
length-j words.  The top-length words are extracted in blocks, each one
stacked :func:`~ncfuncalc.ncderiv.delta_k` call and so one evaluation of F
per block, not one per word; a block holds as many words as keep its jet
components within ``JET_BLOCK_BYTES`` (at least one): 18 words at d = 3,
K = 5, so 16 evaluations of F in all, F(0) and a first block of one word
included.  Extractions run at base dimension 1 by default; re-running at a
larger dimension cross-checks that the blocks really are scalar.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cache

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
JET_BLOCK_BYTES = 32 * 2**10


class ExtractionError(ArithmeticError):
    """Coefficient extraction failed; ``word`` names the offending monomial."""

    def __init__(self, message: str, word: Word | None = None):
        super().__init__(message)
        self.word = word


class NonScalarResultError(ExtractionError):
    """The extracted jet block was not a scalar multiple of the identity."""


def _scalars(blocks: np.ndarray, name) -> tuple[np.ndarray, np.ndarray]:
    """The numbers :func:`~ncfuncalc.linalg.scalar_part` gives for a stack of
    square ``blocks``, each read as c times the identity: F(0), or the blocks
    (0, j) of the prefixes a block of jets owns.  Raises
    :class:`NonScalarResultError` at the first block whose residual exceeds
    ``SCALAR_TOL`` relative to ``max(1, |c|)``, naming its word ``name(i)``
    (the empty word for F(0))."""
    c, resid = scalar_part(blocks)
    bad = np.flatnonzero(resid > SCALAR_TOL * np.maximum(1.0, np.abs(c)))
    if bad.size:
        word, r = name(bad[0]), resid[bad[0]]
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


@cache
def _owners(d: int, k: int) -> np.ndarray:
    """The ownership mask of the words of length k (module docstring): entry
    (t, j - 1) says top-length word t owns its length-j prefix, that is, t is
    a multiple of d^(k - j).  Read-only, built once per (d, k)."""
    mask = np.arange(d**k)[:, None] % d ** (k - np.arange(1, k + 1)) == 0
    mask.setflags(write=False)
    return mask


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
        return sum(self.parts, FreePoly.zero(self.parts[0].arity))

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
    once; only the words of length ``maxdeg``, in graded lexicographic
    order, get jets, one stacked :func:`~ncfuncalc.ncderiv.delta_k` call per
    block, so F must evaluate stacked components.  Every shorter word is
    read off block (0, j) of the jet of the first top-length word it
    prefixes (module docstring).  Coefficients below 1e-12 in magnitude are
    dropped as extraction noise; the algebra itself never prunes, this is
    purely a numeric cutoff.  The first block holds one word and every later
    block starts from the scale that word settled on, so the halving toward
    the domain is paid about once per expansion.

    An :class:`ExtractionError` from a jet that breaks block upper
    triangular form names the top-length word of that jet; a
    :class:`NonScalarResultError` names the first non-scalar word in reading
    order: block by block, each word's prefixes shorter first.
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
    v0 = F.eval(zero)
    (c0,), (r0,) = _scalars(v0[None], lambda i: ())
    residuals: dict[Word, float] = {(): float(r0)}
    parts = [FreePoly.constant(d, c0) if abs(c0) > COEFF_PRUNE else FreePoly.zero(d)]
    if maxdeg == 0:
        return TaylorExpansion(parts, residuals, F.domain.kind, F.domain.balanced)

    k1 = maxdeg + 1
    top, letters = _words(d, maxdeg)
    owners = _owners(d, maxdeg)
    units = np.eye(d)[:, :, None, None] * np.eye(dim)  # units[j] is e_j: (d, dim, dim)
    bases, base_values = [zero] * k1, [v0] * k1
    block = max(1, JET_BLOCK_BYTES // (16 * d * (k1 * dim) ** 2))
    starts = [0, *range(1, len(top), block)]
    # Entry (t, j - 1) holds the coefficient and residual of the length-j
    # prefix of top-length word t, where t owns it.
    coeffs = np.empty(owners.shape, dtype=np.complex128)
    resids = np.empty(owners.shape)
    eps = 1.0
    for start, stop in zip(starts, [*starts[1:], len(top)]):
        # hs[i] holds the i-th direction of every word: shape (d, B, dim, dim).
        hs = units[letters[start:stop].T].transpose(0, 2, 1, 3, 4)
        try:
            res = delta_k(F, bases, hs, epsilon=eps, base_values=base_values)
        except StructureViolationError as exc:
            w = top[start + exc.sample]
            raise ExtractionError(f"jet structure violated at word {w}: {exc}", word=w) from exc
        if start == 0:
            eps = float(res.epsilon[0])
        owned = owners[start:stop]
        ts, js = np.nonzero(owned)  # word by word, each word's shorter prefixes first
        jets = res.full_upper.reshape(stop - start, k1, dim, k1, dim)
        cs, rs = _scalars(jets[ts, 0, :, js + 1, :], lambda i: top[start + ts[i]][: js[i] + 1])
        coeffs[start:stop][owned], resids[start:stop][owned] = cs, rs

    for k in range(1, k1):
        step = d ** (maxdeg - k)
        cs, rs = coeffs[::step, k - 1].tolist(), resids[::step, k - 1].tolist()
        terms: dict[Word, complex] = {}
        for w, c, r in zip(_words(d, k)[0], cs, rs):
            residuals[w] = r
            if abs(c) > COEFF_PRUNE:
                terms[w] = c
        parts.append(FreePoly(d, terms))

    return TaylorExpansion(parts, residuals, F.domain.kind, F.domain.balanced)


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
