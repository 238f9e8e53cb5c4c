"""Taylor expansion at the scalar point 0 and Cauchy-type tail bounds.

At zero base points with the unit directions e_{j_1}, ..., e_{j_k}, block
(i, j) of F on the jet is the (j - i)-th difference-differential in
directions i + 1 through j (the block upper triangular formula of
Kaliuzhnyi-Verbovetskyi and Vinnikov): the coefficient of the sub-word
(j_{i+1}, ..., j_j) times the identity.  So one jet of a word gives the
coefficients of all its substrings, and jets that together contain every
word of length K = ``maxdeg`` as a substring give the whole expansion.  A de
Bruijn sequence B(d, K) (de Bruijn, 1946) holds every length-K word exactly
once as a cyclic window; linearized, by repeating its first K - 1 letters,
it has length d^K + K - 1.  It is cut into chunks of length L = 2K - 2
(at least K, at most the whole sequence) that overlap by K - 1 letters, the
last chunk ending where the sequence ends, so every length-K word, and with
it every shorter word, lies inside some chunk.  Each chunk is the word of one
covering jet: 61 jets of length 8 at d = 3, K = 5, in place of 243 of length
5, and one jet of length K at d = 1.  Every word of length 1..K is read at
its first occurrence (jet, start), from block (start, start + |w|); a
cached, read-only table per (d, K) records those positions.  The jets are
extracted in blocks, each one stacked :func:`~ncfuncalc.ncderiv.delta_k`
call and so one evaluation of F per block, not one per jet; a block holds as
many jets as keep its jet components within ``JET_BLOCK_BYTES`` (at least
one): 4 jets of 9 x 9 at d = 3, K = 5, so 17 evaluations of F in all, F(0)
included.  Extractions run at base dimension 1 by default, where every
extracted block is 1 x 1: each per-word residual is 0 by construction and
:class:`NonScalarResultError` cannot fire, so scalarity is tested only at a
base dimension ``dim`` of 2 or more.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .freepoly import FreePoly, Word, grlex_key
from .linalg import as_stack, operator_norm, relative, scalar_part, unstack
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
    """The numbers :func:`~ncfuncalc.linalg.scalar_part` gives for a stack of
    square ``blocks``, each read as c times the identity: F(0), or the blocks
    (start, start + |w|) of the words w the covering jets read.  Raises
    :class:`NonScalarResultError` at the first block whose residual exceeds
    ``SCALAR_TOL`` relative to ``|c|``, naming its word ``words[i]`` (the
    empty word for F(0))."""
    c, resid = scalar_part(blocks)
    bad = np.flatnonzero(relative(resid, np.abs(c)) > SCALAR_TOL)
    if bad.size:
        word, r = words[bad[0]], resid[bad[0]]
        where = f"extraction at word {word}" if word else "value at the scalar point 0"
        raise NonScalarResultError(f"{where} is not scalar (residual {r:.3e})", word=word)
    return c, resid


def _de_bruijn(d: int, k: int) -> list[int]:
    """The de Bruijn sequence B(d, k), linearized: d^k + k - 1 letters with
    every word of length k exactly once as a window.  B(d, k) is the
    concatenation, in lexicographic order, of the Lyndon words whose length
    divides k (Fredricksen and Maiorana), generated by Duval's algorithm."""
    seq, w = [], [-1]
    while w:
        w[-1] += 1
        if k % len(w) == 0:
            seq += w
        w = [w[i % len(w)] for i in range(k)]
        while w and w[-1] == d - 1:
            w.pop()
    return [seq[i % len(seq)] for i in range(d**k + k - 1)]


class _Cover(NamedTuple):
    """The covering jets of the words of length 1..k (module docstring).

    ``letters`` holds each jet's word, shape (jets, L).  Every word of
    length 1..k is read once, in reading order (jet by jet, start by start,
    shorter first): its first occurrence is block (``start``, ``stop``) of
    jet ``jet``, ``index`` is its place in ``words``, the words of length
    1..k in graded lexicographic order, and ``read`` the word itself.
    """

    letters: np.ndarray
    jet: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    index: np.ndarray
    read: tuple[Word, ...]
    words: tuple[Word, ...]


@cache
def _cover(d: int, k: int) -> _Cover:
    """The covering table of the words of length 1..k in d letters, with
    read-only arrays.  Built once per (d, k), so every expansion keys its
    terms with the same word tuples."""
    seq = _de_bruijn(d, k)
    size = min(max(k, 2 * k - 2), len(seq))
    firsts = list(range(0, len(seq) - size + 1, size - k + 1))
    if firsts[-1] + size < len(seq):
        firsts.append(len(seq) - size)
    chunks = [seq[f : f + size] for f in firsts]
    words = tuple(w for j in range(1, k + 1) for w in itertools.product(range(d), repeat=j))
    indices = {w: i for i, w in enumerate(words)}
    reads: dict[int, tuple[int, int, int]] = {}
    for t, chunk in enumerate(chunks):
        for i in range(size):
            for j in range(i + 1, min(i + k, size) + 1):
                reads.setdefault(indices[tuple(chunk[i:j])], (t, i, j))
    jet, start, stop = np.array(list(reads.values()), dtype=np.intp).T
    index = np.array(list(reads), dtype=np.intp)
    read = tuple(words[i] for i in reads)
    table = _Cover(np.array(chunks, dtype=np.intp), jet, start, stop, index, read, words)
    for a in table[:-2]:
        a.setflags(write=False)
    return table


@dataclass
class TaylorExpansion:
    """Homogeneous parts of the expansion plus per-word extraction residuals.

    ``balanced`` records whether the handle's domain is known to be closed
    under scalar multiplication by the closed unit disk (norm balls and
    balls of a homogeneous delta are); for any other delta ball that is
    unknown and the expansion's global validity is not certified.
    """

    parts: list[FreePoly]
    residuals: dict[Word, float] = field(default_factory=dict)
    domain_kind: str = "polydisk"
    balanced: bool | None = True

    def as_poly(self) -> FreePoly:
        """The sum of the parts; a word in two parts gets their sum."""
        arity, terms = self.parts[0].arity, {}
        if any(part.arity != arity for part in self.parts):
            raise ValueError("free polynomials of different arity")
        for part in self.parts:
            for w, c in part.terms.items():
                terms[w] = terms.get(w, 0) + c
        return FreePoly(arity, terms)

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


def taylor_expand(F: NCFunctionHandle, maxdeg: int, *, dim: int = 1) -> TaylorExpansion:
    """Extract the homogeneous parts of F at 0 through degree ``maxdeg``.

    F(0) is evaluated once, with the domain check, and the covering jets
    (module docstring) in stacked blocks, so F must evaluate stacks.
    A coefficient, F(0) included, is kept exactly when the jets read it as
    nonzero, as :class:`FreePoly` keeps terms; on a realization that is not
    minimal, an exact zero shows its roundoff.  ``dim``, at least 1, is the
    base dimension.  More than ``WORD_CAP`` words of degrees 1 to ``maxdeg``
    raise ``ValueError`` before any evaluation.

    An :class:`ExtractionError` from a jet that breaks block upper
    triangular form names that jet's word, a chunk of the de Bruijn
    sequence; a :class:`NonScalarResultError` names the first non-scalar
    word in reading order (jet by jet, start by start, shorter words first),
    and comes before an error of any later block of jets.
    """
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    d = F.arity
    total_words = sum(d**k for k in range(1, maxdeg + 1))
    if total_words > WORD_CAP:
        raise ValueError(f"expansion needs {total_words} word extractions, above the cap {WORD_CAP}")

    zero = np.zeros((d, dim, dim), dtype=np.complex128)  # the lone point 0
    v0 = F.eval(zero)
    words, (coeffs, resids) = ((),), _scalars(v0[None], [()])
    if maxdeg:
        words += _cover(d, maxdeg).words
        cs, rs = _jets(F, maxdeg, zero, v0)
        coeffs, resids = np.concatenate([coeffs, cs]), np.concatenate([resids, rs])
    terms: list[dict[Word, complex]] = [{} for _ in range(maxdeg + 1)]
    for i in np.flatnonzero(coeffs).tolist():
        terms[len(words[i])][words[i]] = complex(coeffs[i])
    parts, residuals = [FreePoly(d, t) for t in terms], dict(zip(words, resids.tolist()))
    return TaylorExpansion(parts, residuals, F.domain.kind, F.domain.balanced)


def _jets(F: NCFunctionHandle, maxdeg: int, zero, v0) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and residuals of ``_cover(d, maxdeg).words``, from the jets at ``zero``."""
    d, dim = F.arity, zero.shape[-1]
    cover = _cover(d, maxdeg)
    jets, size1 = len(cover.letters), cover.letters.shape[1] + 1
    units = np.eye(d)[:, :, None, None] * np.eye(dim)  # units[j] is e_j: (d, dim, dim)
    bases, base_values = [zero] * size1, [v0] * size1
    block = max(1, JET_BLOCK_BYTES // (16 * d * (size1 * dim) ** 2))
    firsts = range(0, jets, block)
    # dirs[i] holds the i-th direction of every jet: shape (d, jets, dim, dim).
    dirs = units[cover.letters.T].transpose(0, 2, 1, 3, 4)
    # reads[i] is the block of the table's entry i, filled block of jets by block.
    reads = np.empty((len(cover.jet), dim, dim), dtype=np.complex128)
    lo = 0
    for first, last in zip(firsts, [*firsts[1:], jets]):
        try:
            res = delta_k(F, bases, dirs[:, :, first:last], base_values=base_values)
        except Exception as exc:
            _scalars(reads[:lo], cover.read)  # a non-scalar word read before it is reported first
            if not isinstance(exc, StructureViolationError):
                raise
            w = tuple(cover.letters[first + exc.sample].tolist())
            raise ExtractionError(f"jet structure violated at word {w}: {exc}", word=w) from exc
        hi = int(np.searchsorted(cover.jet, last))
        blocks = res.full_upper.reshape(last - first, size1, dim, size1, dim)
        reads[lo:hi] = blocks[cover.jet[lo:hi] - first, cover.start[lo:hi], :, cover.stop[lo:hi], :]
        lo = hi
    # Entry i holds the coefficient and residual of cover.words[i]: argsort inverts index.
    return tuple(a[np.argsort(cover.index)] for a in _scalars(reads, cover.read))


def tail_bound(M: float, r: float, K: int) -> float:
    """Geometric bound on the norm of the dropped tail past degree K.

    Valid when the disk of radius r times the point stays in the domain and
    M bounds the function on the circle of radius (1 + r) / 2: each
    homogeneous part is bounded by M * rho^k with rho = 2 / (1 + r), so the
    tail is at most M * rho^(K+1) / (1 - rho).
    """
    if not r > 1:
        raise ValueError("the dilation radius must exceed 1")
    if not M >= 0:
        raise ValueError("the circle bound must be nonnegative")
    if not isinstance(K, (int, np.integer)) or K < 0:
        raise ValueError(f"the degree K must be a nonnegative integer, got {K!r}")
    rho = 2.0 / (1.0 + r)
    return M * rho ** (K + 1) / (1.0 - rho)


def circle_norm_estimate(F: NCFunctionHandle, x, r: float):
    """Sampled stand-in for the supremum of ||F(zeta x)|| on |zeta| = (1+r)/2.

    Takes the max over ``CIRCLE_SAMPLES`` equispaced points on the circle,
    evaluated as one stack, and inflates it by the safety factor
    ``CIRCLE_INFLATE``; an estimate for use with :func:`tail_bound`, not a
    certificate.  ``x`` is a point in any form
    :func:`~ncfuncalc.linalg.as_stack` takes; the estimate is a float for a
    lone point and else an array of its leading shape, each sample's entry
    the estimate of its own tuple.
    """
    if not r > 1:
        raise ValueError("the dilation radius must exceed 1")
    comps, lead = as_stack(x)
    radius = (1.0 + r) / 2.0
    zetas = np.array(
        [radius * cmath.exp(2j * math.pi * t / CIRCLE_SAMPLES) for t in range(CIRCLE_SAMPLES)]
    )
    circle = zetas[:, None, None, None] * comps[:, None]  # (d, CIRCLE_SAMPLES, B, n, n)
    norms = operator_norm(F.eval(circle.reshape(len(comps), -1, *comps.shape[-2:])))
    return unstack(CIRCLE_INFLATE * norms.reshape(CIRCLE_SAMPLES, -1).max(axis=0), lead)
