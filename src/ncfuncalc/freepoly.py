"""The free algebra on d letters: words, polynomials, matrix evaluation.

A word is a tuple of letter indices in ``[0, d)``; the empty word is the
unit.  Coefficient arithmetic is exact (complex doubles, no epsilon
pruning): only exact zeros are dropped, so the algebra itself introduces no
tolerances.  Words iterate in graded lexicographic order everywhere, which
keeps serialization and tests reproducible.  ``terms`` is never written after
construction: evaluation caches a table of its prefixes built from it, and
runs one loop over word lengths that forms only the live products once some
component has an all-zero diagonal.
"""

from __future__ import annotations

import operator
from numbers import Number

import numpy as np

from .linalg import as_stack, unstack

__all__ = ["Word", "grlex_key", "FreePoly", "variables"]

Word = tuple[int, ...]


def grlex_key(word: Word) -> tuple[int, Word]:
    """Sort key for graded lexicographic word order."""
    return (len(word), word)


class FreePoly:
    """Finitely supported map from words in d letters to complex coefficients."""

    __slots__ = ("arity", "terms", "_trie")

    def __init__(self, arity: int, terms=None):
        arity = int(arity)
        if arity < 1:
            raise ValueError("arity must be at least 1")
        clean: dict[Word, complex] = {}
        for word, coeff in (terms or {}).items():
            # A key that already is a tuple of ints is kept, so polynomials
            # built from shared word tuples share their keys.
            w = word
            if type(word) is not tuple or not all(type(j) is int for j in word):
                try:
                    w = tuple(map(operator.index, word))
                except TypeError:
                    raise TypeError(f"word {word!r} has a letter that is not an integer") from None
            if any(j < 0 or j >= arity for j in w):
                raise ValueError(f"word {w} uses letters outside [0, {arity})")
            c = complex(coeff)
            if c != 0:
                clean[w] = clean.get(w, 0) + c
                if clean[w] == 0:
                    del clean[w]
        self.arity = arity
        self.terms = clean
        self._trie = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "FreePoly":
        return cls(arity, {})

    @classmethod
    def one(cls, arity: int) -> "FreePoly":
        return cls(arity, {(): 1.0})

    @classmethod
    def constant(cls, arity: int, value) -> "FreePoly":
        return cls(arity, {(): complex(value)})

    @classmethod
    def letter(cls, arity: int, j: int) -> "FreePoly":
        if not 0 <= j < arity:
            raise ValueError(f"letter {j} out of range for arity {arity}")
        return cls(arity, {(j,): 1.0})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest word length, or -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[Word, complex]]:
        return [(w, self.terms[w]) for w in sorted(self.terms, key=grlex_key)]

    def coefficient(self, word) -> complex:
        return self.terms.get(tuple(word), 0j)

    def is_homogeneous(self, k: int) -> bool:
        return all(len(w) == k for w in self.terms)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "FreePoly":
        if isinstance(other, FreePoly):
            if other.arity != self.arity:
                raise ValueError("free polynomials of different arity")
            return other
        if isinstance(other, Number):
            return FreePoly.constant(self.arity, other)
        return NotImplemented

    def __add__(self, other) -> "FreePoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return FreePoly(self.arity, out)

    __radd__ = __add__

    def __neg__(self) -> "FreePoly":
        return FreePoly(self.arity, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "FreePoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "FreePoly":
        return (-self) + other

    def __mul__(self, other) -> "FreePoly":
        if isinstance(other, Number):
            return FreePoly(self.arity, {w: c * complex(other) for w, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Word, complex] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return FreePoly(self.arity, out)

    def __rmul__(self, other) -> "FreePoly":
        if isinstance(other, Number):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "FreePoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = FreePoly.one(self.arity)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, tuple(self.sorted_terms())))

    # -- evaluation --------------------------------------------------------

    def _level_table(self) -> tuple[list[int], list[tuple]]:
        """Built once: the letters in use and, per word length k, arrays over the
        length-k prefixes in grlex order: parent, last letter, terms, coefficients."""
        if self._trie is None:
            used = sorted({j for w in self.terms for j in w})
            levels, index = [], {}
            for k in range(1, self.degree() + 1):
                above, prefixes = index, sorted({w[:k] for w in self.terms if len(w) >= k})
                index = {w: i for i, w in enumerate(prefixes)}
                hits = np.flatnonzero([w in self.terms for w in prefixes])
                levels.append((None if k == 1 else np.array([above[w[:-1]] for w in prefixes]),
                               np.array([used.index(w[-1]) for w in prefixes]), hits,
                               np.array([self.terms[prefixes[i]] for i in hits])))
            self._trie = (used, levels)
        return self._trie

    def evaluate(self, x) -> np.ndarray:
        """Substitute the components of ``x`` for the letters.

        ``x`` is a point or a stack, and the output has its leading shape;
        each sample gets, bit for bit, the value of its own tuple.  One loop
        over word lengths: length k multiplies the prefix products of length
        k-1 by components, then adds its terms with one batched
        ``coeffs @ terms`` over the products that are terms.  Where some
        component has an all-zero diagonal (an exactly zero component, or a
        nilpotent shift like each component of a Taylor jet at 0), a product
        whose prefix product or component is exactly zero is never formed but
        left exactly 0: a word through a zero component contributes exactly 0,
        even past an overflowed prefix, and a Taylor jet at 0 forms only the
        substrings of its word.  Elsewhere, or where every product is live,
        word length k is one batched product over every prefix.
        """
        comps, lead = as_stack(x)
        if len(comps) != self.arity:
            raise ValueError(f"polynomial in {self.arity} letters at a {len(comps)}-tuple")
        samples, n = comps.shape[1:3]
        used, levels = self._level_table()
        # (samples, letters, n, n), gathered C-ordered: a lone tuple gets a sample's calls.
        stacked = comps[used].swapaxes(0, 1)
        track = not stacked.diagonal(axis1=-2, axis2=-1).any(axis=-1).all()
        nonzero = track and stacked.any(axis=(-2, -1))
        out = np.zeros((samples, n * n), dtype=np.complex128)
        out[:, :: n + 1] = self.terms.get((), 0)  # the empty word, on the diagonal
        for parents, letters, hits, coeffs in levels:
            if track and parents is not None:
                live = above.any(axis=(-2, -1)).take(parents, axis=1)
                live &= nonzero.take(letters, axis=1)
            if not track or parents is None or live.all():
                prods = stacked.take(letters, axis=1)
                if parents is not None:
                    prods = above.take(parents, axis=1) @ prods
            else:
                rows, cols = np.nonzero(live)
                prods = np.zeros((samples, letters.size, n, n), dtype=np.complex128)
                prods[rows, cols] = above[rows, parents[cols]] @ stacked[rows, letters[cols]]
            out += coeffs @ prods.take(hits, axis=1).reshape(samples, hits.size, n * n)
            above = prods
        return unstack(out.reshape(samples, n, n), lead)

    __call__ = evaluate

    def __repr__(self) -> str:
        if self.is_zero:
            return "FreePoly(0)"
        bits = []
        for w, c in self.sorted_terms()[:8]:
            mono = "*".join(f"x{j}" for j in w) if w else "1"
            bits.append(f"({c:.6g})*{mono}")
        tail = " + ..." if len(self.terms) > 8 else ""
        return f"FreePoly({' + '.join(bits)}{tail})"


def variables(arity: int) -> list[FreePoly]:
    """The d letter polynomials x0, ..., x{d-1}."""
    return [FreePoly.letter(arity, j) for j in range(arity)]
