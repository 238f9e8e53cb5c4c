"""Shared random constructions for the test suite (all explicitly seeded)."""

from __future__ import annotations

import math

import numpy as np

from ncfuncalc import (
    DomainDescriptor,
    FreePoly,
    MatrixTuple,
    NCFunctionHandle,
    PolyMatrix,
    Realization,
    delta_polydisk,
    delta_rowball,
    operator_norm,
)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_matrix(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * g / max(operator_norm(g), 1e-12)


def random_tuple(rng, d: int, n: int, scale: float = 0.45) -> MatrixTuple:
    return MatrixTuple([random_matrix(rng, n, scale) for _ in range(d)])


def random_poly(rng, d: int, maxdeg: int, nterms: int = 8) -> FreePoly:
    """Random polynomial with unit-disk coefficients on distinct words."""
    words = [()]
    for k in range(1, maxdeg + 1):
        stack = [()]
        for _ in range(k):
            stack = [w + (j,) for w in stack for j in range(d)]
        words.extend(stack)
    chosen = rng.choice(len(words), size=min(nterms, len(words)), replace=False)
    terms = {}
    for idx in chosen:
        radius = np.sqrt(rng.uniform(0.05, 1.0))
        angle = rng.uniform(0, 2 * np.pi)
        terms[words[int(idx)]] = radius * np.exp(1j * angle)
    return FreePoly(d, terms)


def homogeneous_component(p: FreePoly, k: int) -> FreePoly:
    """Restriction of ``p`` to words of length exactly k."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return FreePoly(p.arity, {w: c for w, c in p.terms.items() if len(w) == k})


def scale_vars(p: FreePoly, s) -> FreePoly:
    """Substitute x -> s*x: each degree-k coefficient picks up s**k."""
    s = complex(s)
    return FreePoly(p.arity, {w: c * s ** len(w) for w, c in p.terms.items()})


def counting_handle(p: FreePoly, domain: DomainDescriptor | None = None):
    """Handle on ``p`` plus the list of dimensions it was evaluated at, one
    entry per call, whether at one tuple or at a stack of them."""
    calls: list[int] = []

    def evaluator(x) -> np.ndarray:
        calls.append(np.shape(x[0])[-1])
        return p.evaluate(x)

    if domain is None:
        domain = DomainDescriptor.polydisk(math.inf)
    return NCFunctionHandle(p.arity, domain, evaluator), calls


def random_isometric_realization(rng, d: int, m: int) -> Realization:
    """Unitary colligation over the d-variable polydisk delta (I = J = d)."""
    size = 1 + m * d
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))  # fix phases for determinism
    return Realization(
        delta=delta_polydisk(d),
        m=m,
        A=q[0, 0],
        B=q[0:1, 1:],
        C=q[1:, 0:1],
        D=q[1:, 1:],
    )


def random_rowball_realization(rng, d: int, m: int) -> Realization:
    """Isometric colligation over the d-variable row-ball delta (I = 1, J = d)."""
    g = rng.standard_normal((1 + m * d, 1 + m)) + 1j * rng.standard_normal((1 + m * d, 1 + m))
    q, _ = np.linalg.qr(g)  # orthonormal columns
    return Realization(
        delta=delta_rowball(d), m=m, A=q[0, 0], B=q[0:1, 1:], C=q[1:, 0:1], D=q[1:, 1:]
    )


def ones_orthogonal_matrix() -> np.ndarray:
    """``3 u u* + w w*`` (6x6), norm 3, with ``u = (e0 - e1)/sqrt 2`` orthogonal
    to the all-ones vector and ``w = ones/sqrt 6``.  Power iteration started
    from the all-ones vector never sees ``u`` and reports norm 1."""
    u = np.zeros(6)
    u[0], u[1] = 1.0, -1.0
    u /= np.sqrt(2.0)
    w = np.ones(6) / np.sqrt(6.0)
    return 3.0 * np.outer(u, u) + np.outer(w, w)


def relerr(actual: np.ndarray, expected: np.ndarray) -> float:
    diff = float(np.linalg.norm(np.asarray(actual) - np.asarray(expected)))
    return diff / max(1.0, float(np.linalg.norm(np.asarray(expected))))
