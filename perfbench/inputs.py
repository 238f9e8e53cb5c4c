"""Seeded workload inputs and their JSON file forms, built with numpy alone.

Every generator takes a numpy Generator, so one ``--seed`` fixes every input
of a run.  The JSON writers follow the file formats documented in the
project README; they do not use the package's own serializers, so the
command-line workload hands the program nothing the program made itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

Word = tuple[int, ...]


def words_upto(d: int, maxdeg: int) -> list[Word]:
    """Every word in d letters of length at most ``maxdeg``, graded lex order."""
    out: list[Word] = [()]
    level: list[Word] = [()]
    for _ in range(maxdeg):
        level = [w + (j,) for w in level for j in range(d)]
        out.extend(level)
    return out


def random_terms(rng: np.random.Generator, d: int, per_degree: tuple[int, ...]) -> dict[Word, complex]:
    """``per_degree[k]`` distinct words of length k, coefficients of modulus in [0.5, 1.5).

    Fixing the count per degree keeps the evaluation cost of every drawn
    polynomial about the same, so operations on fresh polynomials are alike.
    """
    terms: dict[Word, complex] = {}
    for k, count in enumerate(per_degree):
        words = [w for w in words_upto(d, k) if len(w) == k]
        for i in rng.choice(len(words), size=count, replace=False):
            radius = rng.uniform(0.5, 1.5)
            terms[words[int(i)]] = complex(radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return terms


def random_matrix(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    """Complex Gaussian matrix rescaled to spectral norm ``norm``."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return norm * g / np.linalg.norm(g, 2)


def random_point(rng: np.random.Generator, d: int, n: int, top: float) -> list[np.ndarray]:
    """d components with spectral norms drawn from [top/2, top)."""
    return [random_matrix(rng, n, top * rng.uniform(0.5, 1.0)) for _ in range(d)]


def unitary_colligation(rng: np.random.Generator, d: int, m: int) -> dict:
    """A, B, C, D blocks of a Haar-like unitary (1 + m*d)-square colligation.

    Unitary implies isometric, so its transfer function over the polydisk
    delta is contractive on the whole ball.
    """
    size = 1 + m * d
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return {"d": d, "m": m, "A": complex(q[0, 0]), "B": q[0:1, 1:], "C": q[1:, 0:1], "D": q[1:, 1:]}


def structured_point() -> np.ndarray:
    """x0 = 0.5 (3 u u* + w w*) at 6x6: norm 1.5, top singular vector u.

    u = (e0 - e1)/sqrt(2) is orthogonal to the all-ones vector, which is the
    start vector of a power iteration that never sees the top direction.
    """
    u = np.zeros(6)
    u[0], u[1] = 1.0, -1.0
    u /= math.sqrt(2.0)
    w = np.ones(6) / math.sqrt(6.0)
    return 0.5 * (3.0 * np.outer(u, u) + np.outer(w, w))


# -- file forms ------------------------------------------------------------


def complex_obj(c: complex) -> dict:
    return {"re": float(c.real), "im": float(c.imag)}


def matrix_obj(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": [[complex_obj(v) for v in row] for row in a.tolist()],
    }


def tuple_obj(comps: list[np.ndarray]) -> dict:
    return {"d": len(comps), "dim": comps[0].shape[0], "components": [matrix_obj(c) for c in comps]}


def poly_obj(d: int, terms: dict[Word, complex]) -> dict:
    ordered = sorted(terms, key=lambda w: (len(w), w))
    return {"d": d, "terms": [{"word": list(w), **complex_obj(terms[w])} for w in ordered]}


def polydisk_delta_obj(d: int) -> dict:
    """diag(x0, ..., x{d-1}) as a polynomial matrix."""
    zero = poly_obj(d, {})
    return {
        "I": d,
        "J": d,
        "entries": [[poly_obj(d, {(i,): 1.0}) if i == j else zero for j in range(d)] for i in range(d)],
    }


def realization_obj(col: dict) -> dict:
    return {
        "delta": polydisk_delta_obj(col["d"]),
        "m": col["m"],
        "A": complex_obj(col["A"]),
        "B": matrix_obj(col["B"]),
        "C": matrix_obj(col["C"]),
        "D": matrix_obj(col["D"]),
    }


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# -- output parsing ----------------------------------------------------------


def matrix_from_obj(obj: dict) -> np.ndarray:
    return np.array(
        [[complex(c["re"], c["im"]) for c in row] for row in obj["entries"]], dtype=np.complex128
    ).reshape(obj["rows"], obj["cols"])


def terms_from_obj(obj: dict) -> dict[Word, complex]:
    return {tuple(t["word"]): complex(t["re"], t["im"]) for t in obj["terms"]}
