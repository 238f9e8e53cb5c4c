"""Reference computations and output checkers, independent of the package.

Each checker takes the benchmark's own expectation and the program's output
and returns a list of complaints, empty when the output is accepted.  The
references are computed here from the generated inputs with plain numpy:
products of words, the sum over ordered position pairs for a second
derivative, realization coefficients B E_w1 D E_w2 ... D E_wk C, and the
transfer formula solved with ``np.linalg.solve``.  ``PERTURBATIONS`` holds,
for every checker, outputs it must reject (see ``controls.py``).
"""

from __future__ import annotations

import numpy as np

from inputs import Word, words_upto

COEFF_RTOL = 1e-10
MATRIX_RTOL = 1e-10
NORM_TOL = 1e-8


# -- references --------------------------------------------------------------


def word_product(comps: list[np.ndarray], word: Word) -> np.ndarray:
    out = np.eye(comps[0].shape[0], dtype=np.complex128)
    for j in word:
        out = out @ comps[j]
    return out


def poly_eval(terms: dict[Word, complex], comps: list[np.ndarray]) -> np.ndarray:
    """sum_w c_w x_{w1} x_{w2} ... x_{wk}, one product per word."""
    n = comps[0].shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for w, c in terms.items():
        out += c * word_product(comps, w)
    return out


def second_derivative(terms, x, h1, h2) -> np.ndarray:
    """Mixed second derivative: per word, h1 at position i and h2 at j, i != j."""
    n = x[0].shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for w, c in terms.items():
        for i in range(len(w)):
            for j in range(len(w)):
                if i == j:
                    continue
                m = np.eye(n, dtype=np.complex128)
                for pos, letter in enumerate(w):
                    src = h1 if pos == i else h2 if pos == j else x
                    m = m @ src[letter]
                out += c * m
    return out


def _selector(col: dict, j: int) -> np.ndarray:
    """E_j = kron(I_m, e_j e_j^T), the coefficient of x_j in kron(I_m, delta(x))."""
    e = np.zeros((col["d"], col["d"]))
    e[j, j] = 1.0
    return np.kron(np.eye(col["m"]), e)


def realization_coefficients(col: dict, maxdeg: int) -> dict[Word, complex]:
    """Coefficient of every word through ``maxdeg`` in the transfer function."""
    sel = [_selector(col, j) for j in range(col["d"])]
    coeffs: dict[Word, complex] = {(): col["A"]}
    left: dict[Word, np.ndarray] = {}
    for w in words_upto(col["d"], maxdeg)[1:]:
        row = col["B"] @ sel[w[0]] if len(w) == 1 else left[w[:-1]] @ col["D"] @ sel[w[-1]]
        left[w] = row
        coeffs[w] = complex((row @ col["C"])[0, 0])
    return coeffs


def transfer(col: dict, comps: list[np.ndarray]) -> np.ndarray:
    """A + B Delta (1 - D Delta)^{-1} C with Delta = kron(I_m, diag(x_0, ...))."""
    n = comps[0].shape[0]
    d, m = col["d"], col["m"]
    delta = np.zeros((d * n, d * n), dtype=np.complex128)
    for j, c in enumerate(comps):
        delta[j * n : (j + 1) * n, j * n : (j + 1) * n] = c
    big = np.kron(np.eye(m), delta)
    eye_n = np.eye(n)
    b, c, dd = (np.kron(col[k], eye_n) for k in ("B", "C", "D"))
    rhs = np.linalg.solve(np.eye(m * d * n) - dd @ big, c)
    return col["A"] * eye_n + b @ big @ rhs


# -- checkers ----------------------------------------------------------------


def check_coeffs(ref: dict[Word, complex], got: dict[Word, complex]) -> list[str]:
    """Every expected coefficient within 1e-10 max(1, |c|); no other word."""
    errors = [f"unexpected word {list(w)}" for w in got if w not in ref]
    for w, c in ref.items():
        g = got.get(w, 0j)
        if abs(g - c) > COEFF_RTOL * max(1.0, abs(c)):
            errors.append(f"word {list(w)}: got {g:.17g}, expected {c:.17g}")
    return errors


def check_matrix(ref: np.ndarray, got: np.ndarray) -> list[str]:
    if got.shape != ref.shape:
        return [f"shape {got.shape}, expected {ref.shape}"]
    err = float(np.linalg.norm(got - ref))
    scale = max(1.0, float(np.linalg.norm(ref)))
    if not err <= MATRIX_RTOL * scale:
        return [f"matrix differs by {err:.3e} (scale {scale:.3e})"]
    return []


def check_scan(samples: int, report: dict) -> list[str]:
    """An isometric colligation is contractive: the scan must pass."""
    errors = []
    if report.get("passed") is not True:
        errors.append("scan verdict is not passed")
    if not report.get("requested") == report.get("collected") == samples:
        errors.append(
            f"collected {report.get('collected')} of {report.get('requested')}, asked {samples}"
        )
    top = report.get("max_norm")
    if not (isinstance(top, float) and 0.0 < top <= 1.0 + NORM_TOL):
        errors.append(f"max_norm {top!r} outside (0, 1 + {NORM_TOL:g}]")
    return errors


def check_suite(_ref, reports: list) -> list[str]:
    if not reports:
        return ["empty suite report"]
    return [f"property {r.get('name')} failed" for r in reports if r.get("passed") is not True]


CHECKS = {
    "coeffs": check_coeffs,
    "matrix": check_matrix,
    "scan": check_scan,
    "suite": check_suite,
}


# -- perturbed outputs the checkers must reject --------------------------------


def _bump_first(got: dict) -> dict:
    out = dict(got)
    w = min(out, key=lambda v: (len(v), v))
    out[w] += 1e-6
    return out


def _extra_word(got: dict) -> dict:
    out = dict(got)
    out[(0,) * (max(len(w) for w in got) + 1)] = 1e-3
    return out


def _drop_first(got: dict) -> dict:
    out = dict(got)
    del out[min(out, key=lambda v: (len(v), v))]
    return out


def _bump_entry(got: np.ndarray) -> np.ndarray:
    out = got.copy()
    out[0, 0] += 1e-6
    return out


def _report(**changes):
    return lambda rep: {**rep, **changes}


def _collected_short(rep: dict) -> dict:
    return {**rep, "collected": rep["collected"] - 1}


def _first_failed(reports: list) -> list:
    return [{**reports[0], "passed": False}] + reports[1:]


PERTURBATIONS = {
    "coeffs": [
        ("one coefficient off by 1e-6", _bump_first),
        ("an extra word", _extra_word),
        ("a missing word", _drop_first),
    ],
    "matrix": [
        ("one entry off by 1e-6", _bump_entry),
        ("transposed", lambda a: a.T.copy()),
    ],
    "scan": [
        ("max_norm 1.01", _report(max_norm=1.01)),
        ("max_norm 0", _report(max_norm=0.0)),
        ("one sample short", _collected_short),
        ("verdict failed", _report(passed=False)),
    ],
    "suite": [
        ("one property failed", _first_failed),
        ("no reports", lambda reports: []),
    ],
}


def control_failures(kind: str, ref, got) -> list[str]:
    """Names of the perturbations of ``got`` that the checker wrongly accepts."""
    check = CHECKS[kind]
    return [
        f"{kind} checker accepted a perturbed output ({name})"
        for name, perturb in PERTURBATIONS[kind]
        if not check(ref, perturb(got))
    ]
