"""Negative controls for the benchmark's own checkers.

    python3 perfbench/controls.py

Builds each checker's reference from seeded inputs, confirms the checker
accepts the reference itself, then confirms it rejects every perturbation
in ``checks.PERTURBATIONS``: a Taylor coefficient off by 1e-6, an extra or
a missing word, a wrong ``eval`` matrix, a scan ``max_norm`` of 1.01, a
failed suite property and so on.  Needs numpy only, not the package.  Every
benchmark run applies the same perturbations to real program outputs too.
Exits 1 if any checker accepts a perturbed output or rejects a correct one.
"""

import sys

import numpy as np

import checks
import inputs


def cases():
    rng = np.random.default_rng(0)
    terms = inputs.random_terms(rng, 3, (1, 2, 3, 6, 10, 18))
    x = inputs.random_point(rng, 3, 8, 0.9)
    hs = [inputs.random_point(rng, 3, 8, 0.9) for _ in range(2)]
    col = inputs.unitary_colligation(rng, 2, 3)
    report = {"dim": 8, "requested": 50, "collected": 50, "draws": 70, "max_norm": 0.7,
              "threshold": 1.00000001, "passed": True, "seed": 0}
    suite = [{"name": "direct-sum", "passed": True}, {"name": "delta-structure", "passed": True}]
    yield "taylor coefficients", "coeffs", terms, dict(terms)
    expand = checks.realization_coefficients(col, 6)
    yield "realization coefficients", "coeffs", expand, dict(expand)
    yield "eval matrix", "matrix", checks.poly_eval(terms, x), checks.poly_eval(terms, x)
    second = checks.second_derivative(terms, x, *hs)
    yield "second derivative", "matrix", second, second.copy()
    value = checks.transfer(col, x[:2])
    yield "transfer value", "matrix", value, value.copy()
    yield "scan report", "scan", 50, report
    yield "suite report", "suite", None, suite


def main() -> int:
    bad = 0
    for label, kind, ref, good in cases():
        rejected_good = checks.CHECKS[kind](ref, good)
        missed = checks.control_failures(kind, ref, good)
        ok = not rejected_good and not missed
        bad += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: accepts the reference, "
              f"rejects {len(checks.PERTURBATIONS[kind]) - len(missed)}"
              f"/{len(checks.PERTURBATIONS[kind])} perturbations")
        for line in rejected_good + missed:
            print(f"    {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
