"""Noncommutative function calculus on tuples of square complex matrices.

Evaluate free polynomials, truncated power series, and transfer-function
realizations at every matrix dimension; take higher directional derivatives
through block-bidiagonal jets; extract Taylor expansions at the scalar
point 0; and verify the structural properties (gradedness, direct sums,
intertwining, symmetry) that characterize such functions.

Importing the package loads none of its modules.  Each public name is
imported from its module on first access (PEP 562) and then kept here, so a
program, or an ``ncfun`` process, loads only the modules that it uses.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_MODULE_NAMES = {
    "freepoly": ("FreePoly", "Word", "variables"),
    "linalg": (
        "MatrixTuple",
        "NonConvergenceError",
        "SingularMatrixError",
        "direct_sum",
        "inverse",
        "operator_norm",
    ),
    "ncderiv": ("DeltaResult", "StructureViolationError", "delta_k", "dk_fd", "dk_multilinear"),
    "ncfun": (
        "CONTROL_NAMES",
        "DomainDescriptor",
        "DomainViolationError",
        "NCFunctionHandle",
        "NonFiniteResultError",
        "SeriesFunction",
        "control_handle",
        "from_poly",
        "from_realization",
        "from_series",
    ),
    "realization": (
        "NotIsometricError",
        "PolyMatrix",
        "Realization",
        "ResolventSingularError",
        "SamplerStarvationError",
        "ScanReport",
        "check_isometry",
        "contractivity_scan",
        "delta_polydisk",
        "delta_rowball",
        "eval_delta",
        "eval_realization",
        "identity_realization",
        "in_ball",
        "mobius_realization",
    ),
    "taylor": (
        "ExtractionError",
        "NonScalarResultError",
        "TaylorExpansion",
        "circle_norm_estimate",
        "tail_bound",
        "taylor_expand",
    ),
    "verify": (
        "NonLinearInputError",
        "PreconditionViolationError",
        "PropertyReport",
        "check_delta_structure",
        "check_direct_sum",
        "check_intertwining",
        "check_symmetry",
        "check_unipotent_converse",
        "recover_klinear",
        "run_suite",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
