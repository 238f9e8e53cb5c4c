"""Noncommutative function calculus on tuples of square complex matrices.

Evaluate free polynomials, truncated power series, and transfer-function
realizations at every matrix dimension; take higher directional derivatives
through block-bidiagonal jets; extract Taylor expansions at the scalar
point 0; and verify the structural properties (gradedness, direct sums,
intertwining, symmetry) that characterize such functions.
"""

import types

from .freepoly import FreePoly, Word, variables
from .linalg import (
    MatrixTuple,
    NonConvergenceError,
    SingularMatrixError,
    direct_sum,
    inverse,
    operator_norm,
)
from .ncderiv import (
    DeltaResult,
    StructureViolationError,
    delta_k,
    dk_fd,
    dk_multilinear,
)
from .ncfun import (
    CONTROL_NAMES,
    DomainDescriptor,
    DomainViolationError,
    NCFunctionHandle,
    NonFiniteResultError,
    SeriesFunction,
    control_handle,
    from_poly,
    from_realization,
    from_series,
)
from .realization import (
    NotIsometricError,
    PolyMatrix,
    Realization,
    ResolventSingularError,
    SamplerStarvationError,
    ScanReport,
    check_isometry,
    contractivity_scan,
    delta_polydisk,
    delta_rowball,
    eval_delta,
    eval_realization,
    identity_realization,
    in_ball,
    mobius_realization,
)
from .taylor import (
    ExtractionError,
    NonScalarResultError,
    TaylorExpansion,
    circle_norm_estimate,
    tail_bound,
    taylor_expand,
)
from .verify import (
    NonLinearInputError,
    PreconditionViolationError,
    PropertyReport,
    SuiteConfig,
    check_delta_structure,
    check_direct_sum,
    check_intertwining,
    check_symmetry,
    check_unipotent_converse,
    recover_klinear,
    run_suite,
)

__version__ = "0.1.0"

# The public names are exactly the ones imported above.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
