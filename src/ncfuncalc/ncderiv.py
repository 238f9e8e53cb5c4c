"""Derivative machinery built on block-bidiagonal jets.

The order-k difference-differential of F at base points x_1..x_{k+1} in
directions h_1..h_k is the (1, k+1) block of F applied to the jet matrix
with the points on the block diagonal and the directions on the block
superdiagonal.  Applying F to such a jet must give a block upper triangular
image whose diagonal blocks are the F(x_i); the distance from that shape is
reported as a structure residual and a large residual means the evaluator
does not preserve intertwining.

Directions are scaled by epsilon = min(1, 0.45 (bound - g) / ||h||), with g
the largest domain gauge of the base points (see DomainDescriptor.gauge) and
||h|| the largest step norm of the directions (DomainDescriptor.step_norm,
which leaves out delta's constant term).  So on a polydisk, a row ball or a
delta ball whose entries have degree at most 1, a jet at any in-domain point
stays inside; epsilon is 1 on an unbounded domain.  The extracted blocks are
rescaled by epsilon^{-level}, which is exact because the (i, i+j) block is
j-homogeneous in the directions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import MatrixTuple, bidiagonal_block
from .ncfun import DomainDescriptor, DomainViolationError, NCFunctionHandle

__all__ = [
    "StructureViolationError",
    "DeltaResult",
    "delta_k",
    "dk_fd",
    "dk_multilinear",
    "jet_epsilon",
]

MIN_EPSILON = 1e-6
STRUCTURE_TOL = 1e-6
JET_SCALE = 0.45
FD_CANCELLATION_FLOOR = 1e-12


class StructureViolationError(ArithmeticError):
    """The jet image was not block upper triangular with the expected diagonal."""


@dataclass(frozen=True)
class DeltaResult:
    """Difference-differential output.

    ``delta`` is the (1, k+1) block, ``full_upper`` the whole jet image with
    every superdiagonal level rescaled back to unit directions, and
    ``structure_residual`` the absolute Frobenius size of the parts that
    should vanish (below-diagonal blocks and diagonal deviation from F(x_i)).
    """

    delta: np.ndarray
    full_upper: np.ndarray
    structure_residual: float
    epsilon: float


def _largest_gauge(domain: DomainDescriptor, xs: list[MatrixTuple]) -> float:
    """Largest gauge of the distinct base points; raises if one lies outside."""
    distinct = {id(x): x for x in xs}.values()
    top = max(domain.gauge(x) for x in distinct)
    if not domain.admits(top):
        raise DomainViolationError("a base point lies outside the domain")
    return top


def jet_epsilon(domain: DomainDescriptor, xs: list[MatrixTuple], hs) -> float:
    """Direction scale for a jet at base points ``xs`` with directions ``hs``.

    min(1, JET_SCALE (bound - g) / ||h||), with g the largest gauge of the
    base points and ||h|| the largest ``domain.step_norm`` of the distinct
    directions; 1 on an unbounded domain.  Raises
    :class:`DomainViolationError` for a base point outside the domain, and
    for one so close to the boundary that the scale would fall below
    ``MIN_EPSILON``.
    """
    top = _largest_gauge(domain, xs)
    if math.isinf(domain.bound):
        return 1.0
    hmax = max(domain.step_norm(h) for h in {id(h): h for h in hs}.values())
    if hmax == 0.0:
        return 1.0
    eps = min(1.0, JET_SCALE * (domain.bound - top) / hmax)
    if eps < MIN_EPSILON:
        raise DomainViolationError(
            f"no admissible jet scale of at least {MIN_EPSILON:.0e} exists"
        )
    return eps


def delta_k(
    F: NCFunctionHandle, xs, hs, *, epsilon: float | None = None, base_values=None
) -> DeltaResult:
    """Order-k difference-differential of F via one jet evaluation.

    ``xs`` are k+1 base points and ``hs`` k directions, all at one
    dimension.  Raises :class:`StructureViolationError` when the jet image
    strays from block upper triangular form by more than ``STRUCTURE_TOL``
    relative to its size, which flags an evaluator that is not intertwining
    preserving.

    ``base_values`` optionally gives the k+1 values F(x_i) the diagonal
    blocks are checked against; a caller that extracts many jets at the same
    base points passes them once instead of having F re-evaluated per call.
    ``epsilon`` defaults to :func:`jet_epsilon`; an outside base point raises
    :class:`DomainViolationError` before any evaluation either way.
    """
    xs = list(xs)
    hs = list(hs)
    k = len(hs)
    if k < 1:
        raise ValueError("need at least one direction")
    if len(xs) != k + 1:
        raise ValueError(f"need {k + 1} base points for order {k}, got {len(xs)}")
    if epsilon is None:
        eps = jet_epsilon(F.domain, xs, hs)
    else:
        _largest_gauge(F.domain, xs)
        eps = float(epsilon)
    scaled = hs if eps == 1.0 else [eps * h for h in hs]
    img = F.eval(bidiagonal_block(xs, scaled), unchecked=True)
    n = xs[0].dim
    k1 = k + 1

    if base_values is None:
        # Evaluate each distinct point once; repeated extraction passes the
        # same object.
        distinct: dict[int, np.ndarray] = {}
        for x in xs:
            if id(x) not in distinct:
                distinct[id(x)] = F.eval(x, unchecked=True)
        base_values = [distinct[id(x)] for x in xs]
    values = np.asarray(base_values, dtype=np.complex128)
    if values.shape != (k1, n, n):
        raise ValueError(f"need {k1} base values of shape {n}x{n}, got shape {values.shape}")

    # blocks[i, :, j, :] is the (i, j) block of the jet image.
    blocks = img.reshape(k1, n, k1, n)
    diag = np.arange(k1)
    below_i, below_j = np.tril_indices(k1, -1)
    resid = max(
        float(np.linalg.norm(blocks[diag, :, diag, :] - values, axis=(1, 2)).max()),
        float(np.linalg.norm(blocks[below_i, :, below_j, :], axis=(1, 2)).max()),
    )
    scale = max(1.0, float(np.linalg.norm(img)))
    if resid > STRUCTURE_TOL * scale:
        raise StructureViolationError(
            f"jet image is not block upper triangular: residual {resid:.3e} "
            f"against scale {scale:.3e}"
        )

    # Block (i, j) with j > i is (j - i)-homogeneous in the directions.
    level_factor = np.array([eps ** (-level) for level in range(k1)])
    factor = level_factor[np.maximum(diag[None, :] - diag[:, None], 0)]
    full = (blocks * factor[:, None, :, None]).reshape(k1 * n, k1 * n)
    delta = full[0:n, k * n : k1 * n].copy()
    return DeltaResult(delta=delta, full_upper=full, structure_residual=resid, epsilon=eps)


def dk_fd(F: NCFunctionHandle, x: MatrixTuple, h: MatrixTuple, k: int, lam: float) -> np.ndarray:
    """Finite-difference form of the k-th derivative at step ``lam``.

    Returns ((-1)^k / lam^k) * sum_j (-1)^j C(k, j) F(x + j*lam*h).  For
    polynomial-backed F this equals k! times the shifted-base-point delta at
    the same lam exactly, not just in the limit.
    """
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k == 0:
        return F.eval(x)
    lam = float(lam)
    if lam == 0.0:
        raise ValueError("the step must be nonzero")
    if abs(lam) ** k < FD_CANCELLATION_FLOOR:
        warnings.warn(
            f"lam^k = {abs(lam) ** k:.2e} risks catastrophic cancellation",
            RuntimeWarning,
            stacklevel=2,
        )
    x._check_compatible(h)
    acc = np.zeros((x.dim, x.dim), dtype=np.complex128)
    for j in range(k + 1):
        acc += ((-1) ** j * math.comb(k, j)) * F.eval(x + (j * lam) * h)
    return ((-1) ** k / lam**k) * acc


def dk_multilinear(F: NCFunctionHandle, x: MatrixTuple, hs) -> np.ndarray:
    """Symmetric k-linear derivative D^k F(x)[h_1, ..., h_k] by polarization.

    Uses the signed subset-sum identity over 2^k - 1 diagonal derivatives
    k! delta_k(F, [x] * (k + 1), [h] * k), legitimate because the derivative
    is k-linear and symmetric.  F(x) is evaluated once, with the domain
    check, and shared by every jet.  Capped at k = 6 to keep the evaluation
    count sane.
    """
    hs = list(hs)
    k = len(hs)
    if not 1 <= k <= 6:
        raise ValueError("polarization supports orders 1 through 6")
    for h in hs:
        x._check_compatible(h)
    values = [F.eval(x)] * (k + 1)
    total = np.zeros((x.dim, x.dim), dtype=np.complex128)
    for mask in range(1, 2**k):
        members = [i for i in range(k) if mask >> i & 1]
        hsum = hs[members[0]]
        for i in members[1:]:
            hsum = hsum + hs[i]
        sign = (-1) ** (k - len(members))
        diag = math.factorial(k) * delta_k(F, [x] * (k + 1), [hsum] * k, base_values=values).delta
        total = total + sign * diag
    return total / math.factorial(k)
