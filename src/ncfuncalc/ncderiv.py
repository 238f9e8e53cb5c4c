"""Derivative machinery built on block-bidiagonal jets.

The order-k difference-differential of F at base points x_1..x_{k+1} in
directions h_1..h_k is the (1, k+1) block of F applied to the jet matrix
with the points on the block diagonal and the directions on the block
superdiagonal.  Applying F to such a jet must give a block upper triangular
image whose diagonal blocks are the F(x_i); the distance from that shape is
reported as a structure residual and a large residual means the evaluator
does not preserve intertwining.

The directions are scaled by eps = epsilon / 2^j, where epsilon is the
starting scale (1 by default) and j the smallest count for which the jet
itself lies in F's domain; the jet is then evaluated without a second
membership test.  delta(jet) is block upper triangular with diagonal blocks
delta(x_i), and compressing it to one diagonal block cannot raise its norm,
so a jet inside a polydisk, a row ball, a delta ball or a norm cap has every
base point inside too.  A base point outside the domain, or one so close to
its boundary that eps would fall below MIN_EPSILON, raises
DomainViolationError before any evaluation.  The extracted blocks are
rescaled by eps^{-level}, which is right because the (i, i+j) block is
j-homogeneous in the directions; with a power-of-two epsilon, as the default
is, both the scaling and the rescale are exact in floating point.

Jets come in stacks.  Directions given as component arrays of shape
(d, B, n, n) make B jets at the same base points, one per sample: one
stacked membership test per halving, each sample halved on its own, one
evaluation of F on the whole stack, and a structure residual per sample.  So
a caller with many jets, such as the Taylor extraction or the polarization
of :func:`dk_multilinear`, pays one evaluation per block of jets, not one per
jet; a lone call with MatrixTuple directions is the case B = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import MatrixTuple
from .ncfun import DomainViolationError, NCFunctionHandle

__all__ = [
    "StructureViolationError",
    "DeltaResult",
    "delta_k",
    "dk_fd",
    "dk_multilinear",
]

MIN_EPSILON = 1e-6
STRUCTURE_TOL = 1e-6
FD_CANCELLATION_FLOOR = 1e-12


class StructureViolationError(ArithmeticError):
    """The jet image was not block upper triangular with the expected diagonal.

    ``sample`` is the index of the first offending jet of a stack (0 for a
    lone call).
    """

    def __init__(self, message: str, sample: int = 0):
        super().__init__(message)
        self.sample = sample


@dataclass(frozen=True)
class DeltaResult:
    """Difference-differential output.

    ``delta`` is the (1, k+1) block, ``full_upper`` the whole jet image with
    every superdiagonal level rescaled back to unit directions, and
    ``structure_residual`` the absolute Frobenius size of the parts that
    should vanish (below-diagonal blocks and diagonal deviation from F(x_i)).
    For stacked directions each field has a leading axis over the B samples.
    """

    delta: np.ndarray
    full_upper: np.ndarray
    structure_residual: float | np.ndarray
    epsilon: float | np.ndarray


@cache
def _below(k1: int) -> tuple[np.ndarray, np.ndarray]:
    """Block row and column indices below the diagonal of a k1 x k1 grid,
    read-only because every call shares them."""
    rows, cols = np.tril_indices(k1, -1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def delta_k(
    F: NCFunctionHandle, xs, hs, *, epsilon: float = 1.0, base_values=None
) -> DeltaResult:
    """Order-k difference-differential of F via one jet evaluation.

    ``xs`` are k+1 base points and ``hs`` k directions, all at one
    dimension n: MatrixTuples, or for the directions component stacks of
    shape (d, B, n, n), which make B jets in one call (module docstring)
    and give every field of the result a leading sample axis.  Raises
    :class:`StructureViolationError` when a jet image strays from block
    upper triangular form by more than ``STRUCTURE_TOL`` relative to its
    size, which flags an evaluator that is not intertwining preserving.

    ``base_values`` optionally gives the k+1 values F(x_i) the diagonal
    blocks are checked against; a caller that extracts many jets at the same
    base points passes them once instead of having F re-evaluated per call.
    ``epsilon`` is the starting scale of every jet, finite and positive
    (else ``ValueError``), each halved until it lies in the domain (module
    docstring); an outside base point raises
    :class:`DomainViolationError` before any evaluation.
    """
    xs = list(xs)
    hs = hs if isinstance(hs, np.ndarray) else list(hs)
    k = len(hs)
    if k < 1:
        raise ValueError("need at least one direction")
    if len(xs) != k + 1:
        raise ValueError(f"need {k + 1} base points for order {k}, got {len(xs)}")
    d, n = xs[0].arity, xs[0].dim
    lone = isinstance(hs[0], MatrixTuple)
    if lone:
        dirs = np.array([h.components for h in hs])[:, :, None]
    else:
        dirs = np.asarray(hs, dtype=np.complex128)
    if any(x.arity != d or x.dim != n for x in xs) or (
        dirs.ndim != 5 or dirs.shape[1] != d or dirs.shape[3:] != (n, n)
    ):
        raise ValueError("all points and directions must share arity and dimension")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"the starting scale must be finite and positive, got {epsilon}")
    k1, batch = k + 1, dirs.shape[2]
    levels = np.arange(k1)

    # jet[r, s, i, :, j, :] is block (i, j) of component r of sample s.
    jet = np.zeros((d, batch, k1, n, k1, n), dtype=np.complex128)
    jet[:, :, levels, :, levels, :] = np.array([x.components for x in xs])[:, :, None]
    stack = jet.reshape(d, batch, k1 * n, k1 * n)
    eps = np.full(batch, float(epsilon))
    jet[:, :, levels[:-1], :, levels[1:], :] = eps[:, None, None] * dirs
    inside = F.domain.contains(stack)
    while not inside.all():
        eps[~inside] *= 0.5
        if eps.min() < MIN_EPSILON:
            raise DomainViolationError(
                f"no jet scale of at least {MIN_EPSILON:.0e} keeps the jet in the domain"
            )
        jet[:, :, levels[:-1], :, levels[1:], :] = eps[:, None, None] * dirs
        inside[~inside] = F.domain.contains(stack[:, ~inside])
    img = F.eval(stack, unchecked=True)

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

    # blocks[s, i, :, j, :] is the (i, j) block of sample s's jet image.
    blocks = img.reshape(batch, k1, n, k1, n)
    below_i, below_j = _below(k1)
    resid = np.maximum(
        np.linalg.norm(blocks[:, levels, :, levels, :] - values[:, None], axis=(-2, -1)).max(0),
        np.linalg.norm(blocks[:, below_i, :, below_j, :], axis=(-2, -1)).max(0),
    )
    scale = np.maximum(1.0, np.linalg.norm(img.reshape(batch, -1), axis=1))
    bad = np.flatnonzero(resid > STRUCTURE_TOL * scale)
    if bad.size:
        s = int(bad[0])
        raise StructureViolationError(
            f"jet image is not block upper triangular: residual {resid[s]:.3e} "
            f"against scale {scale[s]:.3e}",
            sample=s,
        )

    # Block (i, j) with j > i is (j - i)-homogeneous in the directions.
    factor = (eps[:, None] ** -levels)[:, np.maximum(levels[None, :] - levels[:, None], 0)]
    full = (blocks * factor[:, :, None, :, None]).reshape(batch, k1 * n, k1 * n)
    delta = full[:, :n, k * n :].copy()
    if lone:
        return DeltaResult(delta[0], full[0], float(resid[0]), float(eps[0]))
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
    x.check_compatible(h)
    acc = np.zeros((x.dim, x.dim), dtype=np.complex128)
    for j in range(k + 1):
        acc += ((-1) ** j * math.comb(k, j)) * F.eval(x + (j * lam) * h)
    return ((-1) ** k / lam**k) * acc


def dk_multilinear(F: NCFunctionHandle, x: MatrixTuple, hs) -> np.ndarray:
    """Symmetric k-linear derivative D^k F(x)[h_1, ..., h_k] by polarization.

    Uses the signed subset-sum identity over 2^k - 1 diagonal derivatives
    k! delta_k(F, [x] * (k + 1), [h] * k), legitimate because the derivative
    is k-linear and symmetric.  F(x) is evaluated once, with the domain
    check, and the 2^k - 1 jets are one stacked :func:`delta_k` call.
    ``hs`` are k MatrixTuples, giving one (n, n) value, or k component
    stacks of one shape (d, T, n, n), giving T values (T, n, n) from the
    same single evaluation of F(x) and one stacked call of (2^k - 1) T jets.
    Capped at k = 6 to keep the jet count sane.
    """
    hs = list(hs)
    k = len(hs)
    if not 1 <= k <= 6:
        raise ValueError("polarization supports orders 1 through 6")
    lone = isinstance(hs[0], MatrixTuple)
    if lone:
        for h in hs:
            x.check_compatible(h)
        comps = [np.array(h.components)[:, None] for h in hs]
    else:
        comps = [np.asarray(h, dtype=np.complex128) for h in hs]
        shape = (x.arity, *comps[0].shape[1:2], x.dim, x.dim)
        if any(c.shape != shape for c in comps):
            raise ValueError("direction stacks must share one shape (d, T, n, n) with the point")
    values = [F.eval(x)] * (k + 1)
    sums, signs = [], []
    for mask in range(1, 2**k):
        members = [i for i in range(k) if mask >> i & 1]
        hsum = comps[members[0]]
        for i in members[1:]:
            hsum = hsum + comps[i]
        sums.append(hsum)
        signs.append((-1) ** (k - len(members)))
    dirs = np.concatenate(sums, axis=1)  # (d, (2^k - 1) T, n, n), subset by subset
    deltas = delta_k(F, [x] * (k + 1), [dirs] * k, base_values=values).delta
    total = np.zeros((comps[0].shape[1], x.dim, x.dim), dtype=np.complex128)
    for sign, delta in zip(signs, deltas.reshape(len(sums), *total.shape)):
        total = total + sign * (math.factorial(k) * delta)
    total = total / math.factorial(k)
    return total[0] if lone else total
