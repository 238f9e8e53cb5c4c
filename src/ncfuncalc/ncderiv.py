"""Derivative machinery built on block-bidiagonal jets.

The order-k difference-differential of F at base points x_1..x_{k+1} in
directions h_1..h_k is the (1, k+1) block of F applied to the jet matrix
with the points on the block diagonal and the directions on the block
superdiagonal.  Applying F to such a jet must give a block upper triangular
image whose diagonal blocks are the F(x_i); the distance from that shape is
reported as a structure residual and a large residual means the evaluator
does not preserve intertwining.

The directions are scaled by eps = 2^-j, j the smallest count for which
the jet itself lies in F's domain, halving at most ``RESCALE_HALVINGS``
times as the domain's sampler does; the jet is then evaluated without a
second membership test.  delta(jet) is block upper triangular with diagonal
blocks delta(x_i), and compressing it to one diagonal block cannot raise its
norm, so a jet inside a polydisk, a row ball, a delta ball or a norm cap has
every base point inside too.  Block (i, i+j) is j-homogeneous in the
directions and is rescaled by eps^-j, exactly since eps is a power of two.

Jets come in stacks.  Base points and directions are stacks of shape
(d, B, n, n), a :class:`~ncfuncalc.linalg.MatrixTuple` being the lone form:
B jets, jet i at sample i of each stack, and a lone point joins every jet.
A base point or base value passed as one object for several levels, as
``[x] * (k + 1)`` is for every level, is converted, placed on the jet's
block diagonal and compared with the diagonal blocks once.  A stack costs
one stacked membership test per halving, each sample halved on its own,
and one evaluation of F, so the Taylor extraction, the polarization of
:func:`dk_multilinear` and the suite's checks pay one evaluation per block
of jets, even for jets at different base points.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import MatrixTuple, as_stack, as_stacks, relative, unstack
from .ncfun import DomainViolationError, NCFunctionHandle
from .realization import RESCALE_HALVINGS

__all__ = [
    "StructureViolationError",
    "DeltaResult",
    "delta_k",
    "dk_fd",
    "dk_multilinear",
    "polarization",
]

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
    """Difference-differential output, with a leading axis over the jets of
    a stack.

    ``delta`` is the (1, k+1) block, ``full_upper`` the whole jet image with
    every superdiagonal level rescaled back to unit directions, and
    ``structure_residual`` the absolute Frobenius size of the parts that
    should vanish (below-diagonal blocks and diagonal deviation from F(x_i)).
    """

    delta: np.ndarray
    full_upper: np.ndarray
    structure_residual: float | np.ndarray
    epsilon: float | np.ndarray


@cache
def _grid(k1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The levels of a k1 x k1 block grid, the block rows and columns below
    its diagonal, and each block's superdiagonal offset (0 on and below the
    diagonal): read-only because every call shares them."""
    levels = np.arange(k1)
    rows, cols = np.tril_indices(k1, -1)
    offsets = np.maximum(levels[None, :] - levels[:, None], 0)
    for a in (levels, rows, cols, offsets):
        a.setflags(write=False)
    return levels, rows, cols, offsets


def _shared(objs) -> list[tuple[object, np.ndarray]]:
    """Each distinct object of ``objs`` with the levels it fills, in order."""
    groups: dict[int, tuple[object, list[int]]] = {}
    for i, a in enumerate(objs):
        groups.setdefault(id(a), (a, []))[1].append(i)
    return [(a, np.array(at)) for a, at in groups.values()]


def _squares(z: np.ndarray) -> np.ndarray:
    """The entrywise squared moduli that ``np.linalg.norm`` sums for a
    Frobenius norm, so the root of a max of their sums is bit for bit the
    max of the norms."""
    return (z.conj() * z).real


def delta_k(F: NCFunctionHandle, xs, hs, *, base_values=None) -> DeltaResult:
    """Order-k difference-differential of F via one jet evaluation.

    ``xs`` are k+1 base points and ``hs`` k directions at one dimension n,
    the directions all lone or all stacks of one shape (module docstring);
    every field of the result has the stacks' leading shape.  A jet image
    that strays from block upper triangular form by more than
    ``STRUCTURE_TOL`` relative to its size raises
    :class:`StructureViolationError`.  ``base_values`` are the k+1 values
    F(x_i) the diagonal blocks are checked against, each (n, n) shared by
    every jet or (B, n, n) one per jet; without them the distinct base points
    are evaluated in one call.  A jet still outside the domain after
    ``RESCALE_HALVINGS`` halvings, as every jet at a base point outside it
    is, raises :class:`DomainViolationError` before any evaluation.
    """
    xs = list(xs)
    # All k directions are points, (k, d, n, n), or stacks of one shape.
    dirs = np.asarray(hs, dtype=np.complex128)
    k, k1 = len(dirs), len(xs)
    if k < 1:
        raise ValueError("need at least one direction")
    if k1 != k + 1:
        raise ValueError(f"need {k + 1} base points for order {k}, got {k1}")
    # Each distinct point, and below each distinct base value, is placed or
    # compared once over the levels it fills; [x] * (k + 1) is one of each.
    points = _shared(xs)
    stacks, leads = zip(*(as_stack(x) for x, _ in points))
    lead = max({*leads, dirs.shape[2:-2]} - {()}, key=math.prod, default=())
    batch = math.prod(lead)
    dirs = dirs.reshape(k, len(dirs[0]), -1, *dirs.shape[-2:])
    shapes = {(len(x), *x.shape[2:]) for x in stacks} | {(len(dirs[0]), *dirs.shape[3:])}
    sizes = {x.shape[1] for x in stacks} | {dirs.shape[2]}
    if len(shapes) > 1 or sizes - {1, batch}:
        raise ValueError(
            "all points and directions must share arity and dimension, "
            "and hold one sample or one per jet"
        )
    d, n = len(stacks[0]), stacks[0].shape[-1]
    levels, below_i, below_j, offsets = _grid(k1)
    # jet[r, s, i, :, j, :] is block (i, j) of component r of sample s.
    jet = np.zeros((d, batch, k1, n, k1, n), dtype=np.complex128)
    stack = jet.reshape(d, batch, k1 * n, k1 * n)
    for x, (_, at) in zip(stacks, points):
        jet[:, :, at, :, at, :] = x
    eps = np.ones(batch)
    jet[:, :, levels[:-1], :, levels[1:], :] = dirs
    inside = F.domain.contains(stack)
    for _ in range(RESCALE_HALVINGS):
        if inside.all():
            break
        eps[~inside] *= 0.5
        jet[:, :, levels[:-1], :, levels[1:], :] = eps[:, None, None] * dirs
        inside[~inside] = F.domain.contains(stack[:, ~inside])
    if not inside.all():
        raise DomainViolationError(
            f"no jet scale of at least 2^-{RESCALE_HALVINGS} keeps the jet in the domain"
        )
    del dirs  # the evaluation holds only the jet
    img = F.eval(stack, unchecked=True)

    if base_values is None:
        # Evaluate each distinct point once.
        flat = F.eval(np.concatenate(stacks, axis=1), unchecked=True)
        ends = itertools.accumulate(x.shape[1] for x in stacks)
        values = [(flat[e - x.shape[1] : e], at) for e, x, (_, at) in zip(ends, stacks, points)]
    elif len(base_values) != k1:
        raise ValueError(f"need {k1} base values, got {len(base_values)}")
    else:
        values = _shared(base_values)

    # blocks[s, i, :, j, :] is the (i, j) block of sample s's jet image.
    blocks = img.reshape(batch, k1, n, k1, n)
    squares = _squares(img)
    size = np.sqrt(np.add.reduce(squares.reshape(batch, -1), 1))
    below = squares.reshape(batch, k1, n, k1, n)[:, below_i, :, below_j, :]
    resid = np.add.reduce(below, (-2, -1)).max(0)
    value = np.empty((batch, n, n), dtype=np.complex128)
    for v, at in values:
        value[...] = v  # (n, n) shared by every jet, or (B, n, n) one per jet
        diag = np.add.reduce(_squares(blocks[:, at, :, at, :] - value), (-2, -1)).max(0)
        resid = np.maximum(diag, resid)
    resid = np.sqrt(resid)
    bad = np.flatnonzero(relative(resid, size) > STRUCTURE_TOL)
    if bad.size:
        s = int(bad[0])
        raise StructureViolationError(
            f"jet image is not block upper triangular: residual {resid[s]:.3e} "
            f"against size {size[s]:.3e}",
            sample=s,
        )

    # Block (i, j) with j > i is (j - i)-homogeneous in the directions.
    factor = (eps[:, None] ** -levels)[:, offsets]
    full = (blocks * factor[:, :, None, :, None]).reshape(batch, k1 * n, k1 * n)
    delta = full[:, :n, k * n :].copy()
    return DeltaResult(*(unstack(a, lead) for a in (delta, full, resid, eps)))


def dk_fd(F: NCFunctionHandle, x: MatrixTuple, h: MatrixTuple, k: int, lam: float) -> np.ndarray:
    """Finite-difference form of the k-th derivative at step ``lam``.

    Returns ((-1)^k / lam^k) * sum_j (-1)^j C(k, j) F(x + j*lam*h), the k + 1
    points evaluated as one stack.  For polynomial-backed F this equals k!
    times the shifted-base-point delta at the same lam exactly, not just in
    the limit.
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
    (xs, hs), lead = as_stacks([x, h])
    if lead or xs.shape != hs.shape:
        raise ValueError("x and h must be lone points of one arity and dimension")
    values = F.eval(np.concatenate([xs + complex(j * lam) * hs for j in range(k + 1)], axis=1))
    acc = np.zeros(xs.shape[-2:], dtype=np.complex128)
    for j in range(k + 1):
        acc += ((-1) ** j * math.comb(k, j)) * values[j]
    return ((-1) ** k / lam**k) * acc


def polarization(hs):
    """The jets of the polarization identity for k direction stacks of T,

        D^k F(x)[h_1, ..., h_k] = sum_S (-1)^(k - |S|) delta_k(F, [x] * (k + 1), [h_S] * k)

    over the nonempty subsets S, h_S the sum of the directions in S: the h_S
    as one stack (d, (2^k - 1) T, n, n), subset by subset in bitmask order,
    and the function that sums the corners of their jets to the T values.
    """
    comps = [as_stack(h)[0] for h in hs]
    k = len(comps)
    if any(c.shape != comps[0].shape for c in comps):
        raise ValueError("direction stacks must share one shape (d, T, n, n)")
    sums, signs = [], []
    for mask in range(1, 2**k):
        members = [i for i in range(k) if mask >> i & 1]
        hsum = comps[members[0]]
        for i in members[1:]:
            hsum = hsum + comps[i]
        sums.append(hsum)
        signs.append((-1) ** (k - len(members)))

    def polarize(deltas: np.ndarray) -> np.ndarray:
        total = np.zeros(comps[0].shape[1:], dtype=np.complex128)
        for sign, delta in zip(signs, deltas.reshape(len(signs), *total.shape)):
            total = total + sign * (math.factorial(k) * delta)
        return total / math.factorial(k)

    return np.concatenate(sums, axis=1), polarize


def dk_multilinear(F: NCFunctionHandle, x, hs, *, base_values=None) -> np.ndarray:
    """Symmetric k-linear derivative D^k F(x)[h_1, ..., h_k] by polarization.

    Uses the signed subset-sum identity of :func:`polarization` over 2^k - 1
    diagonal derivatives, legitimate because the derivative is k-linear and
    symmetric.  ``x`` and the directions are points or stacks of T, giving T
    values from one stacked :func:`delta_k` call, or one for lone points.
    ``base_values`` are the k+1 values F(x), as :func:`delta_k` takes them;
    without them F(x) is evaluated once, with the domain check.  Capped at
    k = 6 to keep the jet count sane.
    """
    hs = list(hs)
    k = len(hs)
    if not 1 <= k <= 6:
        raise ValueError("polarization supports orders 1 through 6")
    (base, *dirs), lead = as_stacks([x, *hs])
    d, trials, n = len(base), math.prod(lead), base.shape[-1]
    if any(h.shape != (d, trials, n, n) for h in dirs):
        raise ValueError("direction stacks must share one shape (d, T, n, n) with the point")
    if base_values is None:
        base_values = [F.eval(x)] * (k + 1)
    sums, polarize = polarization(dirs)
    tiles = 2**k - 1

    def per_jet(a: np.ndarray, axis: int) -> np.ndarray:
        """A stack of the trials repeated for each subset; a lone one as it is."""
        return np.concatenate([a] * tiles, axis) if a.shape[axis] > 1 else a

    values = [per_jet(np.reshape(v, (-1, n, n)), 0) for v in base_values]
    deltas = delta_k(F, [per_jet(base, 1)] * (k + 1), [sums] * k, base_values=values).delta
    return unstack(polarize(deltas), lead)
