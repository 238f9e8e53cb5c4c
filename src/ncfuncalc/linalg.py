"""Dense complex matrix arithmetic and the block assembly primitives.

Matrices are numpy arrays of dtype complex128.  Inside the library a point
of the d-variable calculus, or a direction, is a stack: an array of shape
(d, B, n, n) holding B d-tuples of n-by-n matrices, letter first and sample
second.  An immutable :class:`MatrixTuple` is the lone form, a container
without arithmetic (point arithmetic is numpy on stacks).  Each public entry
converts its points with :func:`as_stack`, which checks their shape, and
shapes its results with :func:`unstack`, so a lone point gets a lone result.

The two numerical primitives run on numpy's LAPACK: :func:`operator_norm`
is the largest singular value from ``np.linalg.svd(a, compute_uv=False)``
(``gesdd``, singular values only), of one matrix or of each matrix in a
stack, and :func:`inverse` is an LU solve (``gesv``) that rejects a matrix
whose reciprocal condition in the infinity norm is at most ``PIVOT_RTOL``."""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "NonConvergenceError",
    "as_matrix",
    "inverse",
    "operator_norm",
    "relative",
    "scalar_part",
    "valid_seed",
    "MatrixTuple",
    "as_stack",
    "as_stacks",
    "unstack",
    "direct_sum",
]

PIVOT_RTOL = 1e-12


class SingularMatrixError(ArithmeticError):
    """Raised when a matrix is singular or too ill-conditioned to invert."""


class NonConvergenceError(RuntimeError):
    """Raised when the LAPACK singular value decomposition does not converge."""


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex128 array and reject non-finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def inverse(a) -> np.ndarray:
    """Invert a square matrix with ``np.linalg.inv`` (LAPACK LU solve, ``gesv``).

    Raises :class:`SingularMatrixError` for the zero matrix, for a matrix
    LAPACK reports exactly singular, for a non-finite result, and when the
    reciprocal condition ``1 / (||a||_inf ||a^-1||_inf)`` is at most
    ``PIVOT_RTOL`` (1e-12).
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"cannot invert a non-square {a.shape} matrix")
    if n == 0:
        return a.copy()
    scale = float(np.linalg.norm(a, np.inf))
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LAPACK: {exc}") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularMatrixError("inverse has non-finite entries")
    rcond = 1.0 / (scale * float(np.linalg.norm(inv, np.inf)))
    if rcond <= PIVOT_RTOL:
        raise SingularMatrixError(f"reciprocal condition {rcond:.3e} at most {PIVOT_RTOL:.0e}")
    return inv


def operator_norm(a):
    """Largest singular value of ``a`` (rectangular allowed), by LAPACK SVD.

    The leading value of ``np.linalg.svd(a, compute_uv=False)`` (``gesdd``),
    the number ``np.linalg.norm(a, 2)`` returns, without its axis handling.
    A 2-d ``a`` gives a float; a stack of shape ``(..., p, q)`` gives the
    array of its matrices' norms, each the number the 2-d call returns, from
    one LAPACK call per matrix and one numpy call in all.  Non-finite
    entries raise ``ValueError``; an SVD that fails to converge raises
    :class:`NonConvergenceError`.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    else:
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix contains non-finite entries")
        try:
            norms = np.linalg.svd(a, compute_uv=False)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"SVD failed: {exc}") from exc
    return float(norms) if a.ndim == 2 else norms


def relative(gap, size):
    """``gap / max(1, size)``, elementwise: how every residual and cutoff reads a gap."""
    return np.divide(gap, np.maximum(size, 1.0))


def scalar_part(v: np.ndarray):
    """``(c, residual)`` for a square ``v``: c = trace(v) / n, residual = max |v - c I|.

    A 2-d ``v`` gives a complex and a float; a stack of shape ``(..., n, n)``
    gives two arrays of shape ``...``, each entry the numbers of its matrix.
    """
    n = v.shape[-1]
    c = np.trace(v, axis1=-2, axis2=-1) / n
    resid = np.abs(v - c[..., None, None] * np.eye(n)).max(axis=(-2, -1))
    return (complex(c), float(resid)) if v.ndim == 2 else (c, resid)


def valid_seed(seed) -> int:
    """``seed`` itself if it is an integer of at least 0, else ``ValueError``."""
    # type(...) is int: a bool is not a seed, and a float is not one.
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be an integer of at least 0, got {seed!r}")
    return seed


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


class MatrixTuple:
    """A d-tuple of n-by-n complex matrices, n at least 1; immutable after construction."""

    __slots__ = ("components", "arity", "dim")

    def __init__(self, components):
        comps = tuple(_frozen(as_matrix(c)) for c in components)
        if not comps:
            raise ValueError("a matrix tuple needs at least one component")
        n = comps[0].shape[0]
        if n < 1:
            raise ValueError("dimension must be at least 1")
        for c in comps:
            if c.shape != (n, n):
                raise ValueError("all components must be square matrices of one size")
        self.components = comps
        self.arity = len(comps)
        self.dim = n

    @classmethod
    def zeros(cls, arity: int, dim: int) -> "MatrixTuple":
        return cls([np.zeros((dim, dim), dtype=np.complex128)] * arity)

    @classmethod
    def from_scalars(cls, scalars, dim: int) -> "MatrixTuple":
        """Scalar point: component r is ``scalars[r]`` times the identity."""
        eye = np.eye(dim, dtype=np.complex128)
        return cls([complex(s) * eye for s in scalars])

    def __len__(self) -> int:
        return self.arity

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, r: int) -> np.ndarray:
        return self.components[r]

    def __repr__(self) -> str:
        return f"MatrixTuple(arity={self.arity}, dim={self.dim})"


def as_stack(x) -> tuple[np.ndarray, tuple[int, ...]]:
    """The stack (d, B, n, n) holding ``x`` and the leading shape of ``x``:
    () for a :class:`MatrixTuple`, and ``...`` for d component arrays of one
    shape ``(..., n, n)``, B being its product.  Only the shape is checked:
    ``ValueError`` unless the matrices are square of dimension at least 1."""
    comps = np.asarray(x.components if isinstance(x, MatrixTuple) else x, dtype=np.complex128)
    if comps.ndim < 3 or comps.shape[-1] != comps.shape[-2] or not comps.shape[-1]:
        raise ValueError(
            f"expected square matrices of dimension at least 1, got shape {comps.shape}"
        )
    if comps.ndim == 4:
        return comps, comps.shape[1:2]
    lead = comps.shape[1:-2]
    return comps.reshape(len(comps), math.prod(lead), *comps.shape[-2:]), lead


def as_stacks(points) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """The stacks of points that go together sample by sample, each point
    converted once, and the leading shape of the stacks among them (() if
    all are lone); a stack of one sample joins every sample."""
    stacks, converted = [], {}
    for x in points:
        pair = converted.get(id(x))
        if pair is None:
            pair = converted[id(x)] = as_stack(x)
        stacks.append(pair[0])
    leads = {lead for _, lead in converted.values()} - {()}
    lead = max(leads, key=math.prod, default=())
    if {s.shape[1] for s, _ in converted.values()} - {1, math.prod(lead)}:
        raise ValueError("point stacks must share one shape of B samples, or hold one")
    return stacks, lead


def unstack(values: np.ndarray, lead: tuple[int, ...]):
    """Per-sample results of a stack, ``values`` of shape (B, ...), shaped
    as :func:`as_stack` found the points: leading shape ``lead``, and a lone
    point's number as a Python scalar."""
    if len(lead) == 1:
        return values  # already one result per sample
    out = values.reshape((*lead, *values.shape[1:]))
    return out.item() if out.ndim == 0 else out


def direct_sum(points):
    """Componentwise block-diagonal sum of points (dims may differ), sample
    by sample for stacks; lone points alone give a :class:`MatrixTuple`."""
    stacks, lead = as_stacks(points)
    if not stacks or any(len(s) != len(stacks[0]) for s in stacks):
        raise ValueError("direct_sum needs one or more points, all of one arity")
    d, batch = len(stacks[0]), math.prod(lead)
    offsets = [0, *itertools.accumulate(s.shape[-1] for s in stacks)]
    out = np.zeros((d, batch, offsets[-1], offsets[-1]), dtype=np.complex128)
    for s, lo, hi in zip(stacks, offsets, offsets[1:]):
        out[:, :, lo:hi, lo:hi] = s
    return out.reshape(d, *lead, *out.shape[-2:]) if lead else MatrixTuple(out[:, 0])
