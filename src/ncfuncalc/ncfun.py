"""Graded black-box functions over matrix tuples.

An :class:`NCFunctionHandle` evaluates a d-tuple of n-by-n matrices to an
n-by-n matrix at every dimension n, and a stack of shape (d, B, n, n) to the
stack of its B values; a :class:`~ncfuncalc.linalg.MatrixTuple` is the lone
form.  Evaluating a stack is evaluating at the direct sum of its points, so
a caller with many points at one dimension pays one evaluation.  Built-in
backings: a free polynomial, a truncated homogeneous series, or a
transfer-function realization; an opaque evaluator must take both forms.
Domain membership is checked on evaluation, except on jets whose membership
:func:`~ncfuncalc.ncderiv.delta_k` has tested and on their base points.
The negative control handles (deliberately broken evaluators) live here
too, so the file formats can name them without depending on the suite.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .freepoly import FreePoly
from .linalg import as_stack
from .realization import DomainDescriptor, Realization

__all__ = [
    "DomainViolationError",
    "NonFiniteResultError",
    "DomainDescriptor",
    "SeriesFunction",
    "NCFunctionHandle",
    "from_poly",
    "from_series",
    "from_realization",
    "control_handle",
    "CONTROL_NAMES",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = 24


class DomainViolationError(ValueError):
    """Raised when an evaluation point lies outside the declared domain."""


class NonFiniteResultError(ArithmeticError):
    """Raised when an evaluation overflows to non-finite output entries."""


class SeriesFunction:
    """Homogeneous expansion: part k is a degree-k free polynomial (or zero)."""

    __slots__ = ("parts", "radius", "arity")

    def __init__(self, parts, radius: float):
        parts = list(parts)
        if not parts:
            raise ValueError("a series needs at least the constant part")
        if not all(isinstance(p, FreePoly) for p in parts):
            raise TypeError("series parts must be FreePoly")
        d = parts[0].arity
        for k, p in enumerate(parts):
            if p.arity != d:
                raise ValueError("series parts differ in arity")
            if not p.is_homogeneous(k):
                raise ValueError(f"part {k} is not homogeneous of degree {k}")
        if not radius > 0:
            raise ValueError("convergence radius must be positive")
        self.parts = parts
        self.radius = float(radius)
        self.arity = d

    def truncate(self, maxdeg: int) -> FreePoly:
        """Sum of the parts through degree ``maxdeg`` as one polynomial."""
        return sum(self.parts[: maxdeg + 1], FreePoly.zero(self.arity))


class NCFunctionHandle:
    """A graded evaluable function of d-tuples of square matrices."""

    __slots__ = ("arity", "domain", "kind", "payload", "_evaluator")

    def __init__(
        self,
        arity: int,
        domain: DomainDescriptor,
        evaluator: Callable[..., np.ndarray],
        kind: str = "opaque",
        payload=None,
    ):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.arity = arity
        self.domain = domain
        self.kind = kind
        self.payload = payload
        self._evaluator = evaluator

    def eval(self, x, *, unchecked: bool = False) -> np.ndarray:
        """Evaluate at ``x``, a point or a stack handed to the evaluator as it
        is, with every sample in the domain unless ``unchecked``
        (DomainViolationError).  The output must have the leading shape of
        ``x`` and be finite (NonFiniteResultError).
        """
        comps, lead = as_stack(x)
        if len(comps) != self.arity:
            raise ValueError(f"handle has arity {self.arity}, point has arity {len(comps)}")
        n = comps.shape[-1]
        if not unchecked and not np.all(self.domain.contains(comps)):
            raise DomainViolationError(
                f"point at dimension {n} lies outside the {self.domain.kind} domain"
            )
        out = np.asarray(self._evaluator(x), dtype=np.complex128)
        if out.shape != (*lead, n, n):
            raise ValueError(
                f"evaluator broke grading: input dimension {n}, output shape {out.shape}"
            )
        if not np.all(np.isfinite(out)):
            raise NonFiniteResultError(f"evaluation at dimension {n} is not finite")
        return out

    __call__ = eval

    def __repr__(self) -> str:
        return f"NCFunctionHandle(kind={self.kind!r}, arity={self.arity})"


def from_poly(p: FreePoly, domain: DomainDescriptor | None = None) -> NCFunctionHandle:
    """Handle backed by a free polynomial; entire by default."""
    if domain is None:
        domain = DomainDescriptor.polydisk(math.inf)
    return NCFunctionHandle(p.arity, domain, p.evaluate, kind="poly", payload=p)


def from_series(
    s: SeriesFunction,
    truncation: int = DEFAULT_TRUNCATION,
    domain: DomainDescriptor | None = None,
) -> NCFunctionHandle:
    """Handle that sums the series parts through degree ``truncation``.

    The domain must be a norm ball strictly inside the convergence radius,
    so the dropped tail is controlled by the usual geometric estimate.
    """
    if truncation < 0:
        raise ValueError("truncation degree must be nonnegative")
    if domain is None:
        if s.radius == math.inf:
            raise ValueError("a series of infinite convergence radius needs an explicit domain")
        domain = DomainDescriptor.polydisk(s.radius / 2.0)
    if domain.kind not in ("polydisk", "rowball"):
        raise ValueError("series handles need a polydisk or rowball domain")
    if not domain.radius < s.radius:
        raise ValueError(
            f"domain radius {domain.radius} must lie strictly inside the "
            f"convergence radius {s.radius}"
        )
    truncated = s.truncate(truncation)
    return NCFunctionHandle(
        s.arity,
        domain,
        truncated.evaluate,
        kind="series",
        payload=(s, truncation),
    )


def from_realization(r: Realization, domain: DomainDescriptor | None = None) -> NCFunctionHandle:
    """Handle backed by the transfer function; on the ball of its delta by default."""
    if domain is None:
        domain = DomainDescriptor.deltaball(r.delta, 0.0)
    return NCFunctionHandle(
        r.arity,
        domain,
        r.evaluate,
        kind="realization",
        payload=r,
    )


# -- negative controls -------------------------------------------------------


def _fixed_corner(x) -> np.ndarray:
    out = np.zeros(np.shape(x[0]), dtype=np.complex128)
    out[..., 0, 0] = 1.0
    return out


_CONTROLS = {
    "entrywise-conjugation": lambda x: np.conj(x[0]),
    "fixed-corner": _fixed_corner,
    "non-graded": lambda x: np.broadcast_to(np.eye(2), (*np.shape(x[0])[:-2], 2, 2)),
}

CONTROL_NAMES = tuple(sorted(_CONTROLS))


def control_handle(name: str, d: int = 1) -> NCFunctionHandle:
    """A deliberately broken handle; see CONTROL_NAMES for the choices."""
    if name not in _CONTROLS:
        raise ValueError(f"unknown control {name!r}; choices: {', '.join(CONTROL_NAMES)}")
    return NCFunctionHandle(
        d,
        DomainDescriptor.polydisk(math.inf),
        _CONTROLS[name],
        kind="control",
        payload={"name": name, "d": d},
    )
