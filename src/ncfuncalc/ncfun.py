"""Graded black-box functions over matrix tuples.

An :class:`NCFunctionHandle` evaluates a d-tuple of n-by-n matrices to an
n-by-n matrix at every dimension n.  Built-in backings: a free polynomial,
a truncated homogeneous series, or a transfer-function realization.  Domain
membership is checked on evaluation; jet evaluations on block matrices that
leave the nominal ball go through the explicit ``unchecked`` path and are
rescaled exactly by homogeneity in the derivative machinery.  The negative
control handles (deliberately broken evaluators) live here too, so the file
formats can name them without depending on the verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .freepoly import FreePoly
from .linalg import MatrixTuple, operator_norm
from .realization import PolyMatrix, Realization, eval_delta, eval_realization

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

DOMAIN_CHECK_MARGIN = 1e-9
DEFAULT_TRUNCATION = 24


class DomainViolationError(ValueError):
    """Raised when an evaluation point lies outside the declared domain."""


class NonFiniteResultError(ArithmeticError):
    """Raised when an evaluation overflows to non-finite output entries."""


@dataclass(frozen=True)
class DomainDescriptor:
    """One of polydisk(radius), rowball(radius), or deltaball(delta, margin).

    ``norm_cap`` is an optional overall bound on the largest component norm,
    mirroring the exhaustion sets; it defaults to no cap.
    """

    kind: str
    radius: float = 1.0
    margin: float = 0.0
    delta: PolyMatrix | None = None
    norm_cap: float = math.inf

    def __post_init__(self):
        if self.kind not in ("polydisk", "rowball", "deltaball"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "deltaball":
            if self.delta is None:
                raise ValueError("deltaball domain needs a polynomial matrix")
            if not 0.0 <= self.margin < 1.0:
                raise ValueError("margin must be in [0, 1)")
        elif self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.norm_cap <= 0:
            raise ValueError("norm cap must be positive")

    @classmethod
    def polydisk(cls, radius: float = 1.0, norm_cap: float = math.inf) -> "DomainDescriptor":
        return cls(kind="polydisk", radius=float(radius), norm_cap=norm_cap)

    @classmethod
    def rowball(cls, radius: float = 1.0, norm_cap: float = math.inf) -> "DomainDescriptor":
        return cls(kind="rowball", radius=float(radius), norm_cap=norm_cap)

    @classmethod
    def deltaball(
        cls, delta: PolyMatrix, margin: float = 0.0, norm_cap: float = math.inf
    ) -> "DomainDescriptor":
        return cls(kind="deltaball", delta=delta, margin=float(margin), norm_cap=norm_cap)

    @property
    def bound(self) -> float:
        """The gauge's bound: the radius, or 1 - margin for a delta ball."""
        return 1.0 - self.margin if self.kind == "deltaball" else self.radius

    @property
    def balanced(self) -> bool | None:
        """Closed under scaling by the unit disk: True for norm balls, None (unknown) else."""
        return None if self.kind == "deltaball" else True

    def gauge(self, x: MatrixTuple) -> float:
        """The one number that membership and jet scaling read.

        The largest component norm on a polydisk, the row norm
        ``||[x_1 ... x_d]||`` on a row ball, ``||delta(x)||`` on a delta
        ball, and ``inf`` past the norm cap.  An unbounded ball admits every
        point within the cap, so it reports 0 without computing a norm.
        """
        if math.isfinite(self.norm_cap) and x.max_norm() > self.norm_cap:
            return math.inf
        if math.isinf(self.bound):
            return 0.0
        if self.kind == "polydisk":
            return x.max_norm()
        if self.kind == "rowball":
            return operator_norm(np.hstack(list(x.components)))
        return operator_norm(eval_delta(self.delta, x))

    def admits(self, gauge: float) -> bool:
        """Whether a point of this gauge is inside, with a safety margin of 1e-9."""
        return gauge < self.bound - DOMAIN_CHECK_MARGIN

    def contains(self, x: MatrixTuple) -> bool:
        """Strict membership: the gauge of ``x`` lies below the bound by 1e-9."""
        return self.admits(self.gauge(x))


class SeriesFunction:
    """Homogeneous expansion: part k is a degree-k free polynomial (or zero)."""

    __slots__ = ("parts", "radius", "arity")

    def __init__(self, parts, radius: float):
        parts = list(parts)
        if not parts:
            raise ValueError("a series needs at least the constant part")
        d = parts[0].arity
        for k, p in enumerate(parts):
            if not isinstance(p, FreePoly):
                raise TypeError("series parts must be FreePoly")
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
        out = FreePoly.zero(self.arity)
        for p in self.parts[: maxdeg + 1]:
            out = out + p
        return out


class NCFunctionHandle:
    """A graded evaluable function of d-tuples of square matrices."""

    __slots__ = ("arity", "domain", "kind", "payload", "_evaluator")

    def __init__(
        self,
        arity: int,
        domain: DomainDescriptor,
        evaluator: Callable[[MatrixTuple], np.ndarray],
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

    def eval(self, x: MatrixTuple, *, unchecked: bool = False) -> np.ndarray:
        """Evaluate at ``x``; raises DomainViolationError outside the domain.

        ``unchecked=True`` skips the membership test (used for jet blocks,
        which intentionally leave the nominal ball).  Gradedness of the
        output is always enforced, and a non-finite output raises
        :class:`NonFiniteResultError`.
        """
        if x.arity != self.arity:
            raise ValueError(f"handle has arity {self.arity}, point has arity {x.arity}")
        if not unchecked and not self.domain.contains(x):
            raise DomainViolationError(
                f"point at dimension {x.dim} lies outside the {self.domain.kind} domain"
            )
        out = np.asarray(self._evaluator(x), dtype=np.complex128)
        if out.shape != (x.dim, x.dim):
            raise ValueError(
                f"evaluator broke grading: input dimension {x.dim}, output shape {out.shape}"
            )
        if not np.all(np.isfinite(out)):
            raise NonFiniteResultError(f"evaluation at dimension {x.dim} is not finite")
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
        lambda x: eval_realization(r, x),
        kind="realization",
        payload=r,
    )


# -- negative controls -------------------------------------------------------


def _control_conjugation(d: int) -> NCFunctionHandle:
    return NCFunctionHandle(
        d,
        DomainDescriptor.polydisk(math.inf),
        lambda x: np.conj(x[0]),
        kind="control",
        payload={"name": "entrywise-conjugation", "d": d},
    )


def _control_fixed_corner(d: int) -> NCFunctionHandle:
    def evaluator(x: MatrixTuple) -> np.ndarray:
        out = np.zeros((x.dim, x.dim), dtype=np.complex128)
        out[0, 0] = 1.0
        return out

    return NCFunctionHandle(
        d,
        DomainDescriptor.polydisk(math.inf),
        evaluator,
        kind="control",
        payload={"name": "fixed-corner", "d": d},
    )


def _control_nongraded(d: int) -> NCFunctionHandle:
    return NCFunctionHandle(
        d,
        DomainDescriptor.polydisk(math.inf),
        lambda x: np.eye(2, dtype=np.complex128),
        kind="control",
        payload={"name": "non-graded", "d": d},
    )


_CONTROL_FACTORIES = {
    "entrywise-conjugation": _control_conjugation,
    "fixed-corner": _control_fixed_corner,
    "non-graded": _control_nongraded,
}

CONTROL_NAMES = tuple(sorted(_CONTROL_FACTORIES))


def control_handle(name: str, d: int = 1) -> NCFunctionHandle:
    """A deliberately broken handle; see CONTROL_NAMES for the choices."""
    try:
        factory = _CONTROL_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown control {name!r}; choices: {', '.join(CONTROL_NAMES)}")
    return factory(d)
