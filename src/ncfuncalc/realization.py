"""Delta balls, colligations, and transfer-function evaluation.

A ball is cut out by an I x J matrix ``delta`` of free polynomials via
``|| delta(x) || < 1``; the diagonal choice gives the polydisk and the row
choice gives the row ball.  A realization is an isometric colligation
V = [[A, B], [C, D]] from C (+) M^I to C (+) M^J together with ``delta``;
its transfer function is

    F(x) = A (x) 1  +  B (x) 1 . 1 (x) delta(x) . [1 - D (x) 1 . 1 (x) delta(x)]^{-1} . C (x) 1.

Tensor ordering convention, fixed once for the whole package: vectors are
indexed (mu, i, t) with the auxiliary index mu in [m] slowest, the block
index i in [I] or [J] in the middle, and the matrix coordinate t in [n]
fastest.  Concretely, delta(x) amplifies to kron(I_m, delta(x)) and B, C, D
amplify to kron(., I_n).

A contractivity scan rescales one complex Gaussian direction per sample to
the norm ``(1 - SCAN_MARGIN) U^(1/(2 d n^2))``, U uniform on [0, 1): for a
letter-linear delta, the radial law of the uniform distribution on a ball of
real dimension 2 d n^2.  No draw is rejected, so a scan's ``draws`` equals
its ``samples``.  A sample outside the ball is halved toward 0 until it
enters; SamplerStarvationError means it never did, which only a ball that
does not contain 0 can cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .freepoly import FreePoly
from .linalg import (
    MatrixTuple,
    SingularMatrixError,
    as_matrix,
    inverse,
    operator_norm,
)

__all__ = [
    "PolyMatrix",
    "DomainDescriptor",
    "delta_polydisk",
    "delta_rowball",
    "eval_delta",
    "in_ball",
    "in_exhaustion",
    "Realization",
    "check_isometry",
    "eval_realization",
    "ScanReport",
    "contractivity_scan",
    "mobius_realization",
    "identity_realization",
    "ResolventSingularError",
    "SamplerStarvationError",
    "NotIsometricError",
]

ISOMETRY_BUILD_TOL = 1e-10
ISOMETRY_SCAN_TOL = 1e-8
DOMAIN_CHECK_MARGIN = 1e-9
RESCALE_HALVINGS = 60
SCAN_MARGIN = 0.05
SCAN_NORM_TOL = 1e-8


class ResolventSingularError(ArithmeticError):
    """The resolvent in the transfer formula failed to invert."""


class SamplerStarvationError(RuntimeError):
    """Halving a sample toward 0 never brought it inside its domain."""


class NotIsometricError(ValueError):
    """An operation required an isometric colligation and did not get one."""


class PolyMatrix:
    """Rectangular grid of free polynomials with a common arity."""

    __slots__ = ("rows", "cols", "arity", "entries")

    def __init__(self, entries):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("a polynomial matrix needs at least one entry")
        cols = len(grid[0])
        if any(len(row) != cols for row in grid):
            raise ValueError("ragged polynomial matrix")
        d = grid[0][0].arity
        for row in grid:
            for p in row:
                if not isinstance(p, FreePoly):
                    raise TypeError("entries must be FreePoly")
                if p.arity != d:
                    raise ValueError("polynomial matrix entries differ in arity")
        self.rows = len(grid)
        self.cols = cols
        self.arity = d
        self.entries = grid

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, arity={self.arity})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def max_degree(self) -> int:
        return max(p.degree() for row in self.entries for p in row)


def delta_polydisk(d: int) -> PolyMatrix:
    """Diagonal d x d polynomial matrix diag(x0, ..., x{d-1})."""
    if d < 1:
        raise ValueError("need at least one variable")
    return PolyMatrix(
        [
            [FreePoly.letter(d, i) if i == j else FreePoly.zero(d) for j in range(d)]
            for i in range(d)
        ]
    )


def delta_rowball(d: int) -> PolyMatrix:
    """Row 1 x d polynomial matrix (x0 x1 ... x{d-1})."""
    if d < 1:
        raise ValueError("need at least one variable")
    return PolyMatrix([[FreePoly.letter(d, j) for j in range(d)]])


def eval_delta(delta: PolyMatrix, x: MatrixTuple) -> np.ndarray:
    """The (I*n) x (J*n) block matrix with (i, j) block delta[i][j](x)."""
    if delta.arity != x.arity:
        raise ValueError(f"delta has arity {delta.arity}, point has arity {x.arity}")
    n = x.dim
    out = np.zeros((delta.rows * n, delta.cols * n), dtype=np.complex128)
    for i in range(delta.rows):
        for j in range(delta.cols):
            p = delta.entries[i][j]
            if not p.is_zero:
                out[i * n : (i + 1) * n, j * n : (j + 1) * n] = p.evaluate(x)
    return out


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
        """The norm's bound: the radius, or 1 - margin for a delta ball."""
        return 1.0 - self.margin if self.kind == "deltaball" else self.radius

    @property
    def balanced(self) -> bool | None:
        """Closed under scaling by the unit disk: True for norm balls, None (unknown) else."""
        return None if self.kind == "deltaball" else True

    def norm(self, x: MatrixTuple) -> float:
        """The largest component norm on a polydisk, the row norm
        ``||[x_1 ... x_d]||`` on a row ball, ``||delta(x)||`` on a delta ball."""
        if self.kind == "polydisk":
            return x.max_norm()
        if self.kind == "rowball":
            return operator_norm(np.hstack(list(x.components)))
        return operator_norm(eval_delta(self.delta, x))

    def step_norm(self, h: MatrixTuple) -> float:
        """Size of a jet direction: ``norm(h)``, except ``||delta(h) - delta(0)||``
        on a delta ball, so that delta's constant term does not count."""
        if self.kind != "deltaball":
            return self.norm(h)
        value = eval_delta(self.delta, h)
        const = np.array([[p.coefficient(()) for p in row] for row in self.delta.entries])
        if const.any():
            value = value - np.kron(const, np.eye(h.dim))
        return operator_norm(value)

    def gauge(self, x: MatrixTuple) -> float:
        """``norm(x)``, which membership and jet scaling read, with two shortcuts:
        ``inf`` past the norm cap, and 0 without a norm on an unbounded ball."""
        if math.isfinite(self.norm_cap) and x.max_norm() > self.norm_cap:
            return math.inf
        if math.isinf(self.bound):
            return 0.0
        return self.norm(x)

    def admits(self, gauge: float) -> bool:
        """Whether a point of this gauge is inside, with a safety margin of 1e-9."""
        return gauge < self.bound - DOMAIN_CHECK_MARGIN

    def contains(self, x: MatrixTuple) -> bool:
        """Strict membership: the gauge of ``x`` lies below the bound by 1e-9."""
        return self.admits(self.gauge(x))

    def rescale(self, u: MatrixTuple, size: float) -> MatrixTuple:
        """The multiple of ``u`` whose norm is ``size``, halved until it is inside.

        Raises :class:`SamplerStarvationError` after ``RESCALE_HALVINGS``
        halvings, which only a domain that does not contain 0 can reach.
        """
        norm = self.norm(u)
        x = u if norm == 0.0 else (size / norm) * u
        for _ in range(RESCALE_HALVINGS):
            if self.contains(x):
                return x
            x = 0.5 * x
        raise SamplerStarvationError(
            f"no halving of a sample of norm {size:.3e} entered the {self.kind} domain"
        )


def in_ball(delta: PolyMatrix, x: MatrixTuple, margin: float = 0.0) -> bool:
    """Whether ``x`` lies in ``DomainDescriptor.deltaball(delta, margin)``."""
    return DomainDescriptor.deltaball(delta, margin).contains(x)


def in_exhaustion(delta: PolyMatrix, x: MatrixTuple, k: int) -> bool:
    """Membership in the k-th exhaustion set.

    Requires ``|| delta(x) || <= 1 - 1/k`` and ``|| x || <= k`` with the
    tuple norm taken as the largest component norm.
    """
    if k < 1:
        raise ValueError("exhaustion index must be at least 1")
    return DomainDescriptor.deltaball(delta).norm(x) <= 1.0 - 1.0 / k and x.max_norm() <= k


@dataclass(frozen=True)
class Realization:
    """Colligation (A, B, C, D) over delta with auxiliary dimension m.

    Shapes: A scalar, B is 1 x (m*I), C is (m*J) x 1, D is (m*J) x (m*I),
    where I, J are the row and column counts of ``delta``.
    """

    delta: PolyMatrix
    m: int
    A: complex
    B: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("auxiliary dimension must be at least 1")
        mi = self.m * self.delta.rows
        mj = self.m * self.delta.cols
        b = as_matrix(self.B)
        c = as_matrix(self.C)
        d = as_matrix(self.D)
        if b.shape != (1, mi):
            raise ValueError(f"B must be 1x{mi}, got {b.shape}")
        if c.shape != (mj, 1):
            raise ValueError(f"C must be {mj}x1, got {c.shape}")
        if d.shape != (mj, mi):
            raise ValueError(f"D must be {mj}x{mi}, got {d.shape}")
        for name, arr in (("B", b), ("C", c), ("D", d)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "A", complex(self.A))

    @property
    def arity(self) -> int:
        return self.delta.arity

    def colligation(self) -> np.ndarray:
        """The (1 + m*J) x (1 + m*I) block matrix [[A, B], [C, D]]."""
        return np.block([[np.array([[self.A]], dtype=np.complex128), self.B], [self.C, self.D]])


def check_isometry(r: Realization) -> float:
    """Residual ``|| V* V - I ||`` of the colligation; 0 for an exact isometry."""
    v = r.colligation()
    gram = v.conj().T @ v
    return operator_norm(gram - np.eye(gram.shape[0], dtype=np.complex128))


def eval_realization(r: Realization, x: MatrixTuple) -> np.ndarray:
    """Transfer-function value at ``x`` under the fixed tensor ordering.

    The amplified products (D (x) 1)(1 (x) delta(x)), (B (x) 1)(1 (x) delta(x))
    and R (C (x) 1) are contracted over the (mu, i, t) indices directly, so
    no Kronecker product is formed.  Raises :class:`ResolventSingularError`
    when the inner inverse fails, which signals that ``x`` lies outside the
    natural domain.
    """
    if x.arity != r.arity:
        raise ValueError(f"realization has arity {r.arity}, point has arity {x.arity}")
    n, m = x.dim, r.m
    rows, cols = r.delta.rows, r.delta.cols
    # Letters: a, b index [m]; i indexes [I]; j, k index [J]; t, u index [n].
    dlt = eval_delta(r.delta, x).reshape(rows, n, cols, n)  # [i, t, k, u]
    d4 = r.D.reshape(m, cols, m, rows)  # [a, j, b, i]
    res_dim = m * cols * n
    d_dlt = np.einsum("ajbi,itku->ajtbku", d4, dlt).reshape(res_dim, res_dim)
    b_dlt = np.einsum("bi,itku->tbku", r.B.reshape(m, rows), dlt).reshape(n, res_dim)
    try:
        resolvent = inverse(np.eye(res_dim, dtype=np.complex128) - d_dlt)
    except SingularMatrixError as exc:
        raise ResolventSingularError(str(exc)) from exc
    res_c = np.einsum("rcu,c->ru", resolvent.reshape(res_dim, m * cols, n), r.C[:, 0])
    return r.A * np.eye(n, dtype=np.complex128) + b_dlt @ res_c


def mobius_realization(a: complex) -> Realization:
    """One-variable realization of z -> (z - a) (1 - conj(a) z)^{-1}, |a| < 1."""
    a = complex(a)
    if abs(a) >= 1:
        raise ValueError("the parameter must lie in the open unit disk")
    s = math.sqrt(1.0 - abs(a) ** 2)
    return Realization(
        delta=delta_polydisk(1),
        m=1,
        A=-a,
        B=np.array([[s]]),
        C=np.array([[s]]),
        D=np.array([[a.conjugate()]]),
    )


def identity_realization() -> Realization:
    """One-variable realization of x -> x0 (permutation colligation)."""
    return Realization(
        delta=delta_polydisk(1),
        m=1,
        A=0.0,
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        D=np.array([[0.0]]),
    )


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a contractivity scan over sampled ball points."""

    dim: int
    requested: int
    collected: int
    draws: int
    max_norm: float
    threshold: float
    passed: bool
    seed: int

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "requested": self.requested,
            "collected": self.collected,
            "draws": self.draws,
            "max_norm": self.max_norm,
            "threshold": self.threshold,
            "passed": self.passed,
            "seed": self.seed,
        }


def contractivity_scan(r: Realization, n: int, samples: int, seed: int) -> ScanReport:
    """Sample ball points and report the largest transfer-function norm.

    Requires the colligation to be isometric (residual at most 1e-8); an
    isometric colligation must stay contractive, so the scan passes iff the
    sampled maximum is at most 1 + ``SCAN_NORM_TOL``.  Sample i is drawn
    from its own stream ``(seed, i)``, so the report does not depend on
    evaluation order; see the module docstring for the radius law.
    """
    resid = check_isometry(r)
    if resid > ISOMETRY_SCAN_TOL:
        raise NotIsometricError(
            f"colligation is not isometric (residual {resid:.3e} > {ISOMETRY_SCAN_TOL:.0e})"
        )
    if samples < 1:
        raise ValueError("need at least one sample")
    d = r.arity
    ball = DomainDescriptor.deltaball(r.delta, SCAN_MARGIN)
    max_norm = 0.0
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        u = MatrixTuple(
            [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d)]
        )
        size = ball.bound * rng.uniform() ** (1.0 / (2 * d * n * n))
        max_norm = max(max_norm, operator_norm(eval_realization(r, ball.rescale(u, size))))
    threshold = 1.0 + SCAN_NORM_TOL
    return ScanReport(
        dim=n,
        requested=samples,
        collected=samples,
        draws=samples,
        max_norm=max_norm,
        threshold=threshold,
        passed=max_norm <= threshold,
        seed=seed,
    )
