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

The resolvent certificate.  With ``q = ||D|| ||delta(x)||`` (``||D||`` cached
once per :class:`Realization`) the amplified product K = (D (x) 1)(1 (x) delta(x))
has ``||K|| <= q``, so when q < 1 a Neumann series makes ``1 - K`` invertible
with ``kappa_2 <= (1 + q) / (1 - q)``.  Since ``kappa_inf <= N kappa_2`` at
resolvent dimension N = m J n, the reciprocal-condition test of
:func:`~ncfuncalc.linalg.inverse` (``rcond_inf > PIVOT_RTOL``) provably passes
whenever ``1 - q > 2 N PIVOT_RTOL (1 + q)``; the factor 2 absorbs roundoff in
q.  There the resolvent is applied to the n columns of C (x) 1 by an LU
solve instead of being inverted, and :class:`ResolventSingularError` is
raised only if LAPACK reports exact singularity or the solution is not
finite.  Elsewhere the full inverse and its condition test run, so
the error keeps one rule: it fires where the condition test fails.  The
certificate is read per point: on a stack of points, every certified one is
solved in one batched LAPACK call and the others are inverted one at a time.
An isometric colligation has ``||D|| <= 1``, so every scan sample
(``q <= 0.95``) takes the solve.

A contractivity scan rescales one complex Gaussian direction per sample to
the norm ``(1 - SCAN_MARGIN) U^(p/(2 d n^2))``, U uniform on [0, 1), with p
the degree of every entry of a homogeneous delta (:meth:`PolyMatrix.degree`):
the radial law of the uniform distribution on a ball of real dimension
2 d n^2.  A delta that is not homogeneous reads p = 1 in that law, and a
sample's scale t solves ``||delta(t u)|| = size`` by bisection wherever 0
lies below the size (:meth:`DomainDescriptor._bisect`).  No draw is
rejected, so a scan's ``draws`` equals its ``samples``.  A sample outside the
ball is halved toward 0 until it enters; SamplerStarvationError means it
never did, which only a ball that does not contain 0 can cause.  Sample i is
drawn from its own stream ``(seed, i)``, and the samples are processed in
blocks stacked along a leading axis, as many per block as keep the block's
resolvents within ``SCAN_BLOCK_BYTES`` (at least one).  Per block, one
stacked ``delta(u)`` and its norms give the scale t.  On a homogeneous delta of degree p that is also
the measurement: ``t^p ||delta(u)||`` and ``t^p delta(u)`` serve the
membership comparison, the certificate's q and the transfer formula, and a
halving multiplies both by ``0.5^p``.  A delta that is not homogeneous
measures the scaled samples once more, and again only the samples a halving
moved.  The transfer step is one BLAS product per sample, written straight
into the block's stacked resolvents, and one batched LU solve per block.  Each sample's value and norm are the ones
:func:`eval_realization` and :func:`~ncfuncalc.linalg.operator_norm` give it
alone, up to roundoff in ``delta(x)`` for p > 1, so the report does not
depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .freepoly import FreePoly
from .linalg import (
    PIVOT_RTOL,
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
RESCALE_BISECTIONS = 50
SCAN_MARGIN = 0.05
SCAN_NORM_TOL = 1e-8
SCAN_BLOCK_BYTES = 640 * 2**10


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

    def degree(self) -> int | None:
        """p when every nonzero entry is homogeneous of one degree p >= 1, so
        that ``delta(t x) = t^p delta(x)`` for t >= 0; None otherwise (mixed
        degrees, a constant term, or no nonzero entry)."""
        lengths = {len(w) for row in self.entries for p in row for w in p.terms}
        return lengths.pop() if len(lengths) == 1 and 0 not in lengths else None


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


def eval_delta(delta: PolyMatrix, x) -> np.ndarray:
    """The (I*n) x (J*n) block matrix with (i, j) block delta[i][j](x); on d
    component arrays of one shape ``(..., n, n)`` in place of a
    :class:`MatrixTuple`, the stack of them, of shape ``(..., I*n, J*n)``."""
    comps = x.components if isinstance(x, MatrixTuple) else x
    if len(comps) != delta.arity:
        raise ValueError(f"delta has arity {delta.arity}, point has arity {len(comps)}")
    shape = comps[0].shape
    n = shape[-1]
    out = np.zeros(shape[:-2] + (delta.rows * n, delta.cols * n), dtype=np.complex128)
    for i in range(delta.rows):
        for j in range(delta.cols):
            p = delta.entries[i][j]
            if not p.is_zero:
                out[..., i * n : (i + 1) * n, j * n : (j + 1) * n] = p.evaluate(comps)
    return out


@dataclass(frozen=True)
class DomainDescriptor:
    """One of polydisk(radius), rowball(radius), or deltaball(delta, margin).

    ``norm_cap`` is an optional overall bound on the largest component norm;
    it defaults to no cap.
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

    def contains(self, x: MatrixTuple) -> bool:
        """Strict membership: the gauge of ``x`` lies below the bound by 1e-9."""
        return bool(self._inside(self._gauges(_one_sample(x))[0][0]))

    def rescale(self, u: MatrixTuple, size: float) -> MatrixTuple:
        """The multiple of ``u`` whose norm is ``size``, halved until it is inside.

        Raises :class:`SamplerStarvationError` after ``RESCALE_HALVINGS``
        halvings, which only a domain that does not contain 0 can reach.
        """
        return MatrixTuple(self._rescale(_one_sample(u), np.array([size]))[0][:, 0])

    # A stack holds its samples' components in an array of shape (d, B, n, n):
    # letter first, sample second.  The public methods above are the B = 1 case.

    def _norms(self, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The norms of a stack: the largest component norm on a polydisk, the row
        norm ``||[x_1 ... x_d]||`` on a row ball, ``||delta(x)||`` on a delta
        ball with that ``delta(x)`` stack (None on the other kinds)."""
        if self.kind == "polydisk":
            return np.max(operator_norm(comps), axis=0), None
        if self.kind == "rowball":
            return operator_norm(np.concatenate(tuple(comps), axis=-1)), None
        values = eval_delta(self.delta, comps)
        return operator_norm(values), values

    def _gauges(self, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The gauges of a stack, which membership reads: its norms, with
        ``inf`` past the norm cap and 0 without a norm on an unbounded ball.
        Without a cap, the ``delta(x)`` stack of ``_norms`` comes along."""
        gauges = np.zeros(comps.shape[1])
        if math.isfinite(self.norm_cap):
            uncapped = np.max(operator_norm(comps), axis=0) <= self.norm_cap
            gauges[~uncapped] = math.inf
            if math.isfinite(self.bound):
                gauges[uncapped] = self._norms(comps[:, uncapped])[0]
            return gauges, None
        return (gauges, None) if math.isinf(self.bound) else self._norms(comps)

    def _inside(self, gauge):
        """The one membership comparison, on one gauge or an array of them."""
        return gauge < self.bound - DOMAIN_CHECK_MARGIN

    def _rescale(
        self, u: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Each sample of ``u`` scaled to its norm in ``sizes``, then halved
        toward 0 until it is inside; returns the stack, its gauges and, on an
        uncapped delta ball, its ``delta(x)`` stack.

        The domain's norm ``||u||`` is p-homogeneous, with p = 1 on a
        polydisk or row ball and p = :meth:`PolyMatrix.degree` on a delta
        ball, and the factor is ``t = (size / ||u||)^(1/p)``.  Without a norm
        cap such a sample is measured once, on ``u``: its gauge is
        ``t^p ||u||`` and its ``delta(x)`` is ``t^p delta(u)``, and a halving
        multiplies both by ``0.5^p``.  A delta that is not homogeneous takes
        t from :meth:`_bisect`; it and a capped domain measure ``x``, and a
        halving then measures again only the samples it halved."""
        norms, values = self._norms(u)
        ratios = np.divide(sizes, norms, out=np.ones_like(norms), where=norms != 0.0)
        p = self.delta.degree() if self.kind == "deltaball" else 1
        if p is None:
            ratios = self._bisect(u, sizes, ratios)
        x = (ratios if p in (1, None) else ratios ** (1.0 / p))[:, None, None] * u
        homogeneous = p is not None and math.isinf(self.norm_cap)
        if homogeneous:
            gauges = ratios * norms
            if values is not None:
                values *= ratios[:, None, None]
        else:
            gauges, values = self._gauges(x)
        for _ in range(RESCALE_HALVINGS):
            out = ~self._inside(gauges)
            if not out.any():
                return x, gauges, values
            x[:, out] *= 0.5
            if homogeneous:
                gauges[out] *= 0.5**p
                if values is not None:
                    values[out] *= 0.5**p
            else:
                gauges[out], halved = self._gauges(x[:, out])
                if values is not None:
                    values[out] = halved
        raise SamplerStarvationError(
            f"no halving of a sample of norm {sizes[out][0]:.3e} entered the {self.kind} domain"
        )

    def _bisect(self, u: np.ndarray, sizes: np.ndarray, guess: np.ndarray) -> np.ndarray:
        """Each sample's factor t, with ``||delta(t u)||`` at most its size, from
        ``RESCALE_BISECTIONS`` bisection steps on a bracket: 0, whose norm
        must lie below the size, and ``guess``, doubled at most
        ``RESCALE_HALVINGS`` times until its norm reaches the size.  A sample
        without that bracket keeps ``guess``."""

        def norms(t):
            return self._norms(t[:, None, None] * u)[0]

        lo, hi = np.zeros_like(guess), guess.copy()
        bracketed, reached = norms(lo) < sizes, norms(hi) >= sizes
        for _ in range(RESCALE_HALVINGS):
            grow = bracketed & ~reached
            if not grow.any():
                break
            hi[grow] *= 2.0
            reached = norms(hi) >= sizes
        bracketed &= reached
        for _ in range(RESCALE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            below = norms(mid) <= sizes
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return np.where(bracketed, lo, guess)


def _one_sample(x: MatrixTuple) -> np.ndarray:
    """The stack of the single sample ``x``: shape (d, 1, n, n)."""
    return np.array(x.components)[:, None]


def in_ball(delta: PolyMatrix, x: MatrixTuple, margin: float = 0.0) -> bool:
    """Whether ``x`` lies in ``DomainDescriptor.deltaball(delta, margin)``."""
    return DomainDescriptor.deltaball(delta, margin).contains(x)


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

    @cached_property
    def _d_norm(self) -> float:
        """``||D||_2``, computed on first use by :func:`eval_realization`."""
        return operator_norm(self.D)

    def colligation(self) -> np.ndarray:
        """The (1 + m*J) x (1 + m*I) block matrix [[A, B], [C, D]]."""
        return np.block([[np.array([[self.A]], dtype=np.complex128), self.B], [self.C, self.D]])


def check_isometry(r: Realization) -> float:
    """Residual ``|| V* V - I ||`` of the colligation; 0 for an exact isometry.

    ``inf`` when the Gram matrix V* V overflows, without a numpy warning.
    """
    v = r.colligation()
    with np.errstate(over="ignore", invalid="ignore"):
        gram = v.conj().T @ v
    if not np.all(np.isfinite(gram)):
        return math.inf
    return operator_norm(gram - np.eye(gram.shape[0], dtype=np.complex128))


def eval_realization(r: Realization, x: MatrixTuple) -> np.ndarray:
    """Transfer-function value at ``x`` under the fixed tensor ordering.

    The one-sample case of the transfer step the scan runs on its blocks:
    the amplified products (D (x) 1)(1 (x) delta(x)) and
    (B (x) 1)(1 (x) delta(x)) come from one BLAS product of the stacked D
    and B with ``delta(x)``, so no Kronecker product of delta is formed.
    With ``q = ||D|| ||delta(x)||`` and resolvent dimension ``N = m J n``,
    when ``1 - q > 2 N PIVOT_RTOL (1 + q)`` (the factor 2 absorbs roundoff
    in q) the resolvent is applied to C (x) 1 by one LU solve; otherwise it
    is formed by :func:`~ncfuncalc.linalg.inverse`.  The certificate (module
    docstring) guarantees that the inverse's condition test would pass
    wherever the solve runs, so the rule for :class:`ResolventSingularError`
    is unchanged: it is raised when the resolvent is singular or too
    ill-conditioned to invert, which signals that ``x`` lies outside the
    natural domain.
    """
    if x.arity != r.arity:
        raise ValueError(f"realization has arity {r.arity}, point has arity {x.arity}")
    delta_x = eval_delta(r.delta, x)[None]
    return _transfer(r, delta_x, operator_norm(delta_x))[0]


def _transfer(r: Realization, delta_x: np.ndarray, delta_norms: np.ndarray) -> np.ndarray:
    """Transfer-function values at a stack of points, from ``delta(x)`` of
    shape (B, I*n, J*n) and its norms ``||delta(x)||`` of shape (B,).

    Both amplified products come from one 2-d BLAS product per sample: D
    reshaped to rows (a, j, b) and B to rows b, stacked, times ``delta(x)``
    reshaped to rows i and columns (t, k, u).  The D rows are written through
    a transposed view straight into the stacked resolvents, rows (a, j, t)
    and columns (b, k, u), so the block holds no second product of its size.
    Every certified sample is solved in one batched LAPACK call; the others
    go through :func:`~ncfuncalc.linalg.inverse` one at a time.
    """
    m, rows, cols = r.m, r.delta.rows, r.delta.cols
    batch, n = delta_x.shape[0], delta_x.shape[-1] // cols
    res_dim, d_rows = m * cols * n, m * cols * m
    lhs = np.empty((batch, res_dim, res_dim), dtype=np.complex128)
    b_dlt = np.empty((batch, n, res_dim), dtype=np.complex128)
    # Letters: s indexes samples; a, b index [m]; i indexes [I]; j indexes [J];
    # t indexes [n]; v indexes the pairs (k, u) of [J] x [n].
    coeffs = np.concatenate((r.D.reshape(d_rows, rows), r.B.reshape(m, rows)))  # [ajb | b, i]
    lhs_view = lhs.reshape(batch, m, cols, n, m, cols * n)  # [s, a, j, t, b, v]
    lhs_view = lhs_view.transpose(0, 1, 2, 4, 3, 5)  # [s, a, j, b, t, v]
    b_view = b_dlt.reshape(batch, n, m, cols * n).transpose(0, 2, 1, 3)  # [s, b, t, v]
    for s in range(batch):
        prod = coeffs @ delta_x[s].reshape(rows, n * cols * n)  # [ajb | b, tv]
        lhs_view[s] = prod[:d_rows].reshape(m, cols, m, n, cols * n)
        b_view[s] = prod[d_rows:].reshape(m, n, cols * n)
    np.subtract(np.eye(res_dim, dtype=np.complex128), lhs, out=lhs)  # 1 - K, in place
    q = r._d_norm * delta_norms
    solved = 1.0 - q > 2.0 * res_dim * PIVOT_RTOL * (1.0 + q)
    c_lift = np.kron(r.C, np.eye(n))
    res_c = np.empty((batch, res_dim, n), dtype=np.complex128)
    if solved.any():
        try:
            res_c[solved] = np.linalg.solve(lhs if solved.all() else lhs[solved], c_lift[None])
        except np.linalg.LinAlgError as exc:
            raise ResolventSingularError(f"LAPACK: {exc}") from exc
        if not np.all(np.isfinite(res_c[solved])):
            raise ResolventSingularError("resolvent solve has non-finite entries")
    for s in np.flatnonzero(~solved):
        try:
            res_c[s] = inverse(lhs[s]) @ c_lift
        except SingularMatrixError as exc:
            raise ResolventSingularError(str(exc)) from exc
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
    """Outcome of a contractivity scan over sampled ball points.

    No draw is rejected, so the requested, collected and drawn counts are
    all ``samples``; the scan passes iff ``max_norm`` is at most ``threshold``.
    """

    dim: int
    samples: int
    max_norm: float
    seed: int

    requested = collected = draws = property(lambda self: self.samples)

    @property
    def threshold(self) -> float:
        return 1.0 + SCAN_NORM_TOL

    @property
    def passed(self) -> bool:
        return self.max_norm <= self.threshold

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
    if n < 1:
        raise ValueError("dimension must be at least 1")
    d, p = r.arity, r.delta.degree() or 1
    ball = DomainDescriptor.deltaball(r.delta, SCAN_MARGIN)
    block = max(1, SCAN_BLOCK_BYTES // (16 * (r.m * r.delta.cols * n) ** 2))
    max_norm = 0.0
    for start in range(0, samples, block):
        indices = range(start, min(start + block, samples))
        u = np.empty((d, len(indices), n, n), dtype=np.complex128)
        sizes = np.empty(len(indices))
        for k, i in enumerate(indices):
            rng = np.random.default_rng((seed, i))
            g = rng.standard_normal((d, 2, n, n))  # real, imaginary part of each letter
            u[:, k] = g[:, 0] + 1j * g[:, 1]
            sizes[k] = ball.bound * rng.uniform() ** (p / (2 * d * n * n))
        # Without a norm cap the ball's gauge is ||delta(x)||, read off
        # ||delta(u)|| when delta is homogeneous: the delta(x) stack and norms
        # that admitted the samples are the ones the transfer step and its
        # certificate read.
        _, delta_norms, delta_x = ball._rescale(u, sizes)
        values = _transfer(r, delta_x, delta_norms)
        max_norm = max(max_norm, float(np.max(operator_norm(values))))
    return ScanReport(dim=n, samples=samples, max_norm=max_norm, seed=seed)
