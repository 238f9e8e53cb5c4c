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

The resolvent certificate.  With ``q = ||D|| ||delta(x)||`` the amplified
product K = (D (x) 1)(1 (x) delta(x)) has ``||K|| <= q``, so when q < 1
``1 - K`` is invertible with ``kappa_2 <= (1 + q) / (1 - q)``, and since
``kappa_inf <= N kappa_2`` at resolvent dimension N = m J n the condition
test of :func:`~ncfuncalc.linalg.inverse` provably passes whenever
``1 - q > 2 N PIVOT_RTOL (1 + q)`` (the 2 absorbs roundoff in q).  Such a
point is solved by LU, and :class:`ResolventSingularError` is raised only if
LAPACK reports exact singularity or the solution is not finite; any other
point is inverted with the condition test, so the error fires where that
test fails.  An isometric colligation has ``||D|| <= 1``, so every scan
sample (``q <= 0.95``) takes the solve.

Stacks.  A point is a stack of shape (d, B, n, n), a
:class:`~ncfuncalc.linalg.MatrixTuple` its lone form.  The transfer step
alone sizes the blocks of every stack, from :meth:`Realization.evaluate` and
from a scan alike: each block holds ``fits`` samples, the number of N x N
resolvents within ``SCAN_BLOCK_BYTES`` (at least one), in one buffer, and a
second buffer holds the block on the solver thread when it runs.  Each sample
gets the value it gets alone (on a scan, up to roundoff in ``delta(x)`` for
p > 1).

The solver thread.  A call of more than one block runs them through a
two-stage pipeline: while one daemon thread runs the batched LAPACK solve of
block k, which releases the GIL, the calling thread builds block k + 1 (a
scan's draws and rescaling, ``delta(x)``, the resolvents) and then finishes
block k.  The thread runs that one call and nothing else: the certificate,
the finiteness checks, the uncertified samples'
:func:`~ncfuncalc.linalg.inverse` and every error stay on the calling thread.
The last block is solved where it is built.  No thread starts for a one-block
call (at most ``fits`` samples, a lone point among them), nor in a process
that may run on one CPU only.  A forked child drops the parent's job queue at
fork, with no pid check, and starts its own thread when it first needs one.

A contractivity scan rescales one complex Gaussian direction per sample,
drawn from its own stream ``(seed, i)``, to the norm
``(1 - SCAN_MARGIN) U^(p/(2 d n^2))``, U uniform on [0, 1), with p the
degree of every entry of a homogeneous delta (:meth:`PolyMatrix.degree`,
read as 1 otherwise): the radial law of the uniform distribution on a ball
of real dimension 2 d n^2.  No draw is rejected, so a scan's ``draws``
equals its ``samples``; :meth:`DomainDescriptor._rescale` says how a sample
is scaled, measured once and halved into the ball.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .freepoly import FreePoly
from .linalg import (
    PIVOT_RTOL,
    MatrixTuple,
    SingularMatrixError,
    as_matrix,
    as_stack,
    inverse,
    operator_norm,
    unstack,
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

    __slots__ = ("rows", "cols", "arity", "entries", "_nonzero")

    def __init__(self, entries):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("a polynomial matrix needs at least one entry")
        cols = len(grid[0])
        if any(len(row) != cols for row in grid):
            raise ValueError("ragged polynomial matrix")
        if not all(isinstance(p, FreePoly) for row in grid for p in row):
            raise TypeError("entries must be FreePoly")
        d = grid[0][0].arity
        nonzero = []
        for i, row in enumerate(grid):
            for j, p in enumerate(row):
                if p.arity != d:
                    raise ValueError("polynomial matrix entries differ in arity")
                if not p.is_zero:
                    word = next(iter(p.terms))
                    bare = len(p.terms) == 1 and len(word) == 1 and p.terms[word] == 1
                    nonzero.append((i, j, p, word[0] if bare else None))
        self.rows = len(grid)
        self.cols = cols
        self.arity = d
        self.entries = grid
        # (i, j, entry, l) per nonzero entry, l when the entry is the bare letter x_l
        self._nonzero = tuple(nonzero)

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
    """The (I*n) x (J*n) block matrix with (i, j) block delta[i][j](x), at a
    point in any form :func:`~ncfuncalc.linalg.as_stack` takes, with its
    leading shape.  A bare letter is copied, bit for bit its evaluation."""
    comps, lead = as_stack(x)
    if len(comps) != delta.arity:
        raise ValueError(f"delta has arity {delta.arity}, point has arity {len(comps)}")
    n = comps.shape[-1]
    out = np.zeros((comps.shape[1], delta.rows * n, delta.cols * n), dtype=np.complex128)
    for i, j, p, letter in delta._nonzero:
        block = p.evaluate(comps) if letter is None else comps[letter]
        out[:, i * n : (i + 1) * n, j * n : (j + 1) * n] = block
    return unstack(out, lead)


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
        elif not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.norm_cap > 0:
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
        """Closed under scaling by the unit disk: True for norm balls and for a
        delta ball whose delta is homogeneous of some degree p, since
        ``||delta(t x)|| = |t|^p ||delta(x)||``; None (unknown) else."""
        return None if self.kind == "deltaball" and self.delta.degree() is None else True

    def contains(self, x):
        """Strict membership: the gauge of ``x`` lies below (1 - 1e-9) times the bound.

        ``x`` is a point in any form :func:`~ncfuncalc.linalg.as_stack`
        takes, answered by a bool for a lone point and else by a boolean
        array of its leading shape: each sample by the comparison its own
        tuple gets.
        """
        comps, lead = as_stack(x)
        return unstack(self._inside(self._gauges(comps)[0]), lead)

    def rescale(self, u, sizes) -> np.ndarray:
        """The multiples of the stack ``u`` whose norms are ``sizes``, finite and
        nonnegative (else ``ValueError``), one per sample or one for all, each
        halved until it is inside and bit for bit its lone value (:meth:`_rescale`);
        :class:`SamplerStarvationError` after ``RESCALE_HALVINGS`` halvings,
        which only a domain without 0 can reach."""
        comps = as_stack(u)[0]
        sizes = np.broadcast_to(np.asarray(sizes, float), comps.shape[1:2])
        bad = sizes[~((sizes >= 0) & (sizes < math.inf))]
        if bad.size:
            raise ValueError(f"sizes must be finite and nonnegative, got {bad[0]}")
        return self._rescale(comps, sizes)[0]

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
        return gauge < self.bound * (1.0 - DOMAIN_CHECK_MARGIN)

    def _rescale(
        self, u: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Each sample of ``u`` scaled to its norm in ``sizes``, then halved
        toward 0 until it is inside; returns the stack, its gauges and, on an
        uncapped delta ball, its ``delta(x)`` stack.

        On a norm that is p-homogeneous (p = 1, or :meth:`PolyMatrix.degree`
        on a delta ball) the factor is ``t = (size / ||u||)^(1/p)``, and
        without a norm cap the sample is measured once, on ``u``: gauge
        ``t^p ||u||`` and ``delta(x) = t^p delta(u)``, both times ``0.5^p``
        per halving.  Otherwise t comes from :meth:`_bisect`, ``x`` is
        measured, and a halving measures again only the samples it moved."""
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

    def evaluate(self, x) -> np.ndarray:
        """The transfer function at ``x``, a point or a stack, with its
        leading shape: in the blocks of the transfer step, each sample bit
        for bit the value of its own tuple (module docstring)."""
        comps, lead = as_stack(x)
        if len(comps) != self.arity:
            raise ValueError(f"realization has arity {self.arity}, point has arity {len(comps)}")
        samples, n = comps.shape[1:3]

        def delta_at(start, stop):
            delta_x = eval_delta(self.delta, comps[:, start:stop])
            return delta_x, operator_norm(delta_x)

        out = np.empty((samples, n, n), dtype=np.complex128)
        for start, stop, values in _transfer(self, n, samples, delta_at):
            out[start:stop] = values
        return unstack(out, lead)

    @cached_property
    def _d_norm(self) -> float:
        """``||D||_2``, computed on first use by the transfer step."""
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
    """Transfer-function value at the lone point ``x``: the one-sample case
    of :meth:`Realization.evaluate`.  :class:`ResolventSingularError` signals
    that ``x`` lies outside the natural domain (module docstring)."""
    return r.evaluate(x)


class _Resolvents:
    """One block's resolvents ``1 - K``, written into ``lhs`` of shape
    (B, N, N), and the pieces of its transfer values, from ``delta(x)`` of
    shape (B, I*n, J*n), its norms ``||delta(x)||`` of shape (B,) and
    ``c_lift = C (x) 1``; ``system`` is the batched system of its certified
    samples (None without one), which one LAPACK call solves.

    Both amplified products come from one 2-d BLAS product per sample: D
    reshaped to rows (a, j, b) and B to rows b, stacked, times ``delta(x)``
    reshaped to rows i and columns (t, k, u).  The D rows are written through
    a transposed view straight into the stacked resolvents, rows (a, j, t)
    and columns (b, k, u), so the block holds no second product of its size.
    """

    def __init__(self, r: Realization, c_lift: np.ndarray, lhs: np.ndarray, delta_x, delta_norms):
        m, rows, cols = r.m, r.delta.rows, r.delta.cols
        (batch, res_dim, _), n = lhs.shape, c_lift.shape[1]
        d_rows = m * cols * m
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
        np.subtract(np.eye(res_dim), lhs, out=lhs)  # 1 - K, in place
        q = r._d_norm * delta_norms
        self.solved = 1.0 - q > 2.0 * res_dim * PIVOT_RTOL * (1.0 + q)
        self.system = None
        if self.solved.any():
            self.system = lhs if self.solved.all() else lhs[self.solved], c_lift[None]
        self.A, self.lhs, self.b_dlt, self.c_lift = r.A, lhs, b_dlt, c_lift

    def values(self, solution=None) -> np.ndarray:
        """The transfer values, from the solution of ``system`` (or the
        exception raised solving it) that the solver thread put, or else
        solving ``system`` here.  Any other sample goes through
        :func:`~ncfuncalc.linalg.inverse` one at a time."""
        solved, lhs, c_lift = self.solved, self.lhs, self.c_lift
        if self.system is not None:
            try:
                if isinstance(solution, Exception):
                    raise solution
                if solution is None:
                    solution = np.linalg.solve(*self.system)
            except np.linalg.LinAlgError as exc:
                raise ResolventSingularError(f"LAPACK: {exc}") from exc
            if not np.all(np.isfinite(solution)):
                raise ResolventSingularError("resolvent solve has non-finite entries")
        if solved.all():
            res_c = solution
        else:
            res_c = np.empty((len(lhs), *c_lift.shape), dtype=np.complex128)
            if solution is not None:
                res_c[solved] = solution
            for s in np.flatnonzero(~solved):
                try:
                    res_c[s] = inverse(lhs[s]) @ c_lift
                except SingularMatrixError as exc:
                    raise ResolventSingularError(str(exc)) from exc
        values = self.b_dlt @ res_c
        n = c_lift.shape[1]
        values.reshape(len(values), n * n)[:, :: n + 1] += self.A  # A (x) 1
        return values


def _serve(jobs) -> None:
    """The solver thread: ``np.linalg.solve`` on each system put to ``jobs``,
    its solution or exception put to the job's reply queue, and nothing else."""
    while True:
        a, b, reply = jobs.get()
        try:
            reply.put(np.linalg.solve(a, b))
        except Exception as exc:  # raised again on the calling thread
            reply.put(exc)
        del a, b, reply  # keep no system alive while idle


@cache
def _jobs():
    """The job queue of this process's solver thread, started on first use; two
    first calls at once may each start one, and each job has its own reply."""
    import queue
    import threading

    jobs = queue.SimpleQueue()
    threading.Thread(target=_serve, args=(jobs,), name="ncfuncalc-solver", daemon=True).start()
    return jobs


if hasattr(os, "register_at_fork"):  # a forked child has no thread: it starts its own
    os.register_at_fork(after_in_child=_jobs.cache_clear)


def _solver():
    """The solver thread's job queue, or None when this process may run on one CPU only."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return _jobs() if cpus >= 2 else None


def _transfer(r: Realization, n: int, samples: int, delta_at) -> Iterator[tuple]:
    """The transfer values at dimension n of ``samples`` samples, in blocks
    that this function alone sizes (module docstring), as ``(start, stop,
    values)`` in order; ``delta_at(start, stop)`` gives those samples'
    ``delta(x)`` stack and its norms.

    Every block holds ``fits`` samples.  With the solver thread, block k's
    system goes to it; this thread builds block k + 1 in the other buffer,
    waits for block k's solution, hands block k + 1's system over and only
    then finishes block k, whose buffer block k + 2 reuses.  An
    error raised here, or by the consumer between blocks (which closes the
    generator), leaves no solve running.
    """
    res_dim = r.m * r.delta.cols * n
    block = max(1, SCAN_BLOCK_BYTES // (16 * res_dim**2))
    jobs = None if samples <= block else _solver()
    shape = (min(block, samples), res_dim, res_dim)
    buffers = [np.empty(shape, np.complex128) for _ in range(1 if jobs is None else 2)]
    c_lift = np.kron(r.C, np.eye(n))
    ahead = None  # the block whose system the solver thread holds: start, stop, resolvents, reply
    try:
        for k, start in enumerate(range(0, samples, block)):
            stop = min(start + block, samples)
            lhs = buffers[k % len(buffers)][: stop - start]
            resolvents = _Resolvents(r, c_lift, lhs, *delta_at(start, stop))
            solution = None if ahead is None else ahead[3].get()
            behind, ahead = ahead, None
            if jobs is not None and stop < samples and resolvents.system is not None:
                ahead = start, stop, resolvents, type(jobs)()  # a reply queue of its own
                jobs.put((*resolvents.system, ahead[3]))
            if behind is not None:
                yield behind[0], behind[1], behind[2].values(solution)
                behind = solution = None  # release the finished block before the next is built
            if ahead is None:
                yield start, stop, resolvents.values()
    finally:
        if ahead is not None:
            ahead[3].get()


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
    if samples < 1:
        raise ValueError("need at least one sample")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    resid = check_isometry(r)
    if resid > ISOMETRY_SCAN_TOL:
        raise NotIsometricError(
            f"colligation is not isometric (residual {resid:.3e} > {ISOMETRY_SCAN_TOL:.0e})"
        )
    d, p = r.arity, r.delta.degree() or 1
    ball = DomainDescriptor.deltaball(r.delta, SCAN_MARGIN)

    def delta_at(start, stop):
        u = np.empty((d, stop - start, n, n), dtype=np.complex128)
        sizes = np.empty(stop - start)
        for k, i in enumerate(range(start, stop)):
            rng = np.random.default_rng((seed, i))
            g = rng.standard_normal((d, 2, n, n))  # real, imaginary part of each letter
            u.real[:, k], u.imag[:, k] = g[:, 0], g[:, 1]
            sizes[k] = ball.bound * rng.uniform() ** (p / (2 * d * n * n))
        # Without a norm cap the ball's gauge is ||delta(x)||, read off
        # ||delta(u)|| when delta is homogeneous: the delta(x) stack and norms
        # that admitted the samples are the ones the transfer step and its
        # certificate read.
        _, delta_norms, delta_x = ball._rescale(u, sizes)
        return delta_x, delta_norms

    max_norm = 0.0
    for _, _, values in _transfer(r, n, samples, delta_at):
        max_norm = max(max_norm, float(np.max(operator_norm(values))))
    return ScanReport(dim=n, samples=samples, max_norm=max_norm, seed=seed)
