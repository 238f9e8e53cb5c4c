"""Command-line surface: evaluation, derivatives, expansion, realizations, verify.

Data and output paths go to stdout and diagnostics to stderr; with ``--out``
a one-line note follows the path instead.  Every command is deterministic
under a fixed seed and configuration.  Exit codes:

    0  success (and, for verify/scan, every property passed)
    1  a verification or scan verdict failed
    2  parse, usage, or configuration error
    3  evaluation point outside the declared domain
    4  numeric failure (singular matrix, non-convergence, resolvent, sampler,
       non-finite result)
    5  coefficient extraction failure (offending word reported on stderr) or
       a derivative jet that is not block upper triangular
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .formats import (
    ParseError,
    directions_from_obj,
    dump_json,
    handle_from_obj,
    load_json,
    matrix_to_obj,
    poly_to_obj,
    realization_from_obj,
    tuple_from_obj,
    write_json_atomic,
)
from .linalg import NonConvergenceError, SingularMatrixError, operator_norm
from .ncderiv import StructureViolationError, delta_k, dk_fd, dk_multilinear
from .ncfun import DomainViolationError, NonFiniteResultError
from .realization import (
    ISOMETRY_BUILD_TOL,
    NotIsometricError,
    ResolventSingularError,
    SamplerStarvationError,
    check_isometry,
    contractivity_scan,
)
from .taylor import WORD_CAP, ExtractionError, taylor_expand
from .verify import SuiteConfig, run_suite

__all__ = ["main", "entrypoint", "CliConfig"]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4
EXIT_EXTRACTION = 5

DEFAULT_FD_LAMBDA = 1e-3


@dataclass
class CliConfig:
    """Optional JSON configuration shared by the subcommands."""

    seed: int = 0
    fd_lambda: float = DEFAULT_FD_LAMBDA
    word_cap: int = WORD_CAP
    out: str | None = None
    suite: dict = field(default_factory=dict)

    def __post_init__(self):
        # type(...) is int or float: a JSON bool or string is not a step.
        if type(self.fd_lambda) not in (int, float):
            raise ValueError(f"fd_lambda must be a number, got {self.fd_lambda!r}")
        if not 0 < self.fd_lambda < math.inf:
            raise ValueError("fd_lambda must be positive and finite")
        if self.out is not None and type(self.out) is not str:
            raise ValueError(f"out must be a path string or null, got {self.out!r}")
        if type(self.word_cap) is not int or self.word_cap <= 0:
            raise ValueError(f"word_cap must be a positive integer, got {self.word_cap!r}")
        SuiteConfig(seed=self.seed)  # validates the seed, which realize-scan reads too
        self.suite_config()  # validates the suite section

    def suite_config(self) -> SuiteConfig:
        """The suite settings; the top-level seed is the default suite seed."""
        return SuiteConfig.from_dict({"seed": self.seed, **self.suite})

    @classmethod
    def load(cls, path: str | None) -> "CliConfig":
        if path is None:
            return cls()
        data = load_json(path)
        if not isinstance(data, dict):
            raise ParseError(f"{path}: config must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ParseError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from exc


def _seed(text: str) -> int:
    """A ``--seed`` argument, checked as the config's seed is."""
    return SuiteConfig(seed=int(text)).seed


def _emit_json(payload, out: str | None) -> None:
    """Write ``payload`` to ``out`` and print the path, or print it to stdout."""
    if out:
        write_json_atomic(out, payload)
        print(out)
    else:
        print(dump_json(payload))


def _emit_matrix(result: np.ndarray, out: str | None, note: str | None = None) -> None:
    """Emit ``result``, then ``note``: after the path with ``out``, else on stderr."""
    _emit_json(matrix_to_obj(result), out)
    if note is not None:
        print(note, file=sys.stdout if out else sys.stderr)


def _cmd_eval(args, cfg: CliConfig, out: str | None) -> int:
    F = handle_from_obj(load_json(args.handle))
    x = tuple_from_obj(load_json(args.point))
    result = F.eval(x)
    _emit_matrix(result, out, f"norm {operator_norm(result):.17g}")
    return EXIT_OK


def _cmd_derive(args, cfg: CliConfig, out: str | None) -> int:
    F = handle_from_obj(load_json(args.handle))
    x = tuple_from_obj(load_json(args.point))
    k = args.k
    if k < 0:
        raise ParseError("--k must be nonnegative")
    if k == 0:
        _emit_matrix(F.eval(x), out)
        return EXIT_OK
    if not args.directions:
        raise ParseError("--directions is required for k >= 1")
    hs = directions_from_obj(load_json(args.directions))
    if len(hs) != k:
        raise ParseError(f"--k is {k} but the directions file holds {len(hs)} tuples")
    equal_dirs = all(
        np.array_equal(h[r], hs[0][r]) for h in hs[1:] for r in range(hs[0].arity)
    )
    if args.method == "fd" and not equal_dirs:
        raise ParseError("the fd method needs all directions equal")
    methods = {
        "block": lambda: math.factorial(k) * delta_k(F, [x] * (k + 1), hs).delta,
        "fd": lambda: dk_fd(F, x, hs[0], k, cfg.fd_lambda),
        "polarized": lambda: dk_multilinear(F, x, hs),
    }
    result = methods[args.method]()
    note = None
    if args.cross_check:
        if not equal_dirs:
            raise ParseError("--cross-check needs all directions equal")
        block, fd = (result if m == args.method else methods[m]() for m in ("block", "fd"))
        note = f"cross-check disagreement {float(np.abs(block - fd).max()):.17g}"
    _emit_matrix(result, out, note)
    return EXIT_OK


def _cmd_expand(args, cfg: CliConfig, out: str | None) -> int:
    F = handle_from_obj(load_json(args.handle))
    expansion = taylor_expand(F, args.maxdeg, word_cap=cfg.word_cap)
    _emit_json(poly_to_obj(expansion.as_poly()), out)
    diag = expansion.diagnostics()
    if out:
        _emit_json(diag, out + ".diagnostics.json")
    else:
        print(dump_json(diag), file=sys.stderr)
    return EXIT_OK


def _load_realization(path: str):
    """The realization in a bare realization file or a realization handle file."""
    obj = load_json(path)
    if not (isinstance(obj, dict) and "kind" in obj):
        return realization_from_obj(obj)
    F = handle_from_obj(obj)
    if F.kind != "realization":
        raise ParseError(f"{path}: handle of kind {F.kind!r}, expected a realization")
    return F.payload


def _cmd_realize_check(args, cfg: CliConfig, out: str | None) -> int:
    r = _load_realization(args.handle)
    resid = check_isometry(r)
    passed = resid <= ISOMETRY_BUILD_TOL
    shown = resid if math.isfinite(resid) else None
    _emit_json({"isometry_residual": shown, "tolerance": ISOMETRY_BUILD_TOL, "passed": passed}, out)
    return EXIT_OK if passed else EXIT_VERDICT


def _cmd_realize_scan(args, cfg: CliConfig, out: str | None) -> int:
    r = _load_realization(args.handle)
    seed = cfg.seed if args.seed is None else args.seed
    report = contractivity_scan(r, args.n, args.samples, seed)
    _emit_json(report.as_dict(), out)
    return EXIT_OK if report.passed else EXIT_VERDICT


def _cmd_verify(args, cfg: CliConfig, out: str | None) -> int:
    F = handle_from_obj(load_json(args.handle))
    suite_cfg = cfg.suite_config()
    if args.seed is not None:
        suite_cfg = replace(suite_cfg, seed=args.seed)
    reports = run_suite(F, suite_cfg)
    _emit_json([rep.as_dict() for rep in reports], out)
    failing = [rep.name for rep in reports if not rep.passed]
    if failing:
        print("failed: " + ", ".join(failing), file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfun",
        description="Evaluate, differentiate, expand, and verify graded matrix functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *, point=False, directions=False, scan=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--handle", required=True, help="handle or realization file")
        if point:
            p.add_argument("--point", required=True, help="matrix tuple file")
        if directions:
            p.add_argument("--directions", help="directions file (list of tuples)")
            p.add_argument("--k", type=int, required=True, help="derivative order")
            p.add_argument(
                "--method",
                choices=("block", "fd", "polarized"),
                default="block",
                help="block jet, finite differences, or polarization",
            )
            p.add_argument(
                "--cross-check",
                action="store_true",
                help="run block and fd and report their disagreement",
            )
        if scan:
            p.add_argument("--n", type=int, required=True, help="matrix dimension")
            p.add_argument("--samples", type=int, required=True, help="sample count")
            p.add_argument("--seed", type=_seed, help="sampler seed (default: the config seed)")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output path (written atomically)")
        return p

    add("eval", "evaluate a handle at a point", point=True)
    add("derive", "directional derivatives of a handle", point=True, directions=True)
    expand = add("expand", "Taylor expansion at the scalar point 0")
    expand.add_argument("--maxdeg", type=int, required=True, help="highest degree extracted")
    add("realize-check", "isometry residual of a colligation")
    add("realize-scan", "sampled contractivity scan over the delta ball", scan=True)
    verify = add("verify", "run the structural property suite")
    verify.add_argument("--seed", type=_seed, default=None, help="override the suite seed")
    return parser


_DISPATCH = {
    "eval": _cmd_eval,
    "derive": _cmd_derive,
    "expand": _cmd_expand,
    "realize-check": _cmd_realize_check,
    "realize-scan": _cmd_realize_scan,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = CliConfig.load(args.config)
        return _DISPATCH[args.command](args, cfg, args.out or cfg.out)
    except ExtractionError as exc:
        word = list(exc.word) if exc.word is not None else None
        print(f"extraction failed at word {word}: {exc}", file=sys.stderr)
        return EXIT_EXTRACTION
    except StructureViolationError as exc:
        print(f"jet structure violated: {exc}", file=sys.stderr)
        return EXIT_EXTRACTION
    except DomainViolationError as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (
        SingularMatrixError,
        NonConvergenceError,
        NonFiniteResultError,
        ResolventSingularError,
        SamplerStarvationError,
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NotIsometricError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    # The objects the imports made, most of them numpy's, live until exit.
    # Freezing them moves them to the collector's permanent generation, so
    # neither the verb's collections nor the final collection at shutdown
    # traverse them again, about a tenth of a short verb's process time.  Only
    # the process entry does this: a program that imports the library owns
    # its collector.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
