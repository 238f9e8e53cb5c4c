"""Per-layer counts and self times, gathered by wrapping the package's functions.

``Tracer.install`` replaces each traced function wherever it is looked up:
in the module that defines it, in every ``ncfuncalc`` module that imported
it by name, and on the class for methods (aliases such as ``__call__``
included).  A timed wrapper opens a span; a span's self time is its
duration minus the time of the spans it encloses.  Counted-only functions
(``as_matrix``, ``MatrixTuple``) get no span, so their cost stays in the
caller's self time and their wrapper stays cheap.

Nothing here changes what the package computes: wrappers pass arguments and
results through untouched.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

MODULES = ("linalg", "freepoly", "realization", "ncfun", "ncderiv", "taylor", "verify", "formats", "cli")

# (span name, module, attribute path); a dotted path names a method.
TIMED = (
    ("linalg.inverse", "linalg", "inverse"),
    ("linalg.operator_norm", "linalg", "operator_norm"),
    ("freepoly.evaluate", "freepoly", "FreePoly.evaluate"),
    ("realization.eval_realization", "realization", "eval_realization"),
    ("realization.in_ball", "realization", "in_ball"),
    ("realization.contractivity_scan", "realization", "contractivity_scan"),
    ("ncfun.eval", "ncfun", "NCFunctionHandle.eval"),
    ("ncfun.contains", "ncfun", "DomainDescriptor.contains"),
    ("ncderiv.delta_k", "ncderiv", "delta_k"),
    ("taylor.taylor_expand", "taylor", "taylor_expand"),
    ("verify.run_suite", "verify", "run_suite"),
    ("formats.load", "formats", "load_json"),
    ("formats.dump", "formats", "dump_json"),
)
COUNTED = (
    ("linalg.as_matrix", "linalg", "as_matrix"),
    ("linalg.MatrixTuple", "linalg", "MatrixTuple.__init__"),
)


class Tracer:
    """Call counts, self seconds and derived sums, keyed by span name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.sums: Counter = Counter()
        self._open: list[float] = []  # child seconds accumulated per open span
        self._in_taylor = 0

    # -- hooks that read arguments and results -----------------------------

    def _after(self, name, args, kwargs, result) -> None:
        if name == "ncfun.eval":
            key = "eval.unchecked" if kwargs.get("unchecked") else "eval.checked"
            self.sums[key] += 1
            if self._in_taylor:
                self.sums["taylor.evals"] += 1
        elif name == "ncderiv.delta_k":
            self.sums["jet_dim"] += result.full_upper.shape[0]
        elif name == "realization.eval_realization":
            r, x = args[0], args[1]
            self.sums["resolvent_dim"] += r.m * r.delta.cols * x.dim
        elif name == "realization.contractivity_scan":
            self.sums["scan.collected"] += result.collected
            self.sums["scan.draws"] += result.draws
        elif name == "taylor.taylor_expand":
            self.sums["taylor.words"] += len(result.residuals) - 1

    def _timed(self, name, fn):
        opened = self._open
        calls, self_s = self.calls, self.self_s
        taylor = name == "taylor.taylor_expand"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            opened.append(0.0)
            self._in_taylor += taylor
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._in_taylor -= taylor
                self_s[name] += dt - opened.pop()
                if opened:
                    opened[-1] += dt
            self._after(name, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "Tracer":
        mods = [importlib.import_module(f"ncfuncalc.{m}") for m in MODULES]
        mods.append(sys.modules["ncfuncalc"])
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, module, path in table:
                owner = sys.modules[f"ncfuncalc.{module}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[attr]
                    wrapped = make(name, original)
                    for key, value in list(vars(cls).items()):
                        if value is original:
                            setattr(cls, key, wrapped)
                else:
                    original = getattr(owner, path)
                    wrapped = make(name, original)
                    for mod in mods:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
        return self

    def state(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "sums": dict(self.sums)}


def merge(states) -> dict:
    out = {"calls": Counter(), "self_s": Counter(), "sums": Counter()}
    for st in states:
        for key in out:
            out[key].update(st[key])
    return out


def layer_metrics(state: dict, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation figures, as (value, unit), from a merged tracer state."""
    calls, self_s, sums = state["calls"], state["self_s"], state["sums"]

    def per_op(v):
        return v / ops

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in (
        "linalg.inverse",
        "linalg.operator_norm",
        "freepoly.evaluate",
        "realization.eval_realization",
        "ncderiv.delta_k",
    ):
        out[f"{name}.calls"] = (per_op(calls.get(name, 0)), "count")
        out[f"{name}.ms"] = (per_op(1e3 * self_s.get(name, 0.0)), "ms")
    for name in (
        "realization.in_ball",
        "ncfun.eval",
        "ncfun.contains",
        "taylor.taylor_expand",
        "verify.run_suite",
        "formats.load",
        "formats.dump",
    ):
        out[f"{name}.ms"] = (per_op(1e3 * self_s.get(name, 0.0)), "ms")
    out["linalg.as_matrix.calls"] = (per_op(calls.get("linalg.as_matrix", 0)), "count")
    out["linalg.MatrixTuple.calls"] = (per_op(calls.get("linalg.MatrixTuple", 0)), "count")
    out["ncfun.eval.checked_calls"] = (per_op(sums.get("eval.checked", 0)), "count")
    out["ncfun.eval.unchecked_calls"] = (per_op(sums.get("eval.unchecked", 0)), "count")
    out["realization.resolvent_dim"] = (
        ratio(sums.get("resolvent_dim", 0), calls.get("realization.eval_realization", 0)),
        "rows",
    )
    out["realization.accept_rate"] = (
        ratio(sums.get("scan.collected", 0), sums.get("scan.draws", 0)),
        "ratio",
    )
    out["ncderiv.jet_dim"] = (ratio(sums.get("jet_dim", 0), calls.get("ncderiv.delta_k", 0)), "rows")
    out["taylor.evals_per_word"] = (
        ratio(sums.get("taylor.evals", 0), sums.get("taylor.words", 0)),
        "evals/word",
    )
    return out
