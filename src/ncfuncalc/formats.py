"""JSON text formats shared by the library and the command line.

Complex scalars are objects ``{"re": ..., "im": ...}``.  Floats are printed
with Python's shortest round-trip representation, which carries at least 17
significant digits when needed.  Words are zero-indexed letter lists and
polynomials serialize in graded lexicographic order.  Sizes, degrees and
letters are JSON integers, never truncated from a float, a bool or a string;
coefficients, radii, margins and caps are JSON numbers, never read from a
bool or a string.

Schemas
    matrix       {"rows": R, "cols": C, "entries": [[{re, im}, ...], ...]}
    tuple        {"d": D, "dim": N, "components": [matrix, ...]}
    directions   {"directions": [tuple, ...]}
    polynomial   {"d": D, "terms": [{"word": [j, ...], "re": ..., "im": ...}, ...]}
    polymatrix   {"I": I, "J": J, "entries": [[polynomial, ...], ...]}
    realization  {"delta": polymatrix, "m": m, "A": {re, im}, "B": matrix,
                  "C": matrix, "D": matrix}
    domain       {"kind": "polydisk" | "rowball", "radius": float | null,
                  "norm_cap": float | null}
                 or {"kind": "deltaball", "delta": polymatrix, "margin": float,
                  "norm_cap": float | null}
    handle       {"kind": "poly" | "series" | "realization" | "control",
                  "payload": ..., "domain": domain?}
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .freepoly import FreePoly
from .linalg import MatrixTuple, as_matrix
from .ncfun import (
    DEFAULT_TRUNCATION,
    DomainDescriptor,
    NCFunctionHandle,
    SeriesFunction,
    control_handle,
    from_poly,
    from_realization,
    from_series,
)
from .realization import PolyMatrix, Realization

__all__ = [
    "ParseError",
    "matrix_to_obj",
    "matrix_from_obj",
    "tuple_to_obj",
    "tuple_from_obj",
    "directions_from_obj",
    "poly_to_obj",
    "poly_from_obj",
    "polymatrix_to_obj",
    "polymatrix_from_obj",
    "realization_to_obj",
    "realization_from_obj",
    "domain_to_obj",
    "domain_from_obj",
    "handle_to_obj",
    "handle_from_obj",
    "load_json",
    "dump_json",
    "write_json_atomic",
]


class ParseError(ValueError):
    """A document did not match its schema; the message carries positions."""


@contextmanager
def _parsing(where: str):
    """Re-raise a KeyError, TypeError or ValueError from the body as
    ``ParseError(f"{where}: {exc}")``; a ParseError passes through as it is."""
    try:
        yield
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _object(obj, where: str, *keys: str) -> dict:
    """``obj`` if it is a JSON object holding every key in ``keys``, else a ParseError."""
    if not isinstance(obj, dict) or any(key not in obj for key in keys):
        named = " and ".join(f"'{key}'" for key in keys)
        raise ParseError(f"{where}: expected an object" + (f" with {named}" if keys else ""))
    return obj


def _declared(obj: dict, key: str, found: int, where: str, what: str) -> None:
    """Check the optional declared size ``obj[key]`` against the ``found`` one."""
    if key in obj and _int(obj[key], key) != found:
        raise ParseError(f"{where}: declared {key}={obj[key]} but {what}")


def _int(value, what: str) -> int:
    """A JSON integer; anything else, a float, bool or string too, is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer: {value!r}")
    return value


def _float(value, what: str) -> float:
    """A JSON number as a float; anything else, a bool or string too, is a ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a JSON number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is an integer beyond the float range") from None


def _complex_to_obj(c: complex) -> dict:
    return {"re": float(c.real), "im": float(c.imag)}


def _complex_from_obj(obj, where: str) -> complex:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ParseError(f"{where}: expected an object with 're' and 'im'")
    with _parsing(where):
        return complex(_float(obj["re"], "re"), _float(obj["im"], "im"))


def matrix_to_obj(a) -> dict:
    a = as_matrix(a)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": [[_complex_to_obj(v) for v in row] for row in a.tolist()],
    }


def matrix_from_obj(obj, where: str = "matrix") -> np.ndarray:
    _object(obj, where)
    with _parsing(where):
        rows, cols, entries = _int(obj["rows"], "rows"), _int(obj["cols"], "cols"), obj["entries"]
    if min(rows, cols) < 0:
        raise ParseError(f"{where}: rows and cols must be at least 0, got {rows} and {cols}")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParseError(f"{where}: expected {rows} entry rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}: row {i} must have {cols} entries")
        for j, cell in enumerate(row):
            out[i, j] = _complex_from_obj(cell, f"{where}: entry ({i},{j})")
    return out


def tuple_to_obj(x: MatrixTuple) -> dict:
    return {
        "d": x.arity,
        "dim": x.dim,
        "components": [matrix_to_obj(c) for c in x.components],
    }


def tuple_from_obj(obj, where: str = "tuple") -> MatrixTuple:
    _object(obj, where, "components")
    with _parsing(where):
        x = MatrixTuple(
            [matrix_from_obj(c, f"{where}: component {r}") for r, c in enumerate(obj["components"])]
        )
        _declared(obj, "d", x.arity, where, f"found {x.arity} components")
        _declared(obj, "dim", x.dim, where, f"components are {x.dim}x{x.dim}")
    return x


def directions_from_obj(obj, where: str = "directions") -> list[MatrixTuple]:
    if isinstance(obj, dict) and "directions" in obj:
        obj = obj["directions"]
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of tuples")
    return [tuple_from_obj(t, f"{where}[{i}]") for i, t in enumerate(obj)]


def poly_to_obj(p: FreePoly) -> dict:
    return {
        "d": p.arity,
        "terms": [
            {"word": list(w), "re": float(c.real), "im": float(c.imag)}
            for w, c in p.sorted_terms()
        ],
    }


def poly_from_obj(obj, where: str = "polynomial") -> FreePoly:
    _object(obj, where, "d", "terms")
    with _parsing(where):
        d = _int(obj["d"], "d")
        terms = {}
        for i, t in enumerate(obj["terms"]):
            word = tuple(_int(j, f"term {i}: word letter") for j in t["word"])
            coeff = complex(_float(t["re"], f"term {i}: re"), _float(t["im"], f"term {i}: im"))
            terms[word] = terms.get(word, 0) + coeff
        return FreePoly(d, terms)


def polymatrix_to_obj(pm: PolyMatrix) -> dict:
    return {
        "I": pm.rows,
        "J": pm.cols,
        "entries": [[poly_to_obj(p) for p in row] for row in pm.entries],
    }


def polymatrix_from_obj(obj, where: str = "polymatrix") -> PolyMatrix:
    _object(obj, where, "entries")
    with _parsing(where):
        pm = PolyMatrix(
            [poly_from_obj(p, f"{where}: entry ({i},{j})") for j, p in enumerate(row)]
            for i, row in enumerate(obj["entries"])
        )
        _declared(obj, "I", pm.rows, where, f"found {pm.rows} rows")
        _declared(obj, "J", pm.cols, where, f"found {pm.cols} columns")
    return pm


def realization_to_obj(r: Realization) -> dict:
    return {
        "delta": polymatrix_to_obj(r.delta),
        "m": r.m,
        "A": _complex_to_obj(r.A),
        "B": matrix_to_obj(r.B),
        "C": matrix_to_obj(r.C),
        "D": matrix_to_obj(r.D),
    }


def realization_from_obj(obj, where: str = "realization") -> Realization:
    _object(obj, where)
    with _parsing(where):
        return Realization(
            delta=polymatrix_from_obj(obj["delta"], f"{where}: delta"),
            m=_int(obj["m"], "m"),
            A=_complex_from_obj(obj["A"], f"{where}: A"),
            B=matrix_from_obj(obj["B"], f"{where}: B"),
            C=matrix_from_obj(obj["C"], f"{where}: C"),
            D=matrix_from_obj(obj["D"], f"{where}: D"),
        )


def _cap_to_obj(value: float):
    return None if math.isinf(value) else float(value)


def domain_to_obj(domain: DomainDescriptor) -> dict:
    if domain.kind == "deltaball":
        return {
            "kind": "deltaball",
            "delta": polymatrix_to_obj(domain.delta),
            "margin": domain.margin,
            "norm_cap": _cap_to_obj(domain.norm_cap),
        }
    return {
        "kind": domain.kind,
        "radius": _cap_to_obj(domain.radius),
        "norm_cap": _cap_to_obj(domain.norm_cap),
    }


def domain_from_obj(obj, where: str = "domain") -> DomainDescriptor:
    kind = _object(obj, where, "kind")["kind"]
    with _parsing(where):
        cap = obj.get("norm_cap")
        cap = math.inf if cap is None else _float(cap, "norm_cap")
        if kind == "deltaball":
            return DomainDescriptor.deltaball(
                polymatrix_from_obj(obj["delta"], f"{where}: delta"),
                margin=_float(obj.get("margin", 0.0), "margin"),
                norm_cap=cap,
            )
        if kind in ("polydisk", "rowball"):
            radius = obj.get("radius")
            radius = math.inf if radius is None else _float(radius, "radius")
            factory = DomainDescriptor.polydisk if kind == "polydisk" else DomainDescriptor.rowball
            return factory(radius, norm_cap=cap)
    raise ParseError(f"{where}: unknown domain kind {kind!r}")


def handle_to_obj(F: NCFunctionHandle) -> dict:
    if F.kind == "poly":
        payload = poly_to_obj(F.payload)
    elif F.kind == "series":
        series, truncation = F.payload
        payload = {
            "parts": [poly_to_obj(p) for p in series.parts],
            "radius": series.radius,
            "truncation": truncation,
        }
    elif F.kind == "realization":
        payload = realization_to_obj(F.payload)
    elif F.kind == "control":
        payload = dict(F.payload)
    else:
        raise ValueError(f"handles of kind {F.kind!r} have no file form")
    return {"kind": F.kind, "payload": payload, "domain": domain_to_obj(F.domain)}


def handle_from_obj(obj, where: str = "handle") -> NCFunctionHandle:
    kind, payload = _object(obj, where, "kind", "payload")["kind"], obj["payload"]
    domain = domain_from_obj(obj["domain"], f"{where}: domain") if "domain" in obj else None
    if kind == "poly":
        return from_poly(poly_from_obj(payload, f"{where}: payload"), domain)
    if kind == "series":
        with _parsing(where):
            parts = [
                poly_from_obj(p, f"{where}: part {k}") for k, p in enumerate(payload["parts"])
            ]
            series = SeriesFunction(parts, _float(payload["radius"], "radius"))
            truncation = _int(payload.get("truncation", DEFAULT_TRUNCATION), "truncation")
            return from_series(series, truncation, domain)
    if kind == "realization":
        return from_realization(realization_from_obj(payload, f"{where}: payload"), domain)
    if kind == "control":
        with _parsing(where):
            return control_handle(payload["name"], _int(payload.get("d", 1), "d"))
    raise ParseError(f"{where}: unknown handle kind {kind!r}")


def load_json(path: str):
    """Read a JSON document; a failure raises ParseError naming the path (and position)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


def write_json_atomic(path: str, obj) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(dump_json(obj))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
