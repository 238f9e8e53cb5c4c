"""Every package module imports on its own in a fresh interpreter, every
name a module exports exists, and so does every name the benchmark's
per-layer tracer wraps.  No module reads another module's private names."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ncfuncalc

PACKAGE_DIR = Path(ncfuncalc.__file__).parent
TEST_DIR = Path(__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)]))


def test_every_module_is_listed():
    assert {"cli", "ncfun", "realization", "verify"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", f"import ncfuncalc.{module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["ncfuncalc"] + [f"ncfuncalc.{m}" for m in MODULES])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def _tracer_tables():
    """The (span, module, attribute path) rows the benchmark's tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TIMED + layers.COUNTED


@pytest.mark.parametrize("span, module, path", _tracer_tables())
def test_traced_names_resolve(span, module, path):
    # The tracer replaces each name by attribute lookup; a rename or a
    # deletion in ncfuncalc would otherwise surface only in a benchmark run.
    owner = importlib.import_module(f"ncfuncalc.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name)), span
    else:
        assert callable(getattr(owner, path, None)), span


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines: functions, classes, methods,
    assigned names and attributes, and ``__slots__`` entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    return {n for n in names if isinstance(n, str) and _private(n)}


def test_no_module_reads_a_siblings_private_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    defined = {m: _private_definitions(tree) for m, tree in trees.items()}
    offences = []
    for m, tree in trees.items():
        siblings = set().union(*(names for o, names in defined.items() if o != m))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                if node.attr in siblings and node.attr not in defined[m]:
                    offences.append(f"{m}.py:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("ncfuncalc")
            ):
                offences += [
                    f"{m}.py:{node.lineno} imports {a.name}" for a in node.names if _private(a.name)
                ]
    assert not offences, offences


def test_only_linalg_tells_a_matrix_tuple_from_a_stack():
    # Inside the library a point is one stack; linalg.as_stack converts a
    # MatrixTuple at each public entry, so no other module branches on it.
    offences = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
                if "MatrixTuple" in names:
                    offences.append(f"{path.name}:{node.lineno}")
    assert not offences, offences


def test_only_linalg_and_formats_build_a_matrix_tuple():
    # MatrixTuple is the lone container at the API edge: linalg builds the
    # lone results and formats reads points from files.  Every other module
    # builds its points as stacks and does their arithmetic with numpy.
    offences = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in ("linalg.py", "formats.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", None) == "MatrixTuple" or (
                getattr(getattr(func, "value", None), "id", None) == "MatrixTuple"
                and func.attr in ("zeros", "from_scalars")
            ):
                offences.append(f"{path.name}:{node.lineno}")
    assert not offences, offences


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE_DIR.glob("*.py")) + sorted(TEST_DIR.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_source_parses_at_the_declared_python_floor(path):
    # pyproject.toml declares requires-python >= 3.10; syntax of a later
    # Python (except*, type parameters, ...) fails here on any interpreter.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
