"""Every package module imports on its own in a fresh interpreter, every
name a module exports exists, and so does every name the benchmark's
per-layer tracer wraps."""

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
