"""Every package module imports on its own in a fresh interpreter, and every
name a module exports exists."""

import importlib
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
