"""Every module imports on its own, in a fresh interpreter, without warnings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mars

PACKAGE = Path(mars.__file__).resolve().parent
MODULES = sorted(
    "mars" if p.stem == "__init__" else f"mars.{p.stem}" for p in PACKAGE.glob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    # an import cycle, or a module that leans on another's import side
    # effects, fails here rather than only under some import order
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import {module}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
