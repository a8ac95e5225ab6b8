import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ctxtree

SRC = Path(ctxtree.__file__).resolve().parent.parent
MODULES = ["ctxtree"] + [f"ctxtree.{m.name}" for m in pkgutil.iter_modules(ctxtree.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    # the test session has imported every module already, which would hide
    # an import cycle that only one entry point meets
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
