import pkgutil
import subprocess
import sys

import pytest

import ctxtree

MODULES = ["ctxtree"] + [f"ctxtree.{m.name}" for m in pkgutil.iter_modules(ctxtree.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module, child_env):
    # the test session has imported every module already, which would hide
    # an import cycle that only one entry point meets
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
