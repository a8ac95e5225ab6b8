"""Each demo script runs to completion against the library in ``src/``."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
