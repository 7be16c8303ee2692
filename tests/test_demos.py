"""Each demo script runs to completion against this package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abmgrid

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    package_root = str(Path(abmgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout
