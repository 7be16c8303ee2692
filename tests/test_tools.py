"""The repository's tools run against this package."""
import subprocess
import sys
from pathlib import Path

import abmgrid

TOOLS = Path(__file__).resolve().parents[1] / "tools"
GROUPS = ["stars", "failures", "trapped", "poly", "exact", "sweep", "sieve",
          "sieves", "pressure", "density", "inversion"]
# the groups that integrate; each must count steps and evaluations
INTEGRATING = ["stars", "trapped", "poly", "sweep", "sieve", "sieves"]


def test_record_digest_counts_every_integrating_group():
    package_root = str(Path(abmgrid.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(TOOLS / "record_digest.py"), package_root],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # "<name> <runs> steps <steps> evals <evals> <sha256>" per group
    lines = {fields[0]: fields for fields in
             (line.split() for line in result.stdout.splitlines())}
    assert list(lines) == GROUPS
    for name in INTEGRATING:
        _, _, _, steps, _, evals, _ = lines[name]
        assert int(steps) > 0 and int(evals) > 0, lines[name]
