"""Smoke test: every experiment script runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import smalldivlab

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(smalldivlab.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("constants_table.py", ["TMP/table.csv"]),
        ("partition_experiment.py", ["golden", "20"]),
        ("blowup_experiment.py", ["0.1"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [arg.replace("TMP", str(tmp_path)) for arg in args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
