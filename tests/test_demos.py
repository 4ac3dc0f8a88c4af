"""Every demo script runs to completion from a fresh directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import obgcs

SRC = Path(obgcs.__file__).resolve().parents[1]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(tmp_path, demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300,
                          check=False)
    assert proc.returncode == 0, proc.stderr
