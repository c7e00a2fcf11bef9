"""The demo scripts run to completion against the package next to them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import klbounds

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(klbounds.__file__).resolve().parents[1])


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
