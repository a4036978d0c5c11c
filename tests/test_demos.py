"""Smoke test: the quick demos run to completion from a source checkout.

Demos 05 and 06 run cross-validation on a corpus and take several seconds
each, so only 01-04 run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


def test_quick_demos_are_found():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr
    if name.startswith("01"):
        assert "segmentation: code region found at [1480, 1992)" in result.stdout
