"""Smoke test: every demo runs to completion from a source checkout.

Each demo pins one printed result line, so drift that reaches a printed
number fails here: demo 02 pins a build_profile distance, 03 a
signature_from_trace difference, 04 a model trained on
training_samples(), and 05 and 06 cross-validated results.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-9]_*.py"))

# demo number -> a line of its output that pins a computed result
PINNED_LINES = {
    "01": "segmentation: code region found at [1480, 1992)",
    "02": "  n0 vs n1: 0.000073   (same transmitter)",
    "03": "  max |normalized difference|:   5.551e-17",
    "04": "similarity model: weights [-3.31, -1.30, -1.40, -2.93], bias +7.21",
    "05": "AUROC     0.9923",
    "06": "adjusted    1.000   0.000",
}


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=180)


def test_demos_are_found():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr
    pinned = PINNED_LINES.get(name[:2])
    if pinned is not None:
        assert pinned in result.stdout.splitlines()
