"""The benchmark under ``benchmarks/`` reaches into the package by name.

It wraps module attributes for its traced run and reads ``FlowField.mass``
by ``(t, x, up)`` key; its self-test fails when either contract breaks.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
