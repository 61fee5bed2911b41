"""The benchmark's self-test runs against this checkout.

``perfbench`` wraps library functions by attribute and drives the
``simulate`` estimator adapters; a library change that renames or removes
one of them breaks the benchmark, and this test fails with it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
