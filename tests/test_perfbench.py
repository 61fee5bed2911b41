"""The benchmark's self-test runs against this checkout.

``perfbench`` wraps library functions by attribute and drives the
``simulate`` estimator adapters; a library change that renames or removes
one of them breaks the benchmark, and this test fails with it.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from meancov import PriorConfig, fit_map_newton, run_gibbs
from conftest import simulated_data

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


def test_bench_counters_are_python_scalars():
    # perfbench/tracing.py adds these fields to its counters and writes them
    # as JSON; an array or a NumPy scalar there would break its output while
    # the self-test, which compares metric names only, still passed.
    data = simulated_data(30, 3, seed=1)
    prior = PriorConfig.default(data)
    run = run_gibbs(data, prior, s=5, l=2, rng=np.random.default_rng(1))
    fit = fit_map_newton(data, prior)
    for value in (run.accepted, run.proposals, fit.outer_iterations, fit.converged):
        assert type(value) in (int, bool)
