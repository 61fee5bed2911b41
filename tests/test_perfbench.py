"""The benchmark's self-test runs against this checkout.

``perfbench`` wraps library functions by attribute and drives the
``simulate`` estimator adapters; a library change that renames or removes
one of them breaks the benchmark, and this test fails with it.
"""

import importlib.util
import subprocess
import sys
from collections import Counter
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


def _load_bench_module(name: str):
    """``perfbench/<name>.py`` as a module, under a name no other import uses."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # registered first: its dataclasses look it up
    return module


def test_bench_sample_set_span_fires_once_per_fit(tmp_path):
    # The benchmark times SampleSet construction by wrapping
    # SampleSet.__post_init__; every risk replication and every fit-*
    # command forms the statistics once, and transform-sphere never does.
    tracing, workloads = _load_bench_module("tracing"), _load_bench_module("workloads")
    risk = workloads.RiskWorkload(60, 3, ("niw", "mle"))
    risk.setup(11, str(tmp_path))
    cli = workloads.CliWorkload(rows=200, cols=4)
    cli.setup(7, str(tmp_path))
    ops = [("risk", lambda: risk.run_op(0))]
    ops += [(cmd, lambda i=i: cli.run_op(i)) for i, cmd in enumerate(cli.commands)]
    with tracing.Tracer().installed() as tracer:
        for op, (_, run_op) in enumerate(ops):
            tracer.op = op
            run_op()
    per_op = Counter(op for name, _, _, _, op in tracer.spans if name == "model.SampleSet")
    assert {label: per_op[op] for op, (label, _) in enumerate(ops)} == {
        "risk": 1, "fit-mle": 1, "fit-niw": 1, "fit-map-newton": 1, "transform-sphere": 0,
    }


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
