"""Self-test of the benchmark's own machinery.

Run from the repository root with ``python3 perfbench/selftest.py`` or
``python3 -m pytest perfbench/selftest.py``.  It checks that the tracer puts
every attribute back, that tracing changes no output, that per-layer self
times fit inside the op that contains them, and that an exception the risk
harness swallows is still counted.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.pin_blas()
run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_then_untraced(wl):
    """One round of ops, traced and untraced."""
    work_root = run.OUT / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=work_root)
    try:
        wl.setup(7, workdir)
        tracer = tracing.Tracer()
        traced, untraced = run.run_traced(wl, 0.0, tracer)
    finally:
        shutil.rmtree(workdir)
    return tracer, traced, untraced


SMALL_WORKLOADS = {
    "risk-lowdim": lambda: workloads.RiskWorkload(50, 3, ("niw", "mle", "map-newton", "gibbs"),
                                                  gibbs_s=20),
    "risk-highdim": workloads.WORKLOADS["risk-highdim"],
    "cli-fit": lambda: workloads.CliWorkload(rows=2000),
}


def test_restore_puts_back_every_attribute():
    targets = tracing.wrap_targets()
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            wrapped = [vars(owner)[attr] for owner, attr, _ in targets]
            raise RuntimeError("leave the block early")
    except RuntimeError:
        pass
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(vars(owner)[attr] is o for (owner, attr, _), o in zip(targets, originals))


def test_tracing_changes_no_output_and_self_times_fit_in_ops():
    for name, make in SMALL_WORKLOADS.items():
        tracer, traced, untraced = traced_then_untraced(make())
        assert run.phase_digest(traced) == run.phase_digest(untraced), name
        assert not any(r.failures for r in traced + untraced), name
        self_by_op = [0.0] * len(traced)
        for (_, _, _, _, op), own in zip(tracer.spans, tracer.self_times()):
            assert own >= 0.0, name
            self_by_op[op] += own
        for total, r in zip(self_by_op, traced):
            assert 0.0 < total <= r.latency_s, name
        assert set(run.per_layer(tracer, traced, untraced)) == set(run.PER_LAYER), name


def test_swallowed_estimator_exception_is_counted_by_type():
    wl = workloads.RiskWorkload(20, 3, ("niw", "mle"))
    wl.setup(0, "")
    original = workloads.simulate.mle_estimator

    def broken(data, rng):
        raise FloatingPointError("injected")

    workloads.simulate.mle_estimator = broken
    try:
        result = wl.run_op(0)
    finally:
        workloads.simulate.mle_estimator = original
    assert result.failures[0] == "FloatingPointError"
    assert wl.run_op(0).failures == []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok {fn.__name__}")
    print(f"{len(tests)} passed")
