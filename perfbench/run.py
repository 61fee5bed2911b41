"""Benchmark of the meancov estimators, risk harness and command line.

Run from the repository root:

    python3 perfbench/run.py --workload risk-lowdim --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``), each closed loop with one client in one
process, BLAS pinned to one thread:

* ``risk-lowdim``: an op is one replication of ``simulate.run_experiment`` at
  n=50, p=3 with the battery {niw, mle, map-newton, gibbs (s=100, l=5)}.
* ``risk-highdim``: an op is one replication at n=500, p=50 with
  {niw, mle, map-newton}.
* ``cli-fit``: an op is one in-process ``meancov.cli.main`` command, round
  robin over fit-mle, fit-niw, fit-map-newton on a 20000 x 10 CSV and
  transform-sphere on a 20000-row latitude/longitude CSV.

``--trace 0`` sets the workload up three times (inputs and warm-up), then
times ops untraced for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs each round of ops with every layer wrapped and then
again untraced, for ``--seconds`` in all, checks that both give the same
output digest and reports the per-layer metrics.  Every op's outputs are checked; an op
fails if an estimator raises, the CLI exits non-zero or a check fails.

Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the machine, the inputs and every metric with its unit.  The full result is
also written to ``perfbench/_out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOADS = ("risk-lowdim", "risk-highdim", "cli-fit")  # defined in workloads.py

# The end-to-end metrics of the last-line result.  ops_per_s and op_ms.p50
# are printed on the lines before it but left out: on a shared 2-vCPU VM
# the machine's speed drifts by up to 2x over minutes, and these central
# statistics then spread by up to 35% across runs, where op_ms.p90 (set by
# the slower ops of a run) spread by 2-23%.
END_TO_END = {
    "setup_s": "s",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# Metrics ending in .calls / .self_ms are read from the span of that name,
# per op; the rest are computed in per_layer().  A layer a workload does not
# run reports 0.
PER_LAYER = {
    "model.build_orthobasis.calls": "count/op",
    "model.build_orthobasis.self_ms": "ms/op",
    "model.SampleSet.self_ms": "ms/op",
    "model.SampleSet.scatter.calls": "count/op",
    "model.SampleSet.scatter.self_ms": "ms/op",
    "mle.fit_mle.calls": "count/op",
    "mle.fit_mle.self_ms": "ms/op",
    "mle.estimate_lambdas.self_ms": "ms/op",
    "mle.profile_loglik.self_ms": "ms/op",
    "mle.lower_bound_h.self_ms": "ms/op",
    "newton_map.fit_map_newton.self_ms": "ms/op",
    "newton_map.outer_iterations": "count/fit",
    "newton_map.converged_ratio": "ratio",
    "newton_map.h_value.calls": "count/op",
    "newton_map.h_value.self_ms": "ms/op",
    "newton_map.h_gradient.calls": "count/op",
    "newton_map.h_hessian.calls": "count/op",
    "linalg.eigh.calls": "count/op",
    "linalg.eigvalsh.calls": "count/op",
    "gibbs.run_gibbs.self_ms": "ms/op",
    "gibbs.proposals": "count/op",
    "gibbs.accepted": "count/op",
    "gibbs.acceptance_ratio": "ratio",
    "gibbs.log_posterior.calls": "count/op",
    "gibbs.log_posterior.self_ms": "ms/op",
    "gibbs.hn_diagonal.calls": "count/op",
    "gibbs.draw_lambda_conditional.self_ms": "ms/op",
    "gibbs.map_from_chain.self_ms": "ms/op",
    "gibbs.us_per_proposal": "us/proposal",
    "gibbs.basis_per_proposal": "count/proposal",
    "niw.niw_posterior.self_ms": "ms/op",
    "niw.niw_map.self_ms": "ms/op",
    "simulate.generate_truth.self_ms": "ms/op",
    "simulate.sample_data.self_ms": "ms/op",
    "simulate.run_experiment.self_ms": "ms/op",
    "simulate.failures": "count",
    **{f"simulate.{risk}.{est}": "loss"
       for risk in ("mean_risk", "sigma_risk") for est in ("niw", "mle", "map-newton", "gibbs")},
    "cli.ingest_csv.calls": "count/op",
    "cli.ingest_csv.self_ms": "ms/op",
    "cli.ingest_csv.bytes_in": "B/op",
    "cli.latlong_to_sphere.self_ms": "ms/op",
    "cli.run.self_ms": "ms/op",
    "cli.serialize_ms": "ms/op",
    "cli.bytes_out": "B/op",
    "trace.overhead_ratio": "ratio",
}


def pin_blas() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS


def import_program() -> float:
    """Import meancov from this checkout's ``src/``; return the seconds it took."""
    src = ROOT / "src"
    if not (src / "meancov" / "__init__.py").is_file():
        raise ImportError(f"no meancov package under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import meancov.cli  # imports numpy and every layer

    elapsed = perf_counter() - t0
    if Path(meancov.cli.__file__).resolve().parent != (src / "meancov").resolve():
        raise ImportError(f"meancov was imported from {meancov.cli.__file__}, not {src}")
    return elapsed


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_vendor,
        "blas_threads": int(BLAS_THREADS),
    }


def set_up(wl, seed: int, work_root: Path) -> tuple[list[float], dict, str]:
    """Set the workload up ``SETUP_REPEATS`` times; keep the last set-up.

    Returns the time of each set-up (inputs written, warm-up ops run), the
    input sizes and the directory holding the inputs.
    """
    times, inputs, workdir = [], {}, None
    for _ in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
        t0 = perf_counter()
        workdir = tempfile.mkdtemp(prefix="inputs-", dir=work_root)
        inputs = wl.setup(seed, workdir)
        wl.warmup()
        times.append(perf_counter() - t0)
    return times, inputs, workdir


def run_phase(wl, seconds: float) -> list:
    """Run ops 0, 1, ... in whole rounds until ``seconds`` have passed."""
    results = []
    deadline = perf_counter() + seconds
    while not results or perf_counter() < deadline:
        for _ in range(wl.round_size):
            results.append(wl.run_op(len(results)))
    return results


def run_traced(wl, seconds: float, tracer) -> tuple[list, list]:
    """Run each round traced, then again untraced, until ``seconds`` have passed.

    Interleaving the two keeps drift in the machine's speed out of their
    ratio.  Returns the traced and the untraced results, op by op.
    """
    traced, untraced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        ops = range(len(traced), len(traced) + wl.round_size)
        with tracer.installed():
            for i in ops:
                tracer.op = i
                traced.append(wl.run_op(i))
        untraced.extend(wl.run_op(i) for i in ops)
    return traced, untraced


def phase_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.digest)
    return h.hexdigest()


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(import_s: float, setup_times: list[float], results) -> dict[str, float]:
    lat = [r.latency_s for r in results]
    ok = sum(not r.failures for r in results)
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": ok / sum(lat),
        "op_ms.p50": statistics.median(lat) * 1e3,
        "op_ms.p90": percentile_90(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def part_latencies(results) -> dict[str, list[float]]:
    """Per component (``fit_ms.mle``...): its latencies in ms, over the ops."""
    parts: dict[str, list[float]] = {}
    for r in results:
        for key, seconds in r.parts.items():
            parts.setdefault(key, []).append(seconds * 1e3)
    return parts


def failure_counts(results) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in results:
        for kind in r.failures:
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def report_lines(metrics: dict[str, float], results) -> list[str]:
    """Every end-to-end metric that applies to the workload, with its unit.

    Adds the per-component latencies and the failure rate, which are not
    defined on every workload and so are not in the last-line result.
    """
    n = len(results)
    lat = [r.latency_s * 1e3 for r in results]
    beyond = sum(x > metrics["op_ms.p90"] for x in lat)
    failed = sum(bool(r.failures) for r in results)
    rows = [
        ("setup_s", metrics["setup_s"], "s", f"median of {SETUP_REPEATS} set-ups plus import"),
        ("ops_per_s", metrics["ops_per_s"], "ops/s", f"{n - failed} ops completed"),
        ("op_ms.p50", metrics["op_ms.p50"], "ms", f"{n} samples"),
        ("op_ms.p90", metrics["op_ms.p90"], "ms", f"{n} samples, {beyond} beyond"),
    ]
    for key, values in sorted(part_latencies(results).items()):
        rows.append((f"{key}.p50", statistics.median(values), "ms", f"{len(values)} samples"))
    rows.append(("failure_rate", failed / n, "ratio", f"{failed} of {n} ops failed"))
    rows.append(("peak_rss_mb", metrics["peak_rss_mb"], "MB", "whole process"))
    lines = [f"{name:<30} {value:14.4f} {unit:<6} ({note})" for name, value, unit, note in rows]
    for kind, count in sorted(failure_counts(results).items()):
        lines.append(f"failures.{kind:<21} {count:14d}")
    return lines


def per_layer(tracer, traced, untraced) -> dict[str, float]:
    """Per-layer metrics of the traced ops and their untraced repeats.

    Span counts and self times are per traced op; risks and bytes written
    come from the untraced repeats.
    """
    ops = len(traced)
    stats = tracer.stats()
    counters = tracer.counters

    def span(name: str, field: int) -> float:
        return stats[name][field] if name in stats else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fits = span("newton_map.fit_map_newton", 0)
    proposals = counters["gibbs.proposals"]
    metrics = {
        "newton_map.outer_iterations": ratio(counters["newton_map.outer_iterations"], fits),
        "newton_map.converged_ratio": ratio(counters["newton_map.converged"], fits),
        "gibbs.proposals": proposals / ops,
        "gibbs.accepted": counters["gibbs.accepted"] / ops,
        "gibbs.acceptance_ratio": ratio(counters["gibbs.accepted"], proposals),
        "gibbs.us_per_proposal": ratio(span("gibbs.run_gibbs", 1) * 1e6, proposals),
        "gibbs.basis_per_proposal": ratio(
            tracer.count_under("model.build_orthobasis", "gibbs.run_gibbs"), proposals
        ),
        "simulate.failures": float(sum(len(r.failures) for r in traced + untraced)),
        "cli.ingest_csv.bytes_in": counters["cli.ingest_csv.bytes_in"] / ops,
        # Self time of main: JSON encoding and printing, without argument
        # parsing or run(), which are spans of their own.
        "cli.serialize_ms": span("cli.main", 2) * 1e3 / ops,
        "trace.overhead_ratio": sum(r.latency_s for r in untraced)
        / sum(r.latency_s for r in traced),
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        if name.endswith(".calls"):
            metrics[name] = span(name[: -len(".calls")], 0) / ops
        elif name.endswith(".self_ms"):
            metrics[name] = span(name[: -len(".self_ms")], 2) * 1e3 / ops
        else:  # risks and bytes out, averaged over the ops that report them
            values = [r.values[name] for r in untraced if name in r.values]
            metrics[name] = statistics.fmean(values) if values else 0.0
    return metrics


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    work_root = OUT / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    setup_times, inputs, workdir = set_up(wl, args.seed, work_root)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            traced, untraced = run_traced(wl, args.seconds, tracer)
            digests = {"traced": phase_digest(traced), "untraced": phase_digest(untraced)}
            metrics = per_layer(tracer, traced, untraced)
            results = traced + untraced
            units = PER_LAYER
            lines = [f"{name:<40} {metrics[name]:16.6f} {unit}" for name, unit in units.items()]
            lines.append(f"digest traced {digests['traced']} untraced {digests['untraced']}")
            correct = digests["traced"] == digests["untraced"]
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        else:
            results = run_phase(wl, args.seconds)
            digests = {"untraced": phase_digest(results)}
            metrics = end_to_end(import_s, setup_times, results)
            units = END_TO_END
            lines = report_lines(metrics, results)
            correct = True
    finally:
        shutil.rmtree(workdir)

    failed = sum(bool(r.failures) for r in results)
    result = result_line(correct and not failed, len(results), failed, metrics, units)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "definition": wl.describe(),
        "machine": machine_info(),
        "inputs_bytes": inputs,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "digests": digests,
        "failures": failure_counts(results),
    }
    print("# " + json.dumps(context, sort_keys=True))
    for line in lines:
        print(line)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
