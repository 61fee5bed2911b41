"""Span tracing of the meancov layers, installed from outside the package.

Every module binds the functions it imports at import time, so a function is
wrapped in each module namespace where it is looked up (``build_orthobasis``
in ``model``, ``mle``, ``newton_map``, ``gibbs``, ``simulate`` and ``cli``),
always by the same wrapper.  ``SampleSet`` construction and
``SampleSet.scatter`` are wrapped on the class, and ``eigh`` / ``eigvalsh``
on ``numpy.linalg``.  ``restore`` puts every original attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from meancov import cli, gibbs, mle, model, newton_map, niw, simulate

MODULES = (model, mle, newton_map, gibbs, niw, simulate, cli)
LINALG = ("eigh", "eigvalsh")

# Counters read from a traced call's arguments or result: span name ->
# function of (args, result) returning counter increments.
OBSERVERS = {
    "gibbs.run_gibbs": lambda args, run: {
        "gibbs.proposals": run.proposals,
        "gibbs.accepted": run.accepted,
    },
    "newton_map.fit_map_newton": lambda args, fit: {
        "newton_map.outer_iterations": fit.outer_iterations,
        "newton_map.converged": int(fit.converged),
    },
    "cli.ingest_csv": lambda args, data: {"cli.ingest_csv.bytes_in": os.path.getsize(args[0])},
}


def wrap_targets() -> list[tuple[object, str, str]]:
    """Every (owner, attribute, span name) the tracer replaces."""
    targets = []
    for mod in MODULES:
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__.startswith("meancov.")
            ):
                targets.append((mod, attr, f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"))
    targets.append((model.SampleSet, "__post_init__", "model.SampleSet"))
    targets.append((model.SampleSet, "scatter", "model.SampleSet.scatter"))
    targets.extend((np.linalg, name, f"linalg.{name}") for name in LINALG)
    return targets


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent index, op id]`` with times from
    ``perf_counter``; the parent index is -1 for a span no other span encloses.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                for key, value in observe(args, result).items():
                    counters[key] += value
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for owner, attr, name in wrap_targets():
            original = vars(owner)[attr]
            if original not in wrappers:
                wrappers[original] = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[original])

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans nest because the benchmark runs on one thread.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def stats(self) -> dict[str, list[float]]:
        """Per span name: [calls, total seconds, self seconds]."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            s = out[name]
            s[0] += 1
            s[1] += end - start
            s[2] += own
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        under = [False] * len(self.spans)
        count = 0
        for i, (span, _, _, parent, _) in enumerate(self.spans):
            inside = parent >= 0 and (under[parent] or self.spans[parent][0] == ancestor)
            under[i] = inside
            count += inside and span == name
        return count

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines, times in microseconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    f"{op}\t{i}\t{parent}\t{name}\t"
                    f"{(start - t0) * 1e6:.3f}\t{(end - t0) * 1e6:.3f}\n"
                )
