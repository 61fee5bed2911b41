"""Fingerprints of seeded outputs, for comparing two versions of the library.

Prints one line ``<output> <n>x<p> <sha256>`` per output and cell: the truth,
the data, the MLE, the NIW MAP, the Newton MAP under the default and the flat
prior, a Gibbs chain (s = 100, l = 5) and its MAP (each fit with its
diagnostics), each over seeds 0-19 at (12, 3), (50, 3), (100, 10) and
(500, 50).  At each of the four fits' means
it also hashes the public helpers, one line ``<fit>:<helper>`` each:
``hn_diagonal``, ``log_posterior`` (at the fit's spectrum), ``estimate_lambdas``,
``profile_loglik``, ``lower_bound_h`` and ``h_value``, under the fit's prior.
An output that raises is hashed by its exception type.  Last come the risk
harness's lines, ``run_experiment <n>x<p> <sha256>``: the default battery
over seeds 0-4 at (50, 3) and (30, 6), three replications each, hashing
every ``RiskReport`` field but ``elapsed_seconds`` (``failure_types`` as
its sorted items).  Run it on two trees and compare the outputs with
``diff``::

    PYTHONPATH=src python tests/fingerprint.py > after.txt

The file name does not match pytest's ``test_*.py``, so the suite does not
collect it.  It takes about four seconds (2-vCPU x86-64 VM).
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from functools import cache

import numpy as np

from meancov import (
    PriorConfig,
    SampleSet,
    estimate_lambdas,
    fit_map_newton,
    fit_mle,
    generate_truth,
    h_value,
    hn_diagonal,
    log_posterior,
    lower_bound_h,
    map_from_chain,
    niw_map,
    niw_posterior,
    profile_loglik,
    run_experiment,
    run_gibbs,
    sample_data,
)

CELLS = ((12, 3), (50, 3), (100, 10), (500, 50))
SEEDS = range(20)
HARNESS_CELLS = ((50, 3), (30, 6))
HARNESS_SEEDS = range(5)

# The public helpers at a fit's mean, as (name, function of data, prior, fit).
HELPERS = (
    ("hn_diagonal", lambda data, prior, fit: hn_diagonal(data, fit.mu, prior)),
    ("log_posterior", lambda data, prior, fit: log_posterior(data, fit.mu, fit.spectrum, prior)),
    ("estimate_lambdas", lambda data, prior, fit: estimate_lambdas(data, fit.u)),
    ("profile_loglik", lambda data, prior, fit: profile_loglik(data, fit.u)),
    ("lower_bound_h", lambda data, prior, fit: lower_bound_h(data, fit.u)),
    ("h_value", lambda data, prior, fit: h_value(data, fit.u, fit.c0, prior)),
)


def _fit_arrays(fit) -> tuple:
    diagnostics = tuple(fit.diagnostics[k] for k in sorted(fit.diagnostics))
    return (fit.u, fit.c0, fit.spectrum, fit.basis, fit.converged, fit.outer_iterations) + diagnostics


def _outputs(n: int, p: int, seed: int):
    """``(name, thunk)`` for every output of one seeded replication."""
    rng = np.random.default_rng(seed)
    truth = generate_truth(p, rng)
    X = sample_data(truth, n, rng)
    data = SampleSet(X)
    prior = PriorConfig.default(data)
    flat = PriorConfig(mu0=np.zeros(p), kappa0=0.0, a=-0.5, h0_diag=np.zeros(p))

    def niw():
        params = niw_posterior(data, mu0=data.xbar, kappa0=1.5, nu0=p + 1, Lambda0=np.eye(p))
        return niw_map(params)

    @cache
    def chain():
        return run_gibbs(data, prior, s=100, l=5, rng=np.random.default_rng(seed))

    def gibbs():
        run = chain()
        return (run.mu, run.lam, run.log_posterior, run.accepted_count, run.accepted)

    fits = {  # name -> (prior, fit); a fit that raises is run again, and raises again
        "mle": (prior, cache(lambda: fit_mle(data))),
        "map-newton": (prior, cache(lambda: fit_map_newton(data, prior))),
        "map-newton-flat": (flat, cache(lambda: fit_map_newton(data, flat))),
        "gibbs-map": (prior, cache(lambda: map_from_chain(chain(), data, prior))),
    }

    def fit_output(name):
        return lambda: _fit_arrays(fits[name][1]())

    def helper_output(name, helper):
        fit_prior, fit = fits[name]
        return lambda: (helper(data, fit_prior, fit()),)

    return (
        ("truth", lambda: (truth.mu_true, truth.sigma_true)),
        ("data", lambda: (X,)),
        ("mle", fit_output("mle")),
        ("niw", niw),
        ("map-newton", fit_output("map-newton")),
        ("map-newton-flat", fit_output("map-newton-flat")),
        ("gibbs-chain", gibbs),
        ("gibbs-map", fit_output("gibbs-map")),
    ) + tuple(
        (f"{name}:{h_name}", helper_output(name, helper))
        for name in fits for h_name, helper in HELPERS
    )


def _update(h, values) -> None:
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())


def _report_values(report) -> tuple:
    """Every field of a ``RiskReport`` but its wall time, ``failure_types`` sorted."""
    return tuple(
        sorted(report.failure_types.items()) if f.name == "failure_types" else getattr(report, f.name)
        for f in fields(report)
        if f.name != "elapsed_seconds"
    )


def main() -> None:
    for n, p in CELLS:
        hashes = {}
        for seed in SEEDS:
            for name, thunk in _outputs(n, p, seed):
                h = hashes.setdefault(name, hashlib.sha256())
                try:
                    _update(h, thunk())
                except Exception as exc:  # a fit that raises is part of the output
                    h.update(type(exc).__name__.encode())
        for name, h in hashes.items():
            print(f"{name} {n}x{p} {h.hexdigest()}")
    for n, p in HARNESS_CELLS:
        h = hashlib.sha256()
        for seed in HARNESS_SEEDS:
            for report in run_experiment([(n, p)], reps=3, seed=seed):
                h.update(repr(_report_values(report)).encode())
        print(f"run_experiment {n}x{p} {h.hexdigest()}")


if __name__ == "__main__":
    main()
