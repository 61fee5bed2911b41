"""Fingerprints of seeded outputs, for comparing two versions of the library.

Prints one line ``<output> <n>x<p> <sha256>`` per output and cell: the truth,
the data, the MLE, the NIW MAP, the Newton MAP under the default and the flat
prior, a Gibbs chain (s = 100, l = 5) and its MAP, each over seeds 0-19 at
(12, 3), (50, 3), (100, 10) and (500, 50).  A fit that raises is hashed by
its exception type.  Run it on two trees and compare the outputs with
``diff``::

    PYTHONPATH=src python tests/fingerprint.py > after.txt

The file name does not match pytest's ``test_*.py``, so the suite does not
collect it.  It takes about six seconds (2-vCPU x86-64 VM).
"""

from __future__ import annotations

import hashlib

import numpy as np

from meancov import (
    PriorConfig,
    SampleSet,
    fit_map_newton,
    fit_mle,
    generate_truth,
    map_from_chain,
    niw_map,
    niw_posterior,
    run_gibbs,
    sample_data,
)

CELLS = ((12, 3), (50, 3), (100, 10), (500, 50))
SEEDS = range(20)


def _fit_arrays(fit) -> tuple:
    return fit.u, fit.c0, fit.spectrum, fit.basis, fit.converged, fit.outer_iterations


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

    def chain():
        return run_gibbs(data, prior, s=100, l=5, rng=np.random.default_rng(seed))

    def gibbs():
        run = chain()
        return (run.mu, run.lam, run.log_posterior, run.accepted_count, run.accepted)

    return (
        ("truth", lambda: (truth.mu_true, truth.sigma_true)),
        ("data", lambda: (X,)),
        ("mle", lambda: _fit_arrays(fit_mle(data))),
        ("niw", niw),
        ("map-newton", lambda: _fit_arrays(fit_map_newton(data, prior))),
        ("map-newton-flat", lambda: _fit_arrays(fit_map_newton(data, flat))),
        ("gibbs-chain", gibbs),
        ("gibbs-map", lambda: _fit_arrays(map_from_chain(chain(), data, prior))),
    )


def _update(h, values) -> None:
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())


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


if __name__ == "__main__":
    main()
