"""Normal-inverse-Wishart baseline.

The conjugate NIW posterior supplies the benchmark MAP estimator for the
simulation study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError
from .model import SampleSet, _as_vector, _Record


@dataclass(frozen=True, eq=False)
class NiwParams(_Record):
    """Updated hyperparameters of the normal-inverse-Wishart posterior; the arrays are read-only."""

    mu_n: np.ndarray
    kappa_n: float
    nu_n: float
    Lambda_n: np.ndarray


def niw_posterior(
    data: SampleSet, mu0, kappa0: float, nu0: float, Lambda0
) -> NiwParams:
    """Conjugate update of the normal-inverse-Wishart hyperparameters.

    ``mu_n`` is the precision-weighted blend of prior mean and sample mean;
    ``Lambda_n`` adds the mean-centered scatter and the shrunk rank-one
    deviation of the sample mean from the prior mean.  Every hyperparameter
    must be finite, and ``kappa0 > 0``; so must ``mu_n`` and ``Lambda_n`` be.
    """
    p = data.p
    mu0 = _as_vector(mu0, "mu0", p)
    Lambda0 = np.asarray(Lambda0, dtype=float)
    if Lambda0.shape != (p, p):
        raise DimensionMismatchError(f"Lambda0 has shape {Lambda0.shape}, expected {(p, p)}")
    if not all(np.isfinite(v).all() for v in (mu0, kappa0, nu0, Lambda0)):
        raise ValueError("prior values mu0, kappa0, nu0 and Lambda0 must be finite")
    if kappa0 <= 0.0:
        raise ValueError("kappa0 must be > 0")
    n = data.n
    diff = data.xbar - mu0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        mu_n = (kappa0 * mu0 + n * data.xbar) / (kappa0 + n)
        shrink = n * kappa0 / (kappa0 + n)
        Lambda_n = Lambda0 + data.scatter_about_mean() + shrink * np.outer(diff, diff)
    if not (np.isfinite(mu_n).all() and np.isfinite(Lambda_n).all()):
        raise ValueError("the NIW posterior overflows: mu_n or Lambda_n is not finite")
    return NiwParams(mu_n=mu_n, kappa_n=kappa0 + n, nu_n=nu0 + n, Lambda_n=Lambda_n)


def niw_map(params: NiwParams) -> tuple[np.ndarray, np.ndarray]:
    """Joint posterior mode: ``(mu_n, Lambda_n / (nu_n + p + 2))``, with p the
    order of ``Lambda_n``.

    The mode's rank-one term ``kappa_n (mu - mu_n)(mu - mu_n)^T`` vanishes
    at ``mu = mu_n``, so the covariance mode is the scaled scale matrix
    (``ValueError`` unless its divisor ``nu_n + p + 2 > 0``).
    """
    t = params.nu_n + params.Lambda_n.shape[0] + 2.0
    if not t > 0.0:
        raise ValueError(f"nu_n + p + 2 must be > 0 for the NIW mode, got {t}")
    return params.mu_n.copy(), params.Lambda_n / t
