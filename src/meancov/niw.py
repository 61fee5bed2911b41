"""Normal-inverse-Wishart baseline and the shrinkage-variant density.

The conjugate NIW posterior supplies the benchmark MAP estimator for the
simulation study.  The shrinkage inverse Wishart density (inverse Wishart
divided by the product of eigenvalue gaps raised to ``b``) is provided at
density level only, to verify that with ``b = 1`` the normal likelihood and
normal-shrinkage-inverse-Wishart prior stay conjugate with the usual
posterior parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError
from .model import SampleSet, _as_vector

_GAP_TOL = 1e-12


@dataclass(frozen=True)
class NiwParams:
    """Updated hyperparameters of the normal-inverse-Wishart posterior."""

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
    mu0 = _as_vector(mu0, "mu0")
    Lambda0 = np.asarray(Lambda0, dtype=float)
    p = data.p
    if mu0.size != p or Lambda0.shape != (p, p):
        raise DimensionMismatchError("prior hyperparameters do not match the data dimension")
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
    at ``mu = mu_n``, so the covariance mode is the scaled scale matrix.
    """
    p = params.Lambda_n.shape[0]
    return params.mu_n.copy(), params.Lambda_n / (params.nu_n + p + 2.0)


def siw_log_density(Sigma, nu0: float, b: float, Lambda0) -> float:
    """Unnormalized log density of the shrinkage inverse Wishart.

    Equals the inverse-Wishart log kernel minus ``b`` times the sum of log
    eigenvalue gaps.  When ``b > 0`` and two eigenvalues coincide (gap below
    1e-12) the density is zero, returned as ``-inf``.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    p = Sigma.shape[0]
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must lie in [0, 1]")
    sign, logdet = np.linalg.slogdet(Sigma)
    if sign <= 0:
        raise ValueError("Sigma must be positive definite")
    kernel = -0.5 * (nu0 + p + 1.0) * logdet - 0.5 * float(
        np.trace(np.asarray(Lambda0, dtype=float) @ np.linalg.inv(Sigma))
    )
    if b == 0.0:
        return float(kernel)
    lam = np.linalg.eigvalsh(Sigma)[::-1]  # descending
    gaps = (lam[:, None] - lam[None, :])[np.triu_indices(p, k=1)]
    if np.any(gaps < _GAP_TOL):
        return -np.inf
    return float(kernel - b * np.sum(np.log(gaps)))
