"""Non-iterative approximate maximum likelihood estimation.

Given the mean direction ``u``, the radius and the free eigenvalues have
closed-form maximizers; plugging them back yields a profile log-likelihood
of ``u`` alone.  Bounding the eigenvalue-dependent log terms by the largest
eigenvalue of the zero-centered scatter produces a concave surrogate whose
maximizer is the eigenvector of the smallest eigenvalue of ``A(xbar)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateDataError
from .model import (
    EigenSpectrum,
    MeanState,
    OrthoBasis,
    SampleSet,
    StructuredCovariance,
    _as_vector,
    assemble_sigma,
    build_orthobasis,
    tail_quadratic_forms,
)

_LAMBDA_FLOOR = 1e-12


@dataclass(frozen=True)
class MleFit:
    """Approximate MLE of the constrained mean-covariance pair.

    ``basis`` is ``build_orthobasis(mean.u)``, completed once by the fit;
    the eigenvalues, ``profile_loglik_at_fit`` and :meth:`covariance` are
    all read off it.  ``degenerate_direction`` flags a (numerically)
    repeated smallest eigenvalue of ``A(xbar)``; ``zero_radius`` flags a fit
    with ``c0 = 0``, where the mean direction is no longer identified by the
    mean vector.
    """

    mean: MeanState
    spectrum: EigenSpectrum
    basis: OrthoBasis = field(repr=False)
    profile_loglik_at_fit: float
    lower_bound_at_fit: float
    smallest_eig_of_A_xbar: float
    degenerate_direction: bool = False
    zero_radius: bool = False

    def covariance(self) -> StructuredCovariance:
        return assemble_sigma(self.basis, self.spectrum)


def estimate_c0(data: SampleSet, u) -> float:
    """Closed-form radius estimate ``u^T xbar`` for a given unit direction."""
    u = _as_vector(u, "u")
    return float(u @ data.xbar)


def estimate_c0_general(data: SampleSet, u, lam) -> float:
    """Radius estimate in its unsimplified ratio-of-quadratic-forms form.

    Evaluates ``(u^T P D^{-1} P^T xbar) / (u^T P D^{-1} P^T u)`` with
    ``D = diag(1, lam)``.  Algebraically equal to :func:`estimate_c0` for
    every positive ``lam``; kept as an equivalence oracle.
    """
    lam = np.asarray(lam, dtype=float)
    P = build_orthobasis(u).matrix
    dinv = 1.0 / np.concatenate(([1.0], lam))
    M = (P * dinv) @ P.T
    u = _as_vector(u, "u")
    return float((u @ M @ data.xbar) / (u @ M @ u))


def _tail_forms(data: SampleSet, basis: OrthoBasis) -> np.ndarray:
    """``V_i^T A(0) V_i`` for the tail of ``basis``.

    Raises
    ------
    DegenerateDataError
        If any quadratic form is numerically zero (data in a subspace).
    """
    q = tail_quadratic_forms(data.a0, basis.tail)
    if np.any(q < _LAMBDA_FLOOR):
        raise DegenerateDataError("data lie in a proper subspace; eigenvalue estimate is zero")
    return q


def _profile_loglik(data: SampleSet, u: np.ndarray, q: np.ndarray) -> float:
    n = data.n
    quad = float(u @ data.scatter_about_mean() @ u)
    return float(-0.5 * n * np.sum(np.log(q / n)) - 0.5 * (quad + n * (data.p - 1)))


def estimate_lambdas(data: SampleSet, mean: MeanState) -> EigenSpectrum:
    """Closed-form eigenvalue estimates ``V_i^T A(0) V_i / n``.

    Raises
    ------
    DegenerateDataError
        If any quadratic form is numerically zero (data in a subspace).
    """
    return EigenSpectrum(_tail_forms(data, build_orthobasis(mean.u)) / data.n)


def profile_loglik(data: SampleSet, u) -> float:
    """Profile log-likelihood of the mean direction.

    The radius and eigenvalues are replaced by their closed-form maximizers;
    the proportionality constant is fixed at zero.
    """
    u = _as_vector(u, "u")
    return _profile_loglik(data, u, _tail_forms(data, build_orthobasis(u)))


def lower_bound_h(data: SampleSet, u) -> float:
    """Concave surrogate for the profile log-likelihood.

    The eigenvalue log terms are bounded using the largest eigenvalue of
    ``A(0)``, leaving a term constant in ``u`` plus the quadratic form
    ``-u^T A(xbar) u / 2``.
    """
    u = _as_vector(u, "u")
    n, p = data.n, data.p
    lam_max = data.a0_lambda_max
    quad = float(u @ data.scatter_about_mean() @ u)
    return float(-0.5 * n * (p - 1) * np.log(lam_max / n) - 0.5 * (quad + n * (p - 1)))


def fit_mle(data: SampleSet) -> MleFit:
    """Three-step non-iterative fit.

    The direction estimate is the eigenvector of the smallest eigenvalue of
    ``A(xbar)``, signed so that ``u^T xbar >= 0``; the radius and eigenvalues
    follow from their closed forms at that direction.
    """
    if data.n < 2:
        raise DegenerateDataError("need at least two observations")
    A = data.scatter_about_mean()
    evals, evecs = np.linalg.eigh(A)
    tr = float(np.trace(A))
    if evals[0] <= max(tr, 1.0) * 1e-12:
        raise DegenerateDataError("A(xbar) is rank deficient")
    degenerate = bool(evals[1] - evals[0] <= 1e-9 * tr)
    u = evecs[:, 0]
    proj = float(u @ data.xbar)
    if proj < 0.0:
        u = -u
        proj = -proj
    c0 = proj
    mean = MeanState(u=u, c0=c0)
    basis = build_orthobasis(mean.u)
    q = _tail_forms(data, basis)
    return MleFit(
        mean=mean,
        spectrum=EigenSpectrum(q / data.n),
        basis=basis,
        profile_loglik_at_fit=_profile_loglik(data, mean.u, q),
        lower_bound_at_fit=lower_bound_h(data, u),
        smallest_eig_of_A_xbar=float(evals[0]),
        degenerate_direction=degenerate,
        zero_radius=bool(c0 == 0.0),
    )
