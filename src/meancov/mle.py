"""Non-iterative approximate maximum likelihood estimation.

Given the mean direction ``u``, the radius and the free eigenvalues have
closed-form maximizers; plugging them back yields a profile log-likelihood
of ``u`` alone.  Bounding the eigenvalue-dependent log terms by the largest
eigenvalue of the zero-centered scatter produces a concave surrogate whose
maximizer is the eigenvector of the smallest eigenvalue of ``A(xbar)``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateDataError
from .model import Fit, SampleSet, _direction

# A smallest eigenvalue of A(xbar), or a tail form of A(0), at most this
# times trace(A(xbar)) is zero: the test scales with the data.
_RANK_RTOL = 1e-12


def estimate_c0(data: SampleSet, u) -> float:
    """Closed-form radius estimate ``u^T xbar`` for a unit direction ``u`` of length p,
    which every closed form here requires (``DimensionMismatchError``,
    ``NonUnitVectorError`` or ``ZeroVectorError`` otherwise)."""
    u = _direction(u, data.p)
    return float(u @ data.xbar)


def _tail_forms(data: SampleSet, u) -> np.ndarray:
    """``V_i^T A(0) V_i`` for the tail ``V`` of the data's completion of the unit ``u``
    (:meth:`~meancov.model.SampleSet.scatter_diagonal`, without forming ``V``).

    ``DegenerateDataError`` if any form is numerically zero relative to
    ``trace(A(xbar))``: data in a proper affine subspace, since each form is
    at least the smallest eigenvalue of ``A(xbar)``.
    """
    q = data.scatter_diagonal(u, 0.0)[1:]
    if np.any(q <= _RANK_RTOL * np.trace(data.scatter_about_mean())):
        raise DegenerateDataError("data lie in a proper subspace; eigenvalue estimate is zero")
    return q


def _profile_loglik(data: SampleSet, u: np.ndarray, q: np.ndarray) -> float:
    n = data.n
    quad = float(u @ data.scatter_about_mean() @ u)
    return float(-0.5 * n * np.sum(np.log(q / n)) - 0.5 * (quad + n * (data.p - 1)))


def estimate_lambdas(data: SampleSet, u) -> np.ndarray:
    """Closed-form eigenvalue estimates ``V_i^T A(0) V_i / n`` at the unit direction ``u``.

    ``V`` is the tail of the data's completion of ``u``
    (:meth:`~meancov.model.SampleSet.completion`), the one both MAPs use;
    at the fit's direction it is the MLE's basis.  ``DegenerateDataError``
    if any form is numerically zero (data in a subspace).
    """
    return _tail_forms(data, u) / data.n


def profile_loglik(data: SampleSet, u) -> float:
    """Profile log-likelihood of the mean direction.

    The radius and eigenvalues are replaced by their closed-form maximizers
    (:func:`estimate_c0`, :func:`estimate_lambdas`), in the data's completion
    of ``u``; the proportionality constant is fixed at zero.  For p > 2 the
    completions of ``u`` and ``-u`` have different tails, so the value is
    not even in ``u``.
    """
    u = _direction(u, data.p)
    return _profile_loglik(data, u, _tail_forms(data, u))


def lower_bound_h(data: SampleSet, u) -> float:
    """Concave surrogate for the profile log-likelihood.

    The eigenvalue log terms are bounded using the largest eigenvalue of
    ``A(0)``, leaving a term constant in ``u`` plus the quadratic form
    ``-u^T A(xbar) u / 2``.  Like :func:`estimate_c0`, it takes a unit ``u``
    of length p only.
    """
    u = _direction(u, data.p)
    n, p = data.n, data.p
    lam_max = data.a0_lambda_max
    quad = float(u @ data.scatter_about_mean() @ u)
    return float(-0.5 * n * (p - 1) * np.log(lam_max / n) - 0.5 * (quad + n * (p - 1)))


def fit_mle(data: SampleSet) -> Fit:
    """Three-step non-iterative fit.

    The direction estimate is the eigenvector of the smallest eigenvalue of
    ``A(xbar)``, signed so that ``u^T xbar >= 0``; the radius and eigenvalues
    follow from their closed forms at that direction.  The basis is the
    data's :attr:`~meancov.model.SampleSet.frame`, from the one ``eigh`` of
    ``A(xbar)``, kept on the ``SampleSet``: a later call on it runs only the
    O(p^2) closed forms and returns a new, bit-equal :class:`Fit`.  The
    eigenvalues are the frame's tail forms over ``n``.  The fit's ``u`` is
    the frame's first column, its ``c0`` is ``estimate_c0(data, u)`` bit for
    bit, and every diagnostic is taken at it: ``profile_loglik``,
    ``lower_bound``, ``smallest_eig_of_A_xbar``, ``degenerate_direction`` (a
    numerically repeated smallest eigenvalue of ``A(xbar)``) and
    ``zero_radius`` (``c0 = 0``, where the mean no longer identifies the
    direction).
    """
    if data.n < 2:
        raise DegenerateDataError("need at least two observations")
    evals, basis = data._anchor
    tr = float(np.trace(data.scatter_about_mean()))
    if evals[0] <= _RANK_RTOL * tr:
        raise DegenerateDataError("A(xbar) is rank deficient")
    degenerate = bool(evals[1] - evals[0] <= 1e-9 * tr)
    u = basis[:, 0].copy()  # contiguous: a strided dot sums in another order
    c0 = estimate_c0(data, u)
    q = _tail_forms(data, u)
    return Fit(
        u=u,
        c0=c0,
        spectrum=q / data.n,
        basis=basis,
        diagnostics={
            "profile_loglik": _profile_loglik(data, u, q),
            "lower_bound": lower_bound_h(data, u),
            "smallest_eig_of_A_xbar": float(evals[0]),
            "degenerate_direction": degenerate,
            "zero_radius": bool(c0 == 0.0),
        },
    )
