"""Fast MAP approximation by maximizing a posterior lower bound.

The eigenvalue-dependent log terms of the profiled log posterior are bounded
by constants built from the largest eigenvalue of ``A(0)``, leaving a smooth
surrogate ``h(u)`` of the mean direction at a given radius.  ``h`` is
maximized by Newton steps with backtracking that only accepts increases;
radius and eigenvalues are refreshed from their closed forms between Newton
passes.  The iteration starts from the approximate MLE or from a given
start vector.
"""

from __future__ import annotations

import numpy as np

from .gibbs import PriorConfig, _check_prior, _Posterior
from .mle import fit_mle
from .model import Fit, SampleSet, _as_vector, _norm, _polar

ALPHA = 0.5
EPSILON = 1e-8
MAX_OUTER = 100
MAX_INNER = 50
MAX_BACKTRACKS = 30


def map_c0_update(data: SampleSet, u, lam, prior: PriorConfig) -> float:
    """Closed-form radius update given direction and eigenvalues.

    ``c0 = (n u^T xbar + kappa0 u^T D^{-1} mu0) / (n + kappa0 u^T D^{-1} u)``
    with ``D = diag(1, lambda)`` acting componentwise in ambient coordinates.
    In the ``kappa0 -> 0`` limit this is the MLE radius ``u^T xbar``.
    """
    u = _as_vector(u, "u", data.p)
    _check_prior(data, prior)
    dinv = 1.0 / np.concatenate(([1.0], _as_vector(lam, "lam", data.p - 1)))
    num = data.n * float(u @ data.xbar) + prior.kappa0 * float(u @ (dinv * prior.mu0))
    den = data.n + prior.kappa0 * float(u @ (dinv * u))
    return num / den


def map_lambda_update(data: SampleSet, u, c0: float, prior: PriorConfig) -> np.ndarray:
    """Closed-form eigenvalue update: trailing diagonal of H_N over ``n+1+2a``.

    This is the mode of the inverse-gamma full conditional of each
    eigenvalue at the mean ``c0 * u``, the formula the Gibbs MAP uses too,
    in the same completion: the data's completion of the mean's direction,
    ``u``, or ``-u`` where ``c0 < 0``
    (:meth:`~meancov.model.SampleSet.scatter_diagonal`).  An overflowing
    prior raises ``ValueError``.
    """
    post = _Posterior(data, prior)
    return post.mode(post.hn(_as_vector(u, "u", data.p), c0))


def _surrogate_terms(data: SampleSet, u, c0: float, prior: PriorConfig):
    """The terms :func:`h_value`, :func:`h_gradient` and :func:`h_hessian` share.

    Returns ``u`` as a vector, the bound constants
    ``m_i = lambda_max(A(0)) + (H0)_{i+1,i+1}`` for i = 1..p-1,
    ``t = (n + 1 + 2a) / 2``, the prior residual ``d = c0 u - mu0``,
    ``g = kappa0 ||d||^2``, ``u^T u`` and ``u^T xbar``.
    """
    u = _as_vector(u, "u", data.p)
    _check_prior(data, prior)
    m = data.a0_lambda_max + prior.h0_diag[1:]
    t = 0.5 * (data.n + 1.0 + 2.0 * prior.a)
    d = c0 * u - prior.mu0
    g = prior.kappa0 * float(d @ d)
    return u, m, t, d, g, float(u @ u), float(u @ data.xbar)


def h_value(data: SampleSet, u, c0: float, prior: PriorConfig) -> float:
    """Posterior lower-bound surrogate of the mean direction at radius ``c0``.

    ``-h = t sum_i log[(m_i + kappa0 ||c0 u - mu0||^2) / (2t)]
          + [u^T A(c0 u) u + kappa0 (c0 u - mu0)_1^2 + m_1] / 2``

    where the subscript 1 picks the first squared component of the prior
    residual, matching the leading diagonal entry of H_N.  Treated as a
    smooth function of ``u`` in ambient coordinates.
    """
    u, m, t, d, g, uu, ux = _surrogate_terms(data, u, c0, prior)
    quad = float(u @ data.a0 @ u) - 2.0 * data.n * c0 * ux * uu + data.n * c0**2 * uu**2
    neg_h = t * np.sum(np.log((m + g) / (2.0 * t))) + 0.5 * (
        quad + prior.kappa0 * d[0] ** 2 + m[0]
    )
    return float(-neg_h)


def h_gradient(data: SampleSet, u, c0: float, prior: PriorConfig) -> np.ndarray:
    """Exact ambient gradient of :func:`h_value` with respect to ``u``."""
    u, m, t, d, g, uu, ux = _surrogate_terms(data, u, c0, prior)
    s1 = float(np.sum(1.0 / (m + g)))
    n = data.n
    grad_neg = (
        2.0 * t * prior.kappa0 * c0 * s1 * d
        + data.a0 @ u
        - n * c0 * (data.xbar * uu + 2.0 * ux * u)
        + 2.0 * n * c0**2 * uu * u
    )
    grad_neg[0] += prior.kappa0 * c0 * d[0]
    return -grad_neg


def h_hessian(data: SampleSet, u, c0: float, prior: PriorConfig) -> np.ndarray:
    """Exact ambient Hessian of :func:`h_value` with respect to ``u``."""
    u, m, t, d, g, uu, ux = _surrogate_terms(data, u, c0, prior)
    s1 = float(np.sum(1.0 / (m + g)))
    s2 = float(np.sum(1.0 / (m + g) ** 2))
    n = data.n
    eye = np.eye(u.size)
    hess_neg = (
        2.0 * t * prior.kappa0 * c0**2 * (s1 * eye - 2.0 * prior.kappa0 * s2 * np.outer(d, d))
        + data.a0
        - 2.0 * n * c0 * (np.outer(data.xbar, u) + np.outer(u, data.xbar) + ux * eye)
        + 2.0 * n * c0**2 * (2.0 * np.outer(u, u) + uu * eye)
    )
    hess_neg[0, 0] += prior.kappa0 * c0**2
    return -hess_neg


def fit_map_newton(data: SampleSet, prior: PriorConfig, init_mu=None) -> Fit:
    """Alternate closed-form radius/eigenvalue updates with Newton steps on h.

    Starts from the approximate MLE unless a nonzero start vector ``init_mu``
    is supplied, which is taken as the direction ``init_mu / ||init_mu||``
    at the radius ``||init_mu||`` (``ZeroMeanError``, a ``ZeroVectorError``,
    for a zero vector); a cold start is :func:`~meancov.mle.fit_mle` on the
    data's kept frame, and raises its ``DegenerateDataError``.  An outer
    iteration takes up to ``MAX_INNER`` Newton steps, each backtracked (by
    ``ALPHA``, up to ``MAX_BACKTRACKS`` times) until the surrogate increases
    and renormalized; a singular Hessian falls back to a gradient step.  The
    outer loop stops after ``MAX_OUTER`` iterations, when the direction moves
    less than ``EPSILON`` or when a radius refresh would decrease the
    surrogate.  A negative radius is reported as the same mean ``(-c0)(-u)``.

    Every eigenvalue refresh is :func:`map_lambda_update`, in the data's
    completion of the mean's direction (``-u`` at a negative radius), as in
    the Gibbs MAP, read in O(p^2) with no basis formed; the one basis
    completed, ``data.completion(u)``, is the fit's.  An overflowing prior
    raises ``ValueError`` at the first refresh.

    The diagnostic ``h_trace`` holds the surrogate value after the initial
    point and every accepted update; the acceptance rule makes it
    non-decreasing.
    """
    if init_mu is None:
        mle = fit_mle(data)
        u, c0 = mle.u, mle.c0
    else:
        u, c0 = _polar(_as_vector(init_mu, "init_mu", data.p))
    lam = map_lambda_update(data, u, c0, prior)
    h_cur = h_value(data, u, c0, prior)
    h_trace = [h_cur]
    converged = False

    for outer_used in range(1, MAX_OUTER + 1):
        c0_new = map_c0_update(data, u, lam, prior)
        lam_new = map_lambda_update(data, u, c0_new, prior)
        h_new = h_value(data, u, c0_new, prior)
        if h_new < h_cur:
            # The refresh maximizes the exact conditional posterior, not h;
            # keep the previous iterate if it would lower the surrogate.
            converged = True
            break
        c0, lam, h_cur = c0_new, lam_new, h_new
        h_trace.append(h_cur)

        u_outer = u
        for _ in range(MAX_INNER):
            grad_neg = -h_gradient(data, u, c0, prior)
            hess_neg = -h_hessian(data, u, c0, prior)
            try:
                v = np.linalg.solve(hess_neg, grad_neg)
                if not np.all(np.isfinite(v)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                v = grad_neg / max(1.0, _norm(grad_neg))
            accepted = False
            cand = u
            h_cand = h_cur
            for lbt in range(MAX_BACKTRACKS + 1):
                trial = u - ALPHA**lbt * v
                nrm = _norm(trial)
                if nrm < 1e-12:
                    continue
                trial = trial / nrm
                h_trial = h_value(data, trial, c0, prior)
                if h_trial > h_cur:
                    cand, h_cand, accepted = trial, h_trial, True
                    break
            if not accepted:
                break
            delta = _norm(cand - u)
            u, h_cur = cand, h_cand
            h_trace.append(h_cur)
            if delta < EPSILON:
                break
        if _norm(u - u_outer) < EPSILON:
            converged = True
            break

    if c0 < 0.0:
        u, c0 = -u, -c0
    return Fit(
        u=u,
        c0=c0,
        spectrum=map_lambda_update(data, u, c0, prior),
        basis=data.completion(u),
        converged=converged,
        outer_iterations=outer_used,
        diagnostics={"h_trace": tuple(h_trace)},
    )
