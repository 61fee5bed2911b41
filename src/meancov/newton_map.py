"""Fast MAP approximation by maximizing a posterior lower bound.

The eigenvalue-dependent log terms of the profiled log posterior are bounded
by constants built from the largest eigenvalue of ``A(0)``, leaving a smooth
surrogate ``h(u)`` of the mean direction at a given radius.  ``h`` is
maximized by Newton steps with backtracking that only accepts increases;
radius and eigenvalues are refreshed from their closed forms between Newton
passes.  The iteration starts from the approximate MLE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gibbs import PriorConfig
from .mle import fit_mle
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


@dataclass(frozen=True)
class NewtonConfig:
    """Step-size and termination controls for the modified Newton iteration."""

    alpha: float = 0.5
    max_backtracks: int = 30
    epsilon: float = 1e-8
    max_outer: int = 100
    max_inner: int = 50

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("backtracking factor alpha must lie in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")


@dataclass(frozen=True)
class MapFit:
    """Result of the lower-bound Newton iteration.

    ``h_trace`` holds the surrogate value after the initial point and every
    accepted update; the acceptance rule makes it non-decreasing.  ``basis``
    is ``build_orthobasis(mean.u)``, carried from the last iterate that
    moved the direction, so :meth:`covariance` completes no basis.
    """

    mean: MeanState
    spectrum: EigenSpectrum
    basis: OrthoBasis = field(repr=False)
    h_trace: list[float]
    outer_iterations: int
    converged: bool

    def covariance(self) -> StructuredCovariance:
        return assemble_sigma(self.basis, self.spectrum)


def _bound_constants(data: SampleSet, prior: PriorConfig) -> np.ndarray:
    """``m_i = lambda_max(A(0)) + (H0)_{i+1,i+1}`` for i = 1..p-1."""
    return data.a0_lambda_max + prior.h0_diag[1:]


def _t(data: SampleSet, prior: PriorConfig) -> float:
    return 0.5 * (data.n + 1.0 + 2.0 * prior.a)


def map_c0_update(data: SampleSet, u, lam, prior: PriorConfig) -> float:
    """Closed-form radius update given direction and eigenvalues.

    ``c0 = (n u^T xbar + kappa0 u^T D^{-1} mu0) / (n + kappa0 u^T D^{-1} u)``
    with ``D = diag(1, lambda)`` acting componentwise in ambient coordinates.
    In the ``kappa0 -> 0`` limit this is the MLE radius ``u^T xbar``.
    """
    u = _as_vector(u, "u")
    dinv = 1.0 / np.concatenate(([1.0], np.asarray(lam, dtype=float)))
    num = data.n * float(u @ data.xbar) + prior.kappa0 * float(u @ (dinv * prior.mu0))
    den = data.n + prior.kappa0 * float(u @ (dinv * u))
    return num / den


def _lambda_update(
    data: SampleSet, basis: OrthoBasis, u: np.ndarray, c0: float, prior: PriorConfig
) -> np.ndarray:
    """Eigenvalue refresh at ``c0 * u``; ``basis`` is ``build_orthobasis(u)``."""
    q = tail_quadratic_forms(data.a0, basis.tail)
    d = c0 * u - prior.mu0
    return (q + prior.kappa0 * d[1:] ** 2 + prior.h0_diag[1:]) / (2.0 * _t(data, prior))


def map_lambda_update(data: SampleSet, mean: MeanState, prior: PriorConfig) -> EigenSpectrum:
    """Closed-form eigenvalue update: trailing diagonal of H_N over ``n+1+2a``.

    Coincides with the mode of the inverse-gamma full conditional of each
    eigenvalue at the same mean.
    """
    basis = build_orthobasis(mean.u)
    return EigenSpectrum(_lambda_update(data, basis, mean.u, mean.c0, prior))


def h_value(data: SampleSet, u, c0: float, prior: PriorConfig) -> float:
    """Posterior lower-bound surrogate of the mean direction at radius ``c0``.

    ``-h = t sum_i log[(m_i + kappa0 ||c0 u - mu0||^2) / (2t)]
          + [u^T A(c0 u) u + kappa0 (c0 u - mu0)_1^2 + m_1] / 2``

    where the subscript 1 picks the first squared component of the prior
    residual, matching the leading diagonal entry of H_N.  Treated as a
    smooth function of ``u`` in ambient coordinates.
    """
    u = _as_vector(u, "u")
    m = _bound_constants(data, prior)
    t = _t(data, prior)
    d = c0 * u - prior.mu0
    g = prior.kappa0 * float(d @ d)
    uu = float(u @ u)
    ux = float(u @ data.xbar)
    quad = float(u @ data.a0 @ u) - 2.0 * data.n * c0 * ux * uu + data.n * c0**2 * uu**2
    neg_h = t * np.sum(np.log((m + g) / (2.0 * t))) + 0.5 * (
        quad + prior.kappa0 * d[0] ** 2 + m[0]
    )
    return float(-neg_h)


def h_gradient(data: SampleSet, u, c0: float, prior: PriorConfig) -> np.ndarray:
    """Exact ambient gradient of :func:`h_value` with respect to ``u``."""
    u = _as_vector(u, "u")
    m = _bound_constants(data, prior)
    t = _t(data, prior)
    d = c0 * u - prior.mu0
    g = prior.kappa0 * float(d @ d)
    s1 = float(np.sum(1.0 / (m + g)))
    uu = float(u @ u)
    ux = float(u @ data.xbar)
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
    u = _as_vector(u, "u")
    p = u.size
    m = _bound_constants(data, prior)
    t = _t(data, prior)
    d = c0 * u - prior.mu0
    g = prior.kappa0 * float(d @ d)
    s1 = float(np.sum(1.0 / (m + g)))
    s2 = float(np.sum(1.0 / (m + g) ** 2))
    uu = float(u @ u)
    ux = float(u @ data.xbar)
    n = data.n
    eye = np.eye(p)
    hess_neg = (
        2.0 * t * prior.kappa0 * c0**2 * (s1 * eye - 2.0 * prior.kappa0 * s2 * np.outer(d, d))
        + data.a0
        - 2.0 * n * c0 * (np.outer(data.xbar, u) + np.outer(u, data.xbar) + ux * eye)
        + 2.0 * n * c0**2 * (2.0 * np.outer(u, u) + uu * eye)
    )
    hess_neg[0, 0] += prior.kappa0 * c0**2
    return -hess_neg


def fit_map_newton(
    data: SampleSet,
    prior: PriorConfig,
    cfg: NewtonConfig | None = None,
    init_mean: MeanState | None = None,
) -> MapFit:
    """Alternate closed-form radius/eigenvalue updates with Newton steps on h.

    Starts from the approximate MLE unless a warm start is supplied.  Each
    Newton direction is backtracked
    (halving by ``alpha``) until the surrogate increases, and the direction
    iterate is renormalized to unit length after every accepted step; a
    singular Hessian falls back to a backtracked gradient-ascent step.  The
    outer loop stops when the direction stops moving or when a radius
    refresh would decrease the surrogate.

    The basis of the direction is completed once per distinct iterate: it is
    taken from the MLE (or completed for the warm start), reused by every
    eigenvalue refresh, and completed again only after an outer iteration
    that moved the direction.
    """
    if cfg is None:
        cfg = NewtonConfig()
    if init_mean is None:
        mle = fit_mle(data)
        start, basis = mle.mean, mle.basis
    else:
        start, basis = init_mean, build_orthobasis(init_mean.u)
    u = start.u.copy()
    c0 = start.c0
    lam = _lambda_update(data, basis, u, c0, prior)
    h_cur = h_value(data, u, c0, prior)
    h_trace = [h_cur]
    converged = False
    outer_used = 0

    for _ in range(cfg.max_outer):
        outer_used += 1
        c0_new = map_c0_update(data, u, lam, prior)
        lam_new = _lambda_update(data, basis, u, c0_new, prior)
        h_new = h_value(data, u, c0_new, prior)
        if h_new < h_cur:
            # The refresh maximizes the exact conditional posterior, not h;
            # keep the previous iterate if it would lower the surrogate.
            converged = True
            break
        c0, lam, h_cur = c0_new, lam_new, h_new
        h_trace.append(h_cur)

        u_outer = u
        for _ in range(cfg.max_inner):
            grad_neg = -h_gradient(data, u, c0, prior)
            hess_neg = -h_hessian(data, u, c0, prior)
            try:
                v = np.linalg.solve(hess_neg, grad_neg)
                if not np.all(np.isfinite(v)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                v = grad_neg / max(1.0, float(np.linalg.norm(grad_neg)))
            accepted = False
            cand = u
            h_cand = h_cur
            for lbt in range(cfg.max_backtracks + 1):
                trial = u - cfg.alpha**lbt * v
                nrm = float(np.linalg.norm(trial))
                if nrm < 1e-12:
                    continue
                trial = trial / nrm
                h_trial = h_value(data, trial, c0, prior)
                if h_trial > h_cur:
                    cand, h_cand, accepted = trial, h_trial, True
                    break
            if not accepted:
                break
            delta = float(np.linalg.norm(cand - u))
            u, h_cur = cand, h_cand
            h_trace.append(h_cur)
            if delta < cfg.epsilon:
                break
        if u is not u_outer:
            basis = build_orthobasis(u)
        if float(np.linalg.norm(u - u_outer)) < cfg.epsilon:
            converged = True
            break

    lam = _lambda_update(data, basis, u, c0, prior)
    mean = MeanState(u=u, c0=c0)
    if not np.array_equal(mean.u, u):
        # Renormalization (or a sign flip for c0 < 0) moved a bit of u;
        # the covariance is anchored at mean.u itself.
        basis = build_orthobasis(mean.u)
    return MapFit(
        mean=mean,
        spectrum=EigenSpectrum(lam),
        basis=basis,
        h_trace=h_trace,
        outer_iterations=outer_used,
        converged=converged,
    )
