"""Posterior sampling for the mean-anchored covariance model.

The prior is multivariate normal on the mean (covariance ``D / kappa0`` with
``D = diag(1, lambda)`` taken componentwise in the ambient coordinates) and
independent inverse gamma on the free eigenvalues.  The eigenvalues then have
an inverse-gamma full conditional, while the mean is updated by a
Metropolis-Hastings step whose Gaussian proposal covariance
``P(mu) diag(1/n, s_1, ..., s_{p-1}) P(mu)^T`` holds, along each column of
the basis, the inverse Fisher information of the likelihood at the current
point (see :func:`_variances`).

Cost model of the sampler: one basis completion per MH proposal and no
scatter rebuild.  The basis ``P(mu*)`` of a proposed state is built once and
serves its log posterior, the reverse proposal density and, if the proposal
is accepted, the next forward step and the next eigenvalue draw.  A state
carries its proposal variances, their log sum, the diagonal of ``H_N`` and
its log posterior, so each is computed once per proposed state; a sweep
computes the eigenvalue terms its steps share (``sum log lambda`` and
``(lambda - 1)^2``) once.  The diagonal of ``H_N`` is read from the cached
``A(0)``, because the tail columns of ``P(mu)`` are orthogonal to ``mu``.
At p = 3 one proposal takes about 45 us at best (x86-64 2-vCPU VM, NumPy
2.4, OpenBLAS on one thread), nearly all of it the fixed cost of a few
dozen calls on 3-vectors; the basis completion is about 13 us of it.  Seeded
chains are reproducible bit for bit, so a step takes a cheaper call
(``.dot`` for ``@``, ``.sum()`` for ``np.sum``) only where it rounds
identically, and no sum is reordered.

A run, :class:`GibbsRun`, keeps its chain as read-only arrays with one row
per sweep (means, eigenvalue draws, log posteriors and running accepted
counts), and :func:`map_from_chain` reads the MAP off them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, EmptyChainError
from .model import Fit, SampleSet, _as_vector, _polar, build_orthobasis, tail_quadratic_forms


@dataclass(frozen=True)
class PriorConfig:
    """Hyperparameters of the mean-eigenvalue prior.

    ``h0_diag`` is the diagonal of the eigenvalue-scale matrix (leading entry
    conventionally one); ``a`` sets the inverse-gamma shape ``a - 1``.
    Every value must be finite.  Degenerate values (``kappa0 = 0``,
    ``h0_diag = 0``) are accepted so that prior-free limits can be exercised.
    """

    mu0: np.ndarray
    kappa0: float
    a: float
    h0_diag: np.ndarray

    def __post_init__(self):
        mu0 = _as_vector(self.mu0, "mu0")
        h0 = _as_vector(self.h0_diag, "h0_diag")
        if mu0.size != h0.size:
            raise DimensionMismatchError("mu0 and h0_diag must have the same length")
        if not all(np.isfinite(v).all() for v in (mu0, self.kappa0, self.a, h0)):
            raise ValueError("prior values mu0, kappa0, a and h0_diag must be finite")
        if self.kappa0 < 0.0:
            raise ValueError("kappa0 must be >= 0")
        if np.any(h0 < 0.0):
            raise ValueError("h0_diag entries must be >= 0")
        mu0 = mu0.copy()
        h0 = h0.copy()
        mu0.setflags(write=False)
        h0.setflags(write=False)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "kappa0", float(self.kappa0))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "h0_diag", h0)

    @classmethod
    def default(cls, data: SampleSet) -> "PriorConfig":
        """Reference hyperparameters: mu0 = xbar, H0 = I, kappa0 = 1.5, a = p + 1."""
        return cls(mu0=data.xbar, kappa0=1.5, a=data.p + 1, h0_diag=np.ones(data.p))


def _basis(mu: np.ndarray) -> np.ndarray:
    """The matrix ``P(mu / ||mu||)`` of the basis anchored at a nonzero mean
    (``ZeroMeanError`` for a zero one)."""
    return build_orthobasis(_polar(mu)[0])


def _hn_diagonal(data: SampleSet, mu: np.ndarray, P: np.ndarray, prior: PriorConfig) -> np.ndarray:
    """Diagonal of ``H_N`` at ``mu`` given its basis ``P``, read from ``A(0)``.

    ``H_N = P^T A(mu) P + kappa0 (mu - mu0)(mu - mu0)^T + H0``, with the
    prior quadratic and ``H0`` added in ambient components, which is the
    convention that makes the trace against ``D^{-1}`` reproduce the
    componentwise normal prior on the mean.

    ``A(mu) = A(0) - n (xbar mu^T + mu xbar^T) + n mu mu^T``, so each entry
    is ``v^T A(0) v + n (v^T mu)(v^T mu - 2 v^T xbar)`` for a column ``v`` of
    ``P``.  The correction vanishes on the tail columns, which are orthogonal
    to ``mu``, and is ``n ||mu|| (||mu|| - 2 u^T xbar)`` on the leading one.
    """
    PT = P.T
    c = PT.dot(mu)
    b = tail_quadratic_forms(data.a0, P) + data.n * c * (c - 2.0 * PT.dot(data.xbar))
    d = mu - prior.mu0
    return b + prior.kappa0 * (d * d) + prior.h0_diag


def _log_lam_term(data: SampleSet, lam: np.ndarray, prior: PriorConfig) -> float:
    """``-((n + 1 + 2a)/2) sum_i log lambda_i``, the part of the log posterior
    that depends on ``lambda`` alone."""
    return -0.5 * (data.n + 1.0 + 2.0 * prior.a) * np.log(lam).sum()


def _log_density(hn: np.ndarray, lam: np.ndarray, lam_term: float) -> float:
    """:func:`log_posterior` from the diagonal ``hn`` of ``H_N`` and the
    :func:`_log_lam_term` of ``lam``."""
    return float(lam_term - 0.5 * (hn[0] + (hn[1:] / lam).sum()))


def _lambda_conditional(data: SampleSet, hn: np.ndarray, prior: PriorConfig):
    """Shape and scales of the eigenvalue full conditional from ``hn``."""
    return 0.5 * (data.n + 2.0 * prior.a - 1.0), 0.5 * hn[1:]


def _lambda_mode(data: SampleSet, hn: np.ndarray, prior: PriorConfig) -> np.ndarray:
    """Mode ``c*_i / (n + 1 + 2a)`` of each eigenvalue's full conditional (``n + 1 + 2a > 0``)."""
    t = data.n + 1.0 + 2.0 * prior.a
    if not t > 0.0:
        raise ValueError(f"n + 1 + 2a must be > 0 for an eigenvalue mode, got {t}")
    return hn[1:] / t


def _draw_lambda(shape: float, scales: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-gamma draws with a common shape and per-coordinate scales."""
    if shape <= 0.0:
        raise ValueError("inverse-gamma shape (n + 2a - 1)/2 must be positive")
    return scales / rng.gamma(shape, 1.0, size=scales.size)


def hn_diagonal(data: SampleSet, mu, prior: PriorConfig) -> np.ndarray:
    """Diagonal of ``H_N`` at ``mu`` (see :func:`_hn_diagonal`)."""
    mu = _as_vector(mu, "mu")
    if mu.size != data.p:
        raise DimensionMismatchError(f"mu has length {mu.size}, expected {data.p}")
    return _hn_diagonal(data, mu, _basis(mu), prior)


def log_posterior(data: SampleSet, mu, lam, prior: PriorConfig) -> float:
    """Unnormalized log posterior density of ``(mu, lambda)``.

    Equals ``-((n + 1 + 2a)/2) sum_i log lambda_i - Tr(D^{-1} H_N) / 2`` with
    ``D = diag(1, lambda)``; the additive constant is fixed at zero.
    """
    lam = _as_vector(lam, "lam")
    if lam.size != data.p - 1:
        raise DimensionMismatchError(f"lambda has length {lam.size}, expected {data.p - 1}")
    return _log_density(hn_diagonal(data, mu, prior), lam, _log_lam_term(data, lam, prior))


def lambda_conditional_params(
    data: SampleSet, mu, prior: PriorConfig
) -> tuple[float, np.ndarray]:
    """Shape and per-coordinate scales of the eigenvalue full conditional.

    Each ``lambda_i`` given the mean is inverse gamma with shape
    ``(n + 2a - 1)/2`` and scale ``c*_i / 2`` where ``c*_i`` is the
    corresponding trailing diagonal entry of ``H_N``.
    """
    return _lambda_conditional(data, hn_diagonal(data, mu, prior), prior)


def draw_lambda_conditional(
    data: SampleSet, mu, prior: PriorConfig, rng: np.random.Generator
) -> np.ndarray:
    """Draw the free eigenvalues from their inverse-gamma full conditional.

    Implemented as the reciprocal of a gamma draw: if
    ``G ~ Gamma(shape, rate=scale)`` then ``1/G`` is inverse gamma with the
    same shape and scale.
    """
    return _draw_lambda(*lambda_conditional_params(data, mu, prior), rng)


def _variances(data: SampleSet, mu: np.ndarray, eig: np.ndarray, gap2: np.ndarray) -> np.ndarray:
    """Proposal variances along the columns of ``P(mu)``: ``(1/n, s_1, ...)``.

    ``eig = (1, lambda)`` and ``gap2 = (eig - 1)^2`` are fixed for a sweep.
    Each variance is the inverse Fisher information of the likelihood for a
    move of ``mu`` along that column at fixed ``lambda``.  One observation
    has information ``m^T S^{-1} m + tr(S^{-1} S' S^{-1} S')/2`` about a
    scalar ``t``, where ``m`` and ``S'`` are the derivatives of the mean and
    of the covariance ``S``.  Along ``u = mu/c0`` (``c0 = ||mu||``) the
    covariance is fixed and ``m = u``, so the radial variance is ``1/n``.
    Along a tail column ``V_i``, ``m = V_i`` gives ``1/lambda_i``; the
    direction turns as ``u' = V_i/c0`` and ``V_i' = -u/c0`` (``V_i`` stays
    orthogonal to ``u``), so ``S' = ((1 - lambda_i)/c0)(u V_i^T + V_i u^T)``
    and the trace term is ``(lambda_i - 1)^2/(c0^2 lambda_i)``.  Hence::

        s_i = c0^2 lambda_i / (n ((lambda_i - 1)^2 + c0^2))

    which is positive for every nonzero mean and equals ``1/n`` at
    ``lambda_i = 1``, so the radial variance is the same formula at the unit
    eigenvalue and the proposal is isotropic when every ``lambda_i = 1``.
    The completion may also turn the tail columns among themselves as ``u``
    moves; the information that adds depends on the completion, not on the
    model, and is left out.
    """
    c2 = float(mu.dot(mu))
    return c2 * eig / (data.n * (gap2 + c2))


def _sweep(data: SampleSet, mu: np.ndarray, P: np.ndarray, hn: np.ndarray, lam: np.ndarray,
           prior: PriorConfig) -> tuple[tuple, tuple]:
    """The terms of a sweep with eigenvalues ``lam`` and the MH state it starts from.

    The terms ``(lam, eig, gap2, lam_term)`` serve every MH step of the
    sweep: ``eig = (1, lam)`` and ``gap2 = (eig - 1)^2`` for
    :func:`_variances`, and the :func:`_log_lam_term` of ``lam``.  The state
    of ``mu``, given its basis ``P`` and the diagonal ``hn`` of ``H_N`` at
    it, is ``(mu, P, d, log_det, hn, log_posterior)`` with the proposal
    variances ``d`` and ``log_det = sum log d``, so that a step reads them
    instead of computing them again.
    """
    eig = np.empty(lam.size + 1)
    eig[0] = 1.0
    eig[1:] = lam
    gap = eig - 1.0
    gap2 = gap * gap
    lam_term = _log_lam_term(data, lam, prior)
    d = _variances(data, mu, eig, gap2)
    state = (mu, P, d, np.log(d).sum(), hn, _log_density(hn, lam, lam_term))
    return (lam, eig, gap2, lam_term), state


def _mh_once(data: SampleSet, state: tuple, sweep: tuple, prior: PriorConfig, rng):
    """One MH update of the mean from a state with the terms of its sweep (see :func:`_sweep`).

    Returns the next state and whether the proposal was accepted.  The
    forward density ``q(mu* | mu)`` is read off the standard normal draw
    ``z``; the reverse density ``q(mu | mu*)`` uses the basis and the
    variances of ``mu*``.  An accepted proposal hands its basis, variances,
    ``log_det``, ``H_N`` diagonal and log posterior on to the next step and
    to the next sweep's eigenvalue draw.
    """
    mu, P, d, log_det, hn, lp = state
    lam, eig, gap2, lam_term = sweep
    z = rng.standard_normal(mu.size)
    mu_star = mu + P.dot(np.sqrt(d) * z)
    P_star = _basis(mu_star)
    d_star = _variances(data, mu_star, eig, gap2)
    log_det_star = np.log(d_star).sum()
    hn_star = _hn_diagonal(data, mu_star, P_star, prior)
    lp_star = _log_density(hn_star, lam, lam_term)
    z_rev = P_star.T.dot(mu - mu_star)
    log_q_rev = float(-0.5 * (log_det_star + (z_rev * z_rev / d_star).sum()))
    log_q_fwd = -0.5 * float(log_det + z.dot(z))
    log_r = lp_star - lp + log_q_rev - log_q_fwd
    if np.log(rng.uniform()) < log_r:
        return (mu_star, P_star, d_star, log_det_star, hn_star, lp_star), True
    return state, False


@dataclass(frozen=True)
class GibbsRun:
    """A collected chain as read-only arrays plus Metropolis-Hastings totals.

    Row ``j`` of each array is the state at the end of sweep ``j + 1``: the
    mean ``mu`` (s x p), the eigenvalue draw ``lam`` (s x (p - 1)), its
    ``log_posterior`` and ``accepted_count``, the number of MH proposals the
    chain had accepted by then.  ``accepted`` and ``proposals`` are the
    totals, as Python ints.
    """

    mu: np.ndarray
    lam: np.ndarray
    log_posterior: np.ndarray
    accepted_count: np.ndarray
    accepted: int
    proposals: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else float("nan")

    def records(self) -> list[dict]:
        """Line-delimited-friendly records of the chain, one per sweep."""
        arrays = (self.mu, self.lam, self.log_posterior, self.accepted_count)
        return [
            {"iteration": j, "mu": mu, "lambda": lam, "log_posterior": lp, "accepted_count": acc}
            for j, (mu, lam, lp, acc) in enumerate(zip(*(a.tolist() for a in arrays)), start=1)
        ]


def run_gibbs(
    data: SampleSet, prior: PriorConfig, s: int, l: int, rng: np.random.Generator
) -> GibbsRun:
    """Metropolis-Hastings within Gibbs sampler for ``(mu, lambda)``.

    Starts at ``mu = xbar``; each of the ``s`` sweeps draws the eigenvalues
    from their full conditional and then applies ``l`` MH updates to the
    mean.  No starting eigenvalues are taken: the first sweep draws them
    before they are used.
    """
    if s < 1:
        raise ValueError("need at least one posterior sample (s >= 1)")
    if l < 1:
        raise ValueError("need at least one inner MH step (l >= 1)")

    mu = data.xbar.copy()
    P = _basis(mu)
    hn = _hn_diagonal(data, mu, P, prior)
    mus = np.empty((s, data.p))
    lams = np.empty((s, data.p - 1))
    lps = np.empty(s)
    counts = np.empty(s, dtype=np.int64)
    accepted = 0
    for j in range(s):
        lam = _draw_lambda(*_lambda_conditional(data, hn, prior), rng)
        sweep, state = _sweep(data, mu, P, hn, lam, prior)
        for _ in range(l):
            state, acc = _mh_once(data, state, sweep, prior, rng)
            accepted += int(acc)
        mu, P, _, _, hn, lp = state
        mus[j], lams[j], lps[j], counts[j] = mu, lam, lp, accepted
    for a in (mus, lams, lps, counts):
        a.setflags(write=False)
    return GibbsRun(mus, lams, lps, counts, accepted=accepted, proposals=s * l)


def map_from_chain(run: GibbsRun, data: SampleSet, prior: PriorConfig) -> Fit:
    """Extract the MAP estimate from posterior draws.

    Keeps the mean of the first highest-posterior state, discards its
    eigenvalue draw, and replaces it with the mode of the eigenvalue full
    conditional at that mean, ``c*_i / (n + 1 + 2a)``.  The mean is
    normalised once into ``u``, and one basis ``P(u)`` serves both the
    diagonal of ``H_N`` and the covariance.
    """
    if not len(run.log_posterior):
        raise EmptyChainError("cannot extract a MAP estimate from an empty chain")
    mu = run.mu[int(np.argmax(run.log_posterior))]
    u, c0 = _polar(mu)
    basis = build_orthobasis(u)
    lam_hat = _lambda_mode(data, _hn_diagonal(data, mu, basis, prior), prior)
    return Fit(u=u, c0=c0, spectrum=lam_hat, basis=basis)
