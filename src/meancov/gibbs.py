"""Posterior sampling for the mean-anchored covariance model.

The prior is multivariate normal on the mean (covariance ``D / kappa0`` with
``D = diag(1, lambda)`` taken componentwise in the ambient coordinates) and
independent inverse gamma on the free eigenvalues.  The eigenvalues then have
an inverse-gamma full conditional, while the mean is updated by a
Metropolis-Hastings step whose Gaussian proposal covariance is the structured
covariance at the current point scaled by ``1/n``.

Cost model of the sampler: one basis completion per MH proposal and no
scatter rebuild.  The basis ``P(mu*)`` of a proposed state is built once and
serves its log posterior, the reverse proposal density and, if the proposal
is accepted, the next forward step and the next eigenvalue draw.  The
diagonal of ``H_N`` is read from the cached ``A(0)``, because the tail
columns of ``P(mu)`` are orthogonal to ``mu``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatchError, EmptyChainError, ZeroMeanError
from .model import EigenSpectrum, MeanState, SampleSet, _as_vector, build_orthobasis

_ZERO_MEAN_TOL = 1e-10


@dataclass(frozen=True)
class PriorConfig:
    """Hyperparameters of the mean-eigenvalue prior.

    ``h0_diag`` is the diagonal of the eigenvalue-scale matrix (leading entry
    conventionally one); ``a`` sets the inverse-gamma shape ``a - 1``.
    Degenerate values (``kappa0 = 0``, ``h0_diag = 0``) are accepted so that
    prior-free limits can be exercised.
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
    def default(cls, data: SampleSet, kappa0: float = 1.5, a: float | None = None) -> "PriorConfig":
        """Reference hyperparameters: mu0 = xbar, H0 = I, kappa0 = 1.5, a = p + 1."""
        if a is None:
            a = data.p + 1
        return cls(mu0=data.xbar, kappa0=kappa0, a=a, h0_diag=np.ones(data.p))


@dataclass(frozen=True)
class ChainState:
    """One collected posterior draw (mean vector, free eigenvalues)."""

    mu: np.ndarray
    lam: np.ndarray
    log_posterior: float
    iteration: int


@dataclass(frozen=True)
class HNMatrix:
    """Posterior scatter analogue; only its diagonal feeds the conditionals."""

    matrix: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix)


def hn_matrix(data: SampleSet, mu, prior: PriorConfig) -> HNMatrix:
    """Assemble ``H_N = B(X, mu) + kappa0 (mu - mu0)(mu - mu0)^T + H0``.

    ``B`` is the scatter about ``mu`` rotated into the basis anchored at
    ``mu / ||mu||``; the prior quadratic and ``H0`` are added in ambient
    components, which is the convention that makes the trace against
    ``D^{-1}`` reproduce the componentwise normal prior on the mean.
    """
    mu = _as_vector(mu, "mu")
    P = _basis(mu)
    A = data.scatter(mu)
    d = mu - prior.mu0
    return HNMatrix(P.T @ A @ P + prior.kappa0 * np.outer(d, d) + np.diag(prior.h0_diag))


def _basis(mu: np.ndarray) -> np.ndarray:
    """The matrix ``P(mu / ||mu||)`` of the basis anchored at a nonzero mean."""
    nrm = float(np.linalg.norm(mu))
    if nrm < _ZERO_MEAN_TOL:
        raise ZeroMeanError("posterior quantities need a nonzero mean vector")
    return build_orthobasis(mu / nrm).matrix


def _hn_diagonal(data: SampleSet, mu: np.ndarray, P: np.ndarray, prior: PriorConfig) -> np.ndarray:
    """Diagonal of ``H_N`` at ``mu`` given its basis ``P``, read from ``A(0)``.

    ``A(mu) = A(0) - n (xbar mu^T + mu xbar^T) + n mu mu^T``, so each entry
    is ``v^T A(0) v + n (v^T mu)(v^T mu - 2 v^T xbar)`` for a column ``v`` of
    ``P``.  The correction vanishes on the tail columns, which are orthogonal
    to ``mu``, and is ``n ||mu|| (||mu|| - 2 u^T xbar)`` on the leading one.
    """
    c = P.T @ mu
    b = np.sum(P * (data.a0 @ P), axis=0) + data.n * c * (c - 2.0 * (P.T @ data.xbar))
    d = mu - prior.mu0
    return b + prior.kappa0 * d**2 + prior.h0_diag


def _log_density(data: SampleSet, hn: np.ndarray, lam: np.ndarray, prior: PriorConfig) -> float:
    """:func:`log_posterior` from the diagonal ``hn`` of ``H_N``."""
    t2 = data.n + 1.0 + 2.0 * prior.a
    return float(-0.5 * t2 * np.sum(np.log(lam)) - 0.5 * (hn[0] + np.sum(hn[1:] / lam)))


def _lambda_conditional(data: SampleSet, hn: np.ndarray, prior: PriorConfig):
    """Shape and scales of the eigenvalue full conditional from ``hn``."""
    return 0.5 * (data.n + 2.0 * prior.a - 1.0), 0.5 * hn[1:]


def _draw_lambda(shape: float, scales: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-gamma draws with a common shape and per-coordinate scales."""
    if shape <= 0.0:
        raise ValueError("inverse-gamma shape (n + 2a - 1)/2 must be positive")
    return scales / rng.gamma(shape, 1.0, size=scales.size)


def hn_diagonal(data: SampleSet, mu, prior: PriorConfig) -> np.ndarray:
    """Diagonal of :func:`hn_matrix` without forming the full matrix."""
    mu = _as_vector(mu, "mu")
    P = _basis(mu)
    if mu.size != data.p:
        raise DimensionMismatchError(f"mu has length {mu.size}, expected {data.p}")
    return _hn_diagonal(data, mu, P, prior)


def log_posterior(data: SampleSet, mu, lam, prior: PriorConfig) -> float:
    """Unnormalized log posterior density of ``(mu, lambda)``.

    Equals ``-((n + 1 + 2a)/2) sum_i log lambda_i - Tr(D^{-1} H_N) / 2`` with
    ``D = diag(1, lambda)``; the additive constant is fixed at zero.
    """
    lam = _as_vector(lam, "lam")
    if lam.size != data.p - 1:
        raise DimensionMismatchError(f"lambda has length {lam.size}, expected {data.p - 1}")
    return _log_density(data, hn_diagonal(data, mu, prior), lam, prior)


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


def _proposal_diag(data: SampleSet, lam: np.ndarray) -> np.ndarray:
    """Diagonal of the proposal covariance ``P diag(1, lambda)/n P^T``."""
    return np.concatenate(([1.0], lam)) / data.n


def _log_q(P: np.ndarray, d: np.ndarray, y: np.ndarray, x: np.ndarray) -> float:
    """Gaussian proposal log density (constants dropped) of y given center x."""
    z = P.T @ (y - x)
    return float(-0.5 * (np.sum(np.log(d)) + np.sum(z**2 / d)))


def _mh_once(data, mu, P, lam, lp_cur, prior, rng):
    """One MH update of ``mu`` with basis ``P``; returns the state and its basis."""
    d = _proposal_diag(data, lam)
    mu_star = mu + P @ (np.sqrt(d) * rng.standard_normal(mu.size))
    P_star = _basis(mu_star)
    lp_star = _log_density(data, _hn_diagonal(data, mu_star, P_star, prior), lam, prior)
    log_r = lp_star - lp_cur + _log_q(P_star, d, mu, mu_star) - _log_q(P, d, mu_star, mu)
    if np.log(rng.uniform()) < log_r:
        return mu_star, P_star, True, lp_star
    return mu, P, False, lp_cur


def mh_step_mu(
    data: SampleSet, state: ChainState, prior: PriorConfig, rng: np.random.Generator
) -> tuple[np.ndarray, bool]:
    """One Metropolis-Hastings update of the mean at fixed eigenvalues.

    The proposal covariance depends on the current point, so the Hastings
    ratio keeps both forward and reverse proposal densities.
    """
    mu = _as_vector(state.mu, "mu")
    mu_new, _, accepted, _ = _mh_once(
        data, mu, _basis(mu), state.lam, state.log_posterior, prior, rng
    )
    return mu_new, accepted


@dataclass(frozen=True)
class GibbsRun:
    """Collected chain plus Metropolis-Hastings acceptance bookkeeping."""

    states: list[ChainState]
    accepted: int
    proposals: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else float("nan")

    def records(self) -> list[dict]:
        """Line-delimited-friendly records of the chain."""
        return [
            {
                "iteration": s.iteration,
                "mu": list(s.mu),
                "lambda": list(s.lam),
                "log_posterior": s.log_posterior,
                "accepted_count": self.accepted,
            }
            for s in self.states
        ]


def run_gibbs(
    data: SampleSet,
    prior: PriorConfig,
    s: int = 100,
    l: int = 5,
    rng: np.random.Generator | None = None,
    lambda0=None,
) -> GibbsRun:
    """Metropolis-Hastings within Gibbs sampler for ``(mu, lambda)``.

    Starts at ``mu = xbar``; each of the ``s`` sweeps draws the eigenvalues
    from their full conditional and then applies ``l`` MH updates to the
    mean.  ``lambda0`` is accepted but has no effect: the first sweep
    overwrites it before the eigenvalues are ever used.
    """
    if s < 1:
        raise ValueError("need at least one posterior sample (s >= 1)")
    if l < 1:
        raise ValueError("need at least one inner MH step (l >= 1)")
    if rng is None:
        rng = np.random.default_rng()
    if lambda0 is not None and _as_vector(lambda0, "lambda0").size != data.p - 1:
        raise DimensionMismatchError("lambda0 must have length p - 1")

    mu = data.xbar.copy()
    P = _basis(mu)
    states: list[ChainState] = []
    accepted = 0
    for j in range(1, s + 1):
        hn = _hn_diagonal(data, mu, P, prior)
        lam = _draw_lambda(*_lambda_conditional(data, hn, prior), rng)
        lp = _log_density(data, hn, lam, prior)
        for _ in range(l):
            mu, P, acc, lp = _mh_once(data, mu, P, lam, lp, prior, rng)
            accepted += int(acc)
        states.append(ChainState(mu=mu.copy(), lam=lam, log_posterior=lp, iteration=j))
    return GibbsRun(states=states, accepted=accepted, proposals=s * l)


def map_from_chain(
    chain: list[ChainState], data: SampleSet, prior: PriorConfig
) -> tuple[MeanState, EigenSpectrum]:
    """Extract the MAP estimate from posterior draws.

    Keeps the mean of the highest-posterior state, discards its eigenvalue
    draw, and replaces it with the mode of the eigenvalue full conditional
    at that mean, ``c*_i / (n + 1 + 2a)``.
    """
    if not chain:
        raise EmptyChainError("cannot extract a MAP estimate from an empty chain")
    best = max(chain, key=lambda st: st.log_posterior)
    cstar = hn_diagonal(data, best.mu, prior)[1:]
    lam_hat = cstar / (data.n + 1.0 + 2.0 * prior.a)
    return MeanState.from_vector(best.mu), EigenSpectrum(lam_hat)
