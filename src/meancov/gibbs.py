"""Posterior sampling for the mean-anchored covariance model.

The prior is multivariate normal on the mean (covariance ``D / kappa0`` with
``D = diag(1, lambda)`` taken componentwise in the ambient coordinates) and
independent inverse gamma on the free eigenvalues.  The eigenvalues then have
an inverse-gamma full conditional, while the mean is updated by a
Metropolis-Hastings step whose Gaussian proposal covariance
``P(mu) diag(1/n, s_1, ..., s_{p-1}) P(mu)^T`` holds, along each column of
the basis, the inverse Fisher information of the likelihood at the current
point (see :func:`_proposal_diag`).

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


def _proposal_diag(data: SampleSet, mu: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Proposal variances along the columns of ``P(mu)``: ``(1/n, s_1, ...)``.

    Each is the inverse Fisher information of the likelihood for a move of
    ``mu`` along that column at fixed ``lambda``.  One observation has
    information ``m^T S^{-1} m + tr(S^{-1} S' S^{-1} S')/2`` about a scalar
    ``t``, where ``m`` and ``S'`` are the derivatives of the mean and of the
    covariance ``S``.  Along ``u = mu/c0`` (``c0 = ||mu||``) the covariance is
    fixed and ``m = u``, so the radial variance is ``1/n``.  Along a tail
    column ``V_i``, ``m = V_i`` gives ``1/lambda_i``; the direction turns as
    ``u' = V_i/c0`` and ``V_i' = -u/c0`` (``V_i`` stays orthogonal to ``u``),
    so ``S' = ((1 - lambda_i)/c0)(u V_i^T + V_i u^T)`` and the trace term is
    ``(lambda_i - 1)^2/(c0^2 lambda_i)``.  Hence::

        s_i = c0^2 lambda_i / (n ((lambda_i - 1)^2 + c0^2))

    which is positive for every nonzero mean and equals ``1/n`` at
    ``lambda_i = 1``, so the radial variance is the same formula at the unit
    eigenvalue and the proposal is isotropic when every ``lambda_i = 1``.
    The completion may also turn the tail columns among themselves as ``u``
    moves; the information that adds depends on the completion, not on the
    model, and is left out.
    """
    c2 = float(mu @ mu)
    eig = np.concatenate(([1.0], lam))
    return c2 * eig / (data.n * ((eig - 1.0) ** 2 + c2))


def _log_q(P: np.ndarray, d: np.ndarray, y: np.ndarray, x: np.ndarray) -> float:
    """Gaussian proposal log density (constants dropped) of y given center x."""
    z = P.T @ (y - x)
    return float(-0.5 * (np.sum(np.log(d)) + np.sum(z**2 / d)))


def _mh_once(data, mu, P, d, lam, lp_cur, prior, rng):
    """One MH update of ``mu`` with basis ``P`` and proposal variances ``d``.

    Returns the new state with its basis and variances.  The forward density
    ``q(mu* | mu)`` is read off the standard normal draw ``z``; the reverse
    density ``q(mu | mu*)`` uses the basis and the variances of ``mu*``,
    which an accepted proposal hands on to the next step.
    """
    z = rng.standard_normal(mu.size)
    mu_star = mu + P @ (np.sqrt(d) * z)
    P_star = _basis(mu_star)
    d_star = _proposal_diag(data, mu_star, lam)
    lp_star = _log_density(data, _hn_diagonal(data, mu_star, P_star, prior), lam, prior)
    log_q_fwd = -0.5 * float(np.sum(np.log(d)) + z @ z)
    log_r = lp_star - lp_cur + _log_q(P_star, d_star, mu, mu_star) - log_q_fwd
    if np.log(rng.uniform()) < log_r:
        return mu_star, P_star, d_star, True, lp_star
    return mu, P, d, False, lp_cur


def mh_step_mu(
    data: SampleSet, state: ChainState, prior: PriorConfig, rng: np.random.Generator
) -> tuple[np.ndarray, bool]:
    """One Metropolis-Hastings update of the mean at fixed eigenvalues.

    The proposal covariance depends on the current point, so the Hastings
    ratio keeps both forward and reverse proposal densities.
    """
    mu = _as_vector(state.mu, "mu")
    d = _proposal_diag(data, mu, state.lam)
    mu_new, _, _, accepted, _ = _mh_once(
        data, mu, _basis(mu), d, state.lam, state.log_posterior, prior, rng
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
    if rng is None:
        rng = np.random.default_rng()

    mu = data.xbar.copy()
    P = _basis(mu)
    states: list[ChainState] = []
    accepted = 0
    for j in range(1, s + 1):
        hn = _hn_diagonal(data, mu, P, prior)
        lam = _draw_lambda(*_lambda_conditional(data, hn, prior), rng)
        lp = _log_density(data, hn, lam, prior)
        d = _proposal_diag(data, mu, lam)
        for _ in range(l):
            mu, P, d, acc, lp = _mh_once(data, mu, P, d, lam, lp, prior, rng)
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
