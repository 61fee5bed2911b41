"""Posterior sampling for the mean-anchored covariance model.

The prior is multivariate normal on the mean (covariance ``D / kappa0`` with
``D = diag(1, lambda)`` taken componentwise in the ambient coordinates) and
independent inverse gamma on the free eigenvalues.  The eigenvalues then have
an inverse-gamma full conditional, while the mean is updated by a
Metropolis-Hastings step whose Gaussian proposal covariance
``P(mu) diag(1/n, s_1, ..., s_{p-1}) P(mu)^T`` holds, along each column of
the basis, the inverse Fisher information of the likelihood at the current
point (see :func:`_variances`).  The completion ``P(mu)`` is the data's
frame, ``SampleSet.frame = P(u_hat)`` at the MLE direction ``u_hat``,
carried to ``mu / ||mu||`` (:meth:`meancov.model.SampleSet.completion`): it is
continuous but at ``-u_hat``, and the posterior depends on the data through
``u_hat``, as the default prior's ``mu0 = xbar`` does.  The Newton MAP uses
the same completion.

Cost model of the sampler: no basis completion and no p x p product per MH
proposal.  The updates run in the frame's coordinates (:class:`_FrameKernel`),
where the basis of a state is a rank-one update of the identity, so the
forward step, the reverse proposal density and the tail quadratic forms take
O(p) work past one matrix-vector product, and the ambient mean the prior
terms read takes one more.  A state carries its point (coordinates,
geometry, ``H_N`` diagonal), its proposal variances, their log sum and its
log posterior, so each is computed once per proposed state; a sweep computes
the eigenvalue terms its steps share once.  One proposal takes 25-30 us at
best at p = 3 to 50 (x86-64 2-vCPU VM, NumPy 2.4, OpenBLAS on one thread),
nearly all of it the fixed cost of about fifty NumPy calls on short vectors;
a modified Gram-Schmidt completion per proposal took about 45 us at p = 3
and grew as p^3.  Seeded chains are reproducible bit for bit, and they make
every accept decision of the same sampler taken in ambient coordinates with
explicit bases, with states equal to rounding.

A run, :class:`GibbsRun`, keeps its chain as read-only arrays with one row
per sweep (means, eigenvalue draws, log posteriors and running accepted
counts), and :func:`map_from_chain` reads the MAP off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionMismatchError, EmptyChainError, ZeroMeanError
from .model import (
    UNIT_TOL,
    Fit,
    SampleSet,
    _as_vector,
    _polar,
    tail_quadratic_forms,
)


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


def _lambda_shape(data: SampleSet, prior: PriorConfig) -> float:
    """Shape ``(n + 2a - 1)/2`` of each eigenvalue's full conditional."""
    return 0.5 * (data.n + 2.0 * prior.a - 1.0)


def _lambda_conditional(data: SampleSet, hn: np.ndarray, prior: PriorConfig):
    """Shape and scales of the eigenvalue full conditional from ``hn``."""
    return _lambda_shape(data, prior), 0.5 * hn[1:]


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
    """Diagonal of ``H_N`` at a nonzero ``mu`` in the data's completion of its
    direction (see :func:`_hn_diagonal`; ``ZeroMeanError`` at a zero mean)."""
    mu = _as_vector(mu, "mu")
    if mu.size != data.p:
        raise DimensionMismatchError(f"mu has length {mu.size}, expected {data.p}")
    return _hn_diagonal(data, mu, data.completion(_polar(mu)[0]), prior)


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


def _variances(n: int, c2: float, eig: np.ndarray, gap2: np.ndarray) -> np.ndarray:
    """Proposal variances along the columns of ``P(mu)``: ``(1/n, s_1, ...)``.

    ``c2 = ||mu||^2``; ``eig = (1, lambda)`` and ``gap2 = (eig - 1)^2`` are
    fixed for a sweep.
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
    return eig / ((gap2 + c2) * (n / c2))


def _sweep(data: SampleSet, lam: np.ndarray, prior: PriorConfig) -> tuple:
    """The terms ``(lam, eig, gap2, lam_term, 1 / lam)`` every MH step of a
    sweep with eigenvalues ``lam`` shares: ``eig = (1, lam)`` and
    ``gap2 = (eig - 1)^2`` for :func:`_variances`, and the
    :func:`_log_lam_term` of ``lam``."""
    eig = np.empty(lam.size + 1)
    eig[0] = 1.0
    eig[1:] = lam
    gap = eig - 1.0
    return lam, eig, gap * gap, _log_lam_term(data, lam, prior), 1.0 / lam


class _Point(NamedTuple):
    """A point of :class:`_FrameKernel`: its frame coordinates ``(m0, mt)``,
    its geometry ``(c, s, b)``, ``c2 = ||m||^2``, the ambient mean ``mu`` and
    the diagonal of ``H_N`` split as leading entry ``hn0`` and tail ``hnt``."""

    m0: float
    mt: np.ndarray
    c: float
    s: float
    b: np.ndarray
    c2: float
    mu: np.ndarray
    hn0: float
    hnt: np.ndarray


class _State(NamedTuple):
    """An MH state of :class:`_FrameKernel`: its point, the proposal variances
    ``d`` of the sweep's eigenvalues, ``log_det = sum log d`` and the log
    posterior ``lp``."""

    point: _Point
    d: np.ndarray
    log_det: float
    lp: float


class _FrameKernel:
    """The MH update of the mean, in the coordinates of the data's frame ``F``.

    A mean ``mu`` is carried as ``m = F^T mu``, split into its leading
    coordinate ``m0`` (a float) and its tail ``mt``.  In these coordinates
    the completion of ``u = m / ||m||`` is the frame carried to ``u``
    (:func:`meancov.model.transport_frame`)::

        F^T P(u) = [u | E + a b^T],   u = (c, s b),   a = (-s, (c - 1) b)

    with ``E`` the last ``p - 1`` columns of the identity, ``b`` the unit
    tail of ``u`` and ``s`` its norm, so ``u`` and ``a`` lie in the plane of
    ``e_0`` and ``w = (0, b)``.  Every product with the basis is then a
    rank-one update: the forward step ``P z``, the reverse ``P^T (mu - mu*)``
    and the tail quadratic forms of ``A~ = F^T A(0) F``,
    ``diag(A~)_i + 2 b_i (A~ a)_i + b_i^2 a^T A~ a``, which read ``A~`` only
    through its leading column and ``A~ w``.  No p x p matrix is formed per
    proposal; ``A~``, ``F^T xbar`` and the columns of ``F`` are formed once
    per run.  The ambient mean ``F m`` is formed per state, for the prior
    terms of ``H_N`` and for the chain.  Points are :class:`_Point` and MH
    states :class:`_State`.
    """

    def __init__(self, data: SampleSet, prior: PriorConfig):
        F = data.frame
        At = F.T.dot(data.a0).dot(F)
        xt = F.T.dot(data.xbar)
        h0 = prior.h0_diag
        self.n = data.n
        self.a00 = float(At[0, 0])
        self.a_col = At[1:, 0].copy()
        # A~ w and b^T (F^T xbar)_tail from one product with b.
        self.a_w = np.vstack([At[:, 1:], xt[1:]])
        self.a_diag = At.diagonal()[1:] + h0[1:]  # H0 is added with the tail forms
        self.h00 = float(h0[0])
        self.x0, self.x_tail = float(xt[0]), xt[1:].copy()
        self.f0, self.f_tail = F[:, 0].copy(), np.ascontiguousarray(F[:, 1:])
        self.mu0, self.kappa0 = prior.mu0, prior.kappa0

    def point(self, m0: float, mt: np.ndarray) -> _Point:
        """The point at frame coordinates ``(m0, mt)`` (``ZeroMeanError`` at a zero mean)."""
        nt2 = float(mt.dot(mt))
        c2 = m0 * m0 + nt2
        c0 = math.sqrt(c2)
        if c0 < UNIT_TOL:
            raise ZeroMeanError("cannot factor a zero mean vector into c0 * u")
        nt = math.sqrt(nt2)
        c, s = m0 / c0, nt / c0
        b = mt / nt if nt else mt
        g = self.a_w.dot(b)
        g0, bx, gt = float(g[0]), float(g[-1]), g[1:-1]  # g[:-1] = A~ w
        kap = float(b.dot(gt))  # w^T A~ w
        c1 = c - 1.0
        q0 = c * c * self.a00 + 2.0 * c * s * g0 + s * s * kap  # u^T A~ u
        a_a = s * s * self.a00 - 2.0 * s * c1 * g0 + c1 * c1 * kap  # a^T A~ a
        # (A~ a)_tail = (c - 1) (A~ w)_tail - s A~_tail,0
        tail = self.a_diag + b * ((2.0 * c1) * gt - (2.0 * s) * self.a_col + a_a * b)
        mu = self.f_tail.dot(mt) + m0 * self.f0
        dm = mu - self.mu0
        kd = self.kappa0 * (dm * dm)
        ux = c * self.x0 + s * bx
        hn0 = q0 + self.n * c0 * (c0 - 2.0 * ux) + float(kd[0]) + self.h00
        return _Point(m0, mt, c, s, b, c2, mu, hn0, tail + kd[1:])

    def state(self, pt: _Point, sweep: tuple) -> _State:
        """The MH state of the point ``pt`` under the sweep terms ``sweep`` (see :func:`_sweep`)."""
        lam, eig, gap2, lam_term, inv_lam = sweep
        d = _variances(self.n, pt.c2, eig, gap2)
        lp = lam_term - 0.5 * (pt.hn0 + float(pt.hnt.dot(inv_lam)))
        return _State(pt, d, math.fsum(np.log(d).tolist()), lp)

    def step(self, state: _State, sweep: tuple, rng) -> tuple[_State, bool]:
        """One MH update from ``state``; returns the next state and whether the proposal
        was accepted.

        The forward density ``q(mu* | mu)`` is read off the standard normal
        draw ``z``; the reverse density ``q(mu | mu*)`` uses the basis and
        the variances of ``mu*``.  An accepted proposal hands its point,
        variances and log posterior on to the next step and to the next
        sweep's eigenvalue draw.
        """
        pt = state.point
        m0, mt, c, s, b = pt.m0, pt.mt, pt.c, pt.s, pt.b
        z = rng.standard_normal(mt.size + 1)
        y = np.sqrt(state.d) * z
        y0, yt = float(y[0]), y[1:]
        k = float(b.dot(yt))  # the step P y is y0 u + (0, yt) + (b^T yt) a
        new = self.state(self.point(m0 + y0 * c - s * k, mt + yt + (y0 * s + (c - 1.0) * k) * b),
                         sweep)
        ps, ds = new.point, new.d
        d0, dt = m0 - ps.m0, mt - ps.mt  # z_rev = P*^T (m - m*), by the same structure
        k = float(ps.b.dot(dt))
        z0 = ps.c * d0 + ps.s * k
        zt = dt + ((ps.c - 1.0) * k - ps.s * d0) * ps.b
        log_q_rev = -0.5 * (new.log_det + z0 * z0 / float(ds[0]) + float(zt.dot(zt / ds[1:])))
        log_q_fwd = -0.5 * (state.log_det + float(z.dot(z)))
        v = rng.random()
        if v == 0.0 or math.log(v) < new.lp - state.lp + log_q_rev - log_q_fwd:
            return new, True
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
    before they are used.  The updates run in the coordinates of the data's
    frame (see :class:`_FrameKernel`); the chain holds the ambient means.
    """
    if s < 1:
        raise ValueError("need at least one posterior sample (s >= 1)")
    if l < 1:
        raise ValueError("need at least one inner MH step (l >= 1)")

    kern = _FrameKernel(data, prior)
    pt = kern.point(kern.x0, kern.x_tail)
    shape = _lambda_shape(data, prior)
    mus = np.empty((s, data.p))
    lams = np.empty((s, data.p - 1))
    lps = np.empty(s)
    counts = np.empty(s, dtype=np.int64)
    accepted = 0
    for j in range(s):
        lam = _draw_lambda(shape, 0.5 * pt.hnt, rng)
        sweep = _sweep(data, lam, prior)
        state = kern.state(pt, sweep)
        for _ in range(l):
            state, acc = kern.step(state, sweep, rng)
            accepted += acc
        pt = state.point
        mus[j], lams[j], lps[j], counts[j] = pt.mu, lam, state.lp, accepted
    for a in (mus, lams, lps, counts):
        a.setflags(write=False)
    return GibbsRun(mus, lams, lps, counts, accepted=accepted, proposals=s * l)


def map_from_chain(run: GibbsRun, data: SampleSet, prior: PriorConfig) -> Fit:
    """Extract the MAP estimate from posterior draws.

    Keeps the mean of the first highest-posterior state, discards its
    eigenvalue draw, and replaces it with the mode of the eigenvalue full
    conditional at that mean, ``c*_i / (n + 1 + 2a)``.  The mean is
    normalised once into ``u``, and one basis ``P(u)``, the data's frame
    carried to ``u``, serves both the diagonal of ``H_N`` and the covariance.
    """
    if not len(run.log_posterior):
        raise EmptyChainError("cannot extract a MAP estimate from an empty chain")
    mu = run.mu[int(np.argmax(run.log_posterior))]
    u, c0 = _polar(mu)
    basis = data.completion(u)
    lam_hat = _lambda_mode(data, _hn_diagonal(data, mu, basis, prior), prior)
    return Fit(u=u, c0=c0, spectrum=lam_hat, basis=basis)
