"""Posterior sampling for the mean-anchored covariance model.

The prior is multivariate normal on the mean (covariance ``D / kappa0`` with
``D = diag(1, lambda)`` taken componentwise in the ambient coordinates) and
independent inverse gamma on the free eigenvalues.  The eigenvalues then have
an inverse-gamma full conditional, while the mean is updated by a
Metropolis-Hastings step whose Gaussian proposal covariance
``P(mu) diag(1/n, s_1, ..., s_{p-1}) P(mu)^T`` holds, along each column of
the basis, the inverse Fisher information of the likelihood at the current
point (see :func:`_variances`).  The completion ``P(mu)`` is the data's
frame ``P(u_hat)`` carried to ``mu / ||mu||``
(:meth:`meancov.model.SampleSet.completion`), as in the Newton MAP.

One private object, :class:`_Posterior`, assembles ``H_N``'s diagonal with
its prior terms and the log density, for the sampler as for the public
helpers, :func:`map_from_chain` and the Newton refreshes: one rank-one
formula on the frame's statistics (``SampleSet._forms``), O(p^2) with no
basis formed.  The MH updates run in the frame's coordinates, so a proposal
takes two matrix-vector products and O(p) work; the eigenvalue terms are
computed once per sweep.  One proposal takes 25-30 us at best at
p = 3 to 50 (x86-64 2-vCPU VM, NumPy 2.4, OpenBLAS on one thread), nearly
all of it the fixed cost of about fifty NumPy calls on short vectors.
Seeded chains are reproducible bit for bit.  A run, :class:`GibbsRun`,
keeps its chain as read-only arrays, and :func:`map_from_chain` reads the
MAP off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import EmptyChainError
from .model import Fit, SampleSet, _as_vector, _frame_geometry, _polar, _Record

# The sampler's proposal variances square (lambda_i - 1) and Newton's Hessian
# its bound constants, so the entries of H_N's diagonal and of each eigenvalue
# draw, all >= 0, must sum to less than the square root of the largest float.
_SCALE_MAX = math.sqrt(float(np.finfo(float).max))


@dataclass(frozen=True, eq=False)
class PriorConfig(_Record):
    """Hyperparameters of the mean-eigenvalue prior.

    ``h0_diag`` is the diagonal of the eigenvalue-scale matrix (leading entry
    conventionally one); ``a`` sets the inverse-gamma shape ``a - 1``.
    Every value must be finite, and the arrays are read-only.  Degenerate
    values (``kappa0 = 0``, ``h0_diag = 0``) are accepted so that prior-free
    limits can be exercised.
    """

    mu0: np.ndarray
    kappa0: float
    a: float
    h0_diag: np.ndarray

    def __post_init__(self):
        mu0 = _as_vector(self.mu0, "mu0")
        h0 = _as_vector(self.h0_diag, "h0_diag", mu0.size)
        if not all(np.isfinite(v).all() for v in (mu0, self.kappa0, self.a, h0)):
            raise ValueError("prior values mu0, kappa0, a and h0_diag must be finite")
        if self.kappa0 < 0.0:
            raise ValueError("kappa0 must be >= 0")
        if np.any(h0 < 0.0):
            raise ValueError("h0_diag entries must be >= 0")
        super().__post_init__(mu0=mu0, kappa0=float(self.kappa0), a=float(self.a), h0_diag=h0)

    @classmethod
    def default(cls, data: SampleSet) -> "PriorConfig":
        """Reference hyperparameters: mu0 = xbar, H0 = I, kappa0 = 1.5, a = p + 1."""
        return cls(mu0=data.xbar, kappa0=1.5, a=data.p + 1, h0_diag=np.ones(data.p))


def _check_prior(data: SampleSet, prior: PriorConfig) -> None:
    """``DimensionMismatchError`` unless the prior's ``mu0`` and ``h0_diag`` have length p."""
    _as_vector(prior.mu0, "the prior's mu0", data.p)


def _check_scale(x: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless the entries of ``x`` sum to below ``_SCALE_MAX`` (NaN fails)."""
    total = sum(x.tolist())
    if not total < _SCALE_MAX:
        raise ValueError(f"the posterior overflows: {what} sums to {total:.3g}, not below "
                         f"{_SCALE_MAX:.3g}; kappa0 or H0 is too large for these data")


def _draw_lambda(shape: float, scales: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-gamma draws with a common shape and per-coordinate scales."""
    if shape <= 0.0:
        raise ValueError("inverse-gamma shape (n + 2a - 1)/2 must be positive")
    return scales / rng.gamma(shape, 1.0, size=scales.size)


def hn_diagonal(data: SampleSet, mu, prior: PriorConfig) -> np.ndarray:
    """Diagonal of ``H_N`` at a nonzero ``mu`` in the data's completion of its
    direction (see :meth:`_Posterior.hn`; ``ZeroMeanError`` at a zero mean)."""
    return _Posterior(data, prior).hn(*_polar(_as_vector(mu, "mu", data.p)))


def log_posterior(data: SampleSet, mu, lam, prior: PriorConfig) -> float:
    """Unnormalized log posterior density of ``(mu, lambda)``.

    Equals ``-((n + 1 + 2a)/2) sum_i log lambda_i - Tr(D^{-1} H_N) / 2`` with
    ``D = diag(1, lambda)``; the additive constant is fixed at zero.
    """
    lam = _as_vector(lam, "lam", data.p - 1)
    post = _Posterior(data, prior)
    hn = post.hn(*_polar(_as_vector(mu, "mu", data.p)))
    return post.log_density(hn[0], hn[1:], post.sweep(lam))


def lambda_conditional_params(
    data: SampleSet, mu, prior: PriorConfig
) -> tuple[float, np.ndarray]:
    """Shape and per-coordinate scales of the eigenvalue full conditional.

    Each ``lambda_i`` given the mean is inverse gamma with shape
    ``(n + 2a - 1)/2`` and scale ``c*_i / 2`` where ``c*_i`` is the
    corresponding trailing diagonal entry of ``H_N``.
    """
    post = _Posterior(data, prior)
    return post.shape, 0.5 * post.hn(*_polar(_as_vector(mu, "mu", data.p)))[1:]


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


class _Point(NamedTuple):
    """A point of :class:`_Posterior`: its frame coordinates ``(m0, mt)``,
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
    """An MH state of :class:`_Posterior`: its point, the proposal variances
    ``d`` of the sweep's eigenvalues, ``log_det = sum log d`` and the log
    posterior ``lp``."""

    point: _Point
    d: np.ndarray
    log_det: float
    lp: float


class _Posterior:
    """The posterior of ``(mu, lambda)`` given the data under the prior: the one
    assembly of ``H_N``'s diagonal, its prior terms and the log density.

    ``H_N = P^T A(mu) P + kappa0 (mu - mu0)(mu - mu0)^T + H0`` in the data's
    completion ``P`` of the mean's direction.  The data's part is read off
    the frame's statistics (``model._FrameForms``), into whose tail forms
    ``H0``'s tail is folded once; :meth:`_diagonal`, which :meth:`hn` and
    :meth:`point` call, adds the other prior terms in ambient components
    (the componentwise normal prior on the mean).

    The MH update of the mean runs in the frame's coordinates: a mean is
    carried as ``m = F^T mu = (m0, mt)``, and the completion of
    ``u = m / ||m||`` is ``F^T P(u) = [u | E + a b^T]`` with ``u = (c, s b)``
    and ``a = (-s, (c - 1) b)``, so the forward step ``P z``, the reverse
    ``P^T (mu - mu*)`` and the diagonal of ``P^T A(mu) P`` are rank-one
    updates.  Points are :class:`_Point` and MH states :class:`_State`.
    """

    def __init__(self, data: SampleSet, prior: PriorConfig):
        _check_prior(data, prior)
        F, forms, h0 = data.frame, data._forms, prior.h0_diag
        self.data = data
        self.forms = forms._replace(a_diag=forms.a_diag + h0[1:])
        self.h00 = float(h0[0])
        self.f0, self.f_tail = F[:, 0].copy(), np.ascontiguousarray(F[:, 1:])
        self.mu0, self.kappa0 = prior.mu0, prior.kappa0
        self.t = data.n + 1.0 + 2.0 * prior.a
        self.shape = 0.5 * (data.n + 2.0 * prior.a - 1.0)  # of each eigenvalue's conditional

    def _diagonal(self, c, s, b, c0, mu) -> tuple[float, np.ndarray]:
        """The leading entry and the tail of ``H_N``'s diagonal at the mean ``mu`` of
        radius ``c0 >= 0``, whose direction has frame coordinates ``(c, s b)``."""
        hn0, tail = self.forms.diagonal(c, s, b, c0)
        dm = mu - self.mu0
        kd = self.kappa0 * (dm * dm)
        return hn0 + float(kd[0]) + self.h00, tail + kd[1:]

    def hn(self, u: np.ndarray, c0: float) -> np.ndarray:
        """Diagonal of ``H_N`` at the mean ``c0 u`` in the data's completion of its
        direction, ``-u`` where ``c0 < 0`` (:meth:`SampleSet._geometry`); an
        overflow raises ``ValueError``, with no warning."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            hn0, tail = self._diagonal(*self.data._geometry(u, c0), c0 * u)
        hn = np.concatenate(([hn0], tail))
        _check_scale(hn, "H_N's diagonal")
        return hn

    def mode(self, hn: np.ndarray) -> np.ndarray:
        """Mode ``c*_i / (n + 1 + 2a)`` of each eigenvalue's full conditional at the
        diagonal ``hn`` of ``H_N`` (``n + 1 + 2a > 0``)."""
        if not self.t > 0.0:
            raise ValueError(f"n + 1 + 2a must be > 0 for an eigenvalue mode, got {self.t}")
        return hn[1:] / self.t

    def sweep(self, lam: np.ndarray) -> tuple:
        """The terms ``(eig, gap2, lam_term, 1 / lam)`` every state of a sweep with
        eigenvalues ``lam`` shares: ``eig = (1, lam)`` and ``gap2 = (eig - 1)^2`` for
        :func:`_variances`, and ``lam_term = -((n + 1 + 2a)/2) sum_i log lambda_i``."""
        eig = np.concatenate(([1.0], lam))
        gap = eig - 1.0
        return eig, gap * gap, -0.5 * self.t * np.log(lam).sum(), 1.0 / lam

    def log_density(self, hn0: float, hnt: np.ndarray, sweep: tuple) -> float:
        """:func:`log_posterior` from the leading entry ``hn0`` and the tail ``hnt`` of
        ``H_N``'s diagonal and the :meth:`sweep` terms of ``lambda``."""
        _, _, lam_term, inv_lam = sweep
        return float(lam_term - 0.5 * (hn0 + float(hnt.dot(inv_lam))))

    def point(self, m0: float, mt: np.ndarray) -> _Point:
        """The point at frame coordinates ``(m0, mt)`` (``ZeroMeanError`` at a zero mean)."""
        c0, c, s, b = _frame_geometry(m0, mt)
        mu = self.f_tail.dot(mt) + m0 * self.f0
        return _Point(m0, mt, c, s, b, c0 * c0, mu, *self._diagonal(c, s, b, c0, mu))

    def state(self, pt: _Point, sweep: tuple) -> _State:
        """The MH state of the point ``pt`` under the :meth:`sweep` terms ``sweep``."""
        d = _variances(self.data.n, pt.c2, *sweep[:2])
        return _State(pt, d, math.fsum(np.log(d).tolist()), self.log_density(pt.hn0, pt.hnt, sweep))

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


@dataclass(frozen=True, eq=False)
class GibbsRun(_Record):
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
    frame (see :class:`_Posterior`); the chain holds the ambient means.  Data
    whose sample mean is zero (norm below ``UNIT_TOL``) have no start point
    and raise ``ZeroMeanError``.
    """
    if s < 1:
        raise ValueError("need at least one posterior sample (s >= 1)")
    if l < 1:
        raise ValueError("need at least one inner MH step (l >= 1)")

    post = _Posterior(data, prior)
    mus = np.empty((s, data.p))
    lams = np.empty((s, data.p - 1))
    lps = np.empty(s)
    counts = np.empty(s, dtype=np.int64)
    accepted = 0
    # A proposal that overflows has no finite log posterior and is rejected;
    # the eigenvalue draw, which every state of a sweep squares, is checked
    # once per sweep.
    with np.errstate(over="ignore", invalid="ignore"):
        pt = post.point(post.forms.x0, post.forms.x_tail)
        for j in range(s):
            lam = _draw_lambda(post.shape, 0.5 * pt.hnt, rng)
            _check_scale(lam, "an eigenvalue draw")
            sweep = post.sweep(lam)
            state = post.state(pt, sweep)
            for _ in range(l):
                state, acc = post.step(state, sweep, rng)
                accepted += acc
            pt = state.point
            mus[j], lams[j], lps[j], counts[j] = pt.mu, lam, state.lp, accepted
    return GibbsRun(mus, lams, lps, counts, accepted=accepted, proposals=s * l)


def map_from_chain(run: GibbsRun, data: SampleSet, prior: PriorConfig) -> Fit:
    """Extract the MAP estimate from posterior draws.

    Keeps the mean of the first state with the highest *joint* log posterior
    of ``(mu, lambda)``, the chain's own values (no state is evaluated
    again), and replaces its eigenvalue draw with the mode of the eigenvalue
    full conditional at that mean, ``c*_i / (n + 1 + 2a)``.  The mean is
    normalised once into ``u``; ``H_N``'s diagonal is read in the data's
    completion of ``u`` (:meth:`_Posterior.hn`), the fit's basis.
    """
    if not len(run.log_posterior):
        raise EmptyChainError("cannot extract a MAP estimate from an empty chain")
    u, c0 = _polar(_as_vector(run.mu[int(np.argmax(run.log_posterior))], "the chain's mu", data.p))
    post = _Posterior(data, prior)
    lam_hat = post.mode(post.hn(u, c0))
    return Fit(u=u, c0=c0, spectrum=lam_hat, basis=data.completion(u))
