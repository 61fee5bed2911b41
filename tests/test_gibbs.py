"""Tests for the posterior, the eigenvalue conditional, and the
MH-within-Gibbs sampler."""

import numpy as np
import pytest
from scipy.stats import invgamma, kstest, multivariate_normal

from meancov import (
    DimensionMismatchError,
    EmptyChainError,
    GibbsRun,
    PriorConfig,
    SampleSet,
    ZeroMeanError,
    build_orthobasis,
    draw_lambda_conditional,
    estimate_lambdas,
    fit_map_newton,
    fit_mle,
    hn_diagonal,
    log_posterior,
    map_from_chain,
    map_lambda_update,
    profile_loglik,
    run_gibbs,
    structured_covariance,
    transport_frame,
)
from meancov import model as model_module
from meancov.gibbs import _Posterior, lambda_conditional_params
from conftest import hn_diagonal_reference, simulated_data, simulated_rows


def _basis(data, mu):
    """The explicit basis ``P(mu / ||mu||)``: the data's completion of the mean's direction."""
    return data.completion(mu / np.linalg.norm(mu))


def _proposal_diag(data, mu, lam):
    """Proposal variances ``c0^2 (1, lam) / (n ((1, lam) - 1)^2 + c0^2))`` at ``mu``,
    in the sampler's order of operations: the oracle of ``gibbs._variances``."""
    eig = np.concatenate(([1.0], lam))
    gap = eig - 1.0
    c2 = float(mu.dot(mu))
    return c2 * eig / (data.n * (gap * gap + c2))


def _log_q(P, d, y, x):
    """Gaussian proposal log density (constants dropped) of ``y`` given center ``x``,
    for the basis ``P`` and variances ``d`` at ``x``: the oracle of the densities
    the MH step reads off its draw and its carried ``sum log d``."""
    z = P.T.dot(y - x)
    return float(-0.5 * (np.log(d).sum() + (z * z / d).sum()))


def _step_state(data, mu, lam, prior):
    """The sampler's kernel, sweep terms and MH state at ``mu`` for the eigenvalues ``lam``.

    The state's point is at the frame coordinates ``F^T mu``; its ambient
    mean ``F F^T mu`` is ``mu`` to rounding.
    """
    kern = _Posterior(data, prior)
    sweep = kern.sweep(lam)
    m = data.frame.T.dot(mu)
    return kern, sweep, kern.state(kern.point(float(m[0]), m[1:].copy()), sweep)


def _explicit_basis(data, pt):
    """The ambient basis ``F [u | E + a b^T]`` of a kernel point: the oracle of its geometry."""
    c, s, b = pt.c, pt.s, pt.b
    p = b.size + 1
    u = np.concatenate(([c], s * b))
    a = np.concatenate(([-s], (c - 1.0) * b))
    tail = np.eye(p)[:, 1:] + np.outer(a, b)
    return data.frame @ np.column_stack([u, tail])


def hn_matrix(data, mu, prior):
    """Reference ``H_N = P^T A(mu) P + kappa0 (mu - mu0)(mu - mu0)^T + H0``.

    Forms the scatter ``A(mu)`` and the full matrix; ``P`` is the data's
    frame carried to ``mu / ||mu||``, and the prior quadratic and ``H0`` are
    added in ambient components.
    """
    P = transport_frame(data.frame, mu / np.linalg.norm(mu))
    d = mu - prior.mu0
    return P.T @ data.scatter(mu) @ P + prior.kappa0 * np.outer(d, d) + np.diag(prior.h0_diag)


def reference_gibbs(data, prior, s, l, rng):
    """MH-within-Gibbs composed from ``log_posterior``, ``_basis``,
    ``_proposal_diag`` and ``_log_q``: the oracle of ``run_gibbs``.

    Works in ambient coordinates with the explicit basis ``P(mu)``, the
    data's frame carried to ``mu / ||mu||``.  Evaluates the basis, the
    variances and the log posterior of every proposed state, and of the
    current state at the start of each sweep, from scratch, and draws from
    ``rng`` in the sampler's order.  It takes the forward density from
    ``_log_q``, where the sampler reads it off the normal draw, and every
    product with the basis as a matrix product, where the sampler takes it
    as a rank-one update in the frame's coordinates; the two differ by
    rounding, which could move an accept decision only if the uniform fell
    within rounding of the ratio.  Returns one ``(mu, lam, log_posterior,
    accepted)`` per sweep.
    """
    mu = data.xbar.copy()
    states = []
    accepted = 0
    for _ in range(s):
        lam = draw_lambda_conditional(data, mu, prior, rng)
        P, d = _basis(data, mu), _proposal_diag(data, mu, lam)
        lp = log_posterior(data, mu, lam, prior)
        for _ in range(l):
            mu_star = mu + P @ (np.sqrt(d) * rng.standard_normal(mu.size))
            P_star, d_star = _basis(data, mu_star), _proposal_diag(data, mu_star, lam)
            lp_star = log_posterior(data, mu_star, lam, prior)
            log_r = lp_star - lp + _log_q(P_star, d_star, mu, mu_star) - _log_q(P, d, mu_star, mu)
            if np.log(rng.uniform()) < log_r:
                mu, P, d, lp = mu_star, P_star, d_star, lp_star
                accepted += 1
        states.append((mu.copy(), lam, lp, accepted))
    return states


def effective_sample_size(x) -> float:
    """Effective sample size of a scalar chain by Geyer's initial monotone sequence.

    Sums the autocorrelations in adjacent pairs, stops before the first pair
    sum that is not positive and makes the pair sums non-increasing
    (Geyer 1992, Statistical Science 7:473).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    rho = np.fft.irfft(f * np.conj(f))[:n]
    rho /= rho[0]
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    gamma = np.minimum.accumulate(pairs[: stop[0] if stop.size else pairs.size])
    return n / (2.0 * gamma.sum() - 1.0)


def profiled_log_posterior(data, mu, prior) -> float:
    """The log posterior at ``mu`` with each eigenvalue at its conditional mode."""
    lam = _Posterior(data, prior).mode(hn_diagonal(data, mu, prior))
    return log_posterior(data, mu, lam, prior)


def _small_rows():
    return simulated_rows(12, 3, seed=21)


@pytest.fixture
def small_case():
    data = SampleSet(_small_rows())
    return data, PriorConfig.default(data)


class TestPriorConfig:
    def test_default_values(self, small_case):
        data, prior = small_case
        assert np.allclose(prior.mu0, data.xbar)
        assert prior.kappa0 == 1.5
        assert prior.a == data.p + 1
        assert np.allclose(prior.h0_diag, np.ones(data.p))

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorConfig(mu0=np.zeros(2), kappa0=-1.0, a=3.0, h0_diag=np.ones(2))
        with pytest.raises(ValueError):
            PriorConfig(mu0=np.zeros(2), kappa0=1.0, a=3.0, h0_diag=np.array([1.0, -1.0]))
        with pytest.raises(DimensionMismatchError):
            PriorConfig(mu0=np.zeros(3), kappa0=1.0, a=3.0, h0_diag=np.ones(2))
        good = dict(mu0=np.zeros(2), kappa0=1.0, a=3.0, h0_diag=np.ones(2))
        for name, bad in [("kappa0", np.nan), ("kappa0", np.inf), ("a", np.nan),
                          ("a", -np.inf), ("mu0", np.array([0.0, np.nan])),
                          ("h0_diag", np.array([1.0, np.inf]))]:
            with pytest.raises(ValueError, match="must be finite"):
                PriorConfig(**{**good, name: bad})

    def test_prior_free_limits_accepted(self):
        # kappa0 = 0 and H0 = 0 must be representable for the reduction tests.
        cfg = PriorConfig(mu0=np.zeros(3), kappa0=0.0, a=-0.5, h0_diag=np.zeros(3))
        assert cfg.kappa0 == 0.0


class TestHnMatrix:
    def test_assembly(self, small_case):
        data, prior = small_case
        mu = data.xbar * 1.1
        H = hn_matrix(data, mu, prior)
        u = mu / np.linalg.norm(mu)
        P = transport_frame(data.frame, u)
        d = mu - prior.mu0
        expected = P.T @ data.scatter(mu) @ P + prior.kappa0 * np.outer(d, d) + np.eye(3)
        assert np.allclose(H, expected, atol=1e-12)

    def test_diagonal_shortcut(self, small_case):
        data, prior = small_case
        mu = data.xbar + 0.2
        assert np.allclose(hn_diagonal(data, mu, prior), np.diag(hn_matrix(data, mu, prior)))
        # hn_diagonal reads A(0) where hn_matrix forms A(mu): random means
        # near xbar, far from it, and of large norm.
        rng = np.random.default_rng(23)
        for p in (2, 3, 5, 10):
            data = simulated_data(4 * p, p, seed=30 + p)
            prior = PriorConfig.default(data)
            for scale in (0.1, 3.0, 40.0):
                for _ in range(5):
                    mu = data.xbar + scale * rng.standard_normal(p)
                    np.testing.assert_allclose(
                        hn_diagonal(data, mu, prior),
                        np.diag(hn_matrix(data, mu, prior)),
                        rtol=1e-10,
                    )

    def test_zero_mean_rejected(self, small_case):
        data, prior = small_case
        with pytest.raises(ZeroMeanError):
            hn_diagonal(data, np.zeros(3), prior)

    def test_mean_below_unit_tol_rejected(self, small_case):
        # A mean of norm 5e-9 < UNIT_TOL has no direction, in the sampler as
        # wherever else a mean is factored into c0 * u.
        data, prior = small_case
        mu = np.array([3e-9, 0.0, 4e-9])
        with pytest.raises(ZeroMeanError):
            hn_diagonal(data, mu, prior)
        with pytest.raises(ZeroMeanError):
            map_from_chain(_chain([mu], [np.ones(2)], [0.0]), data, prior)

    def test_length_checked_before_the_basis(self, small_case, monkeypatch):
        # A wrong-length mean is a dimension error, zero or not, and reads
        # nothing in the completion.
        data, prior = small_case
        with pytest.raises(DimensionMismatchError):
            hn_diagonal(data, np.zeros(4), prior)
        calls = []
        monkeypatch.setattr(model_module._Frame, "geometry",
                            lambda self, u, c0: calls.append(u))
        with pytest.raises(DimensionMismatchError):
            hn_diagonal(data, np.ones(4), prior)
        assert calls == []


class TestLogPosterior:
    def test_hand_sized_naive_oracle(self):
        # p=2, n=3 instance evaluated against a term-by-term re-implementation.
        X = np.array([[1.0, 0.5], [0.2, -0.3], [0.8, 1.1]])
        data = SampleSet(X)
        prior = PriorConfig(
            mu0=np.array([0.4, 0.1]), kappa0=2.0, a=3.0, h0_diag=np.array([1.0, 0.7])
        )
        mu = np.array([0.6, 0.3])
        lam = np.array([1.4])
        u = mu / np.linalg.norm(mu)
        P = transport_frame(data.frame, u)
        A = sum(np.outer(x - mu, x - mu) for x in X)
        d = mu - prior.mu0
        H = P.T @ A @ P + prior.kappa0 * np.outer(d, d) + np.diag(prior.h0_diag)
        t2 = data.n + 1.0 + 2.0 * prior.a
        expected = -0.5 * t2 * np.log(lam[0]) - 0.5 * (H[0, 0] + H[1, 1] / lam[0])
        assert log_posterior(data, mu, lam, prior) == pytest.approx(expected, abs=1e-10)

    def test_matches_direct_density_differences(self, small_case):
        # Differences of the exact likelihood-times-prior log density across
        # parameter pairs; the dropped additive constant cancels.
        data, prior = small_case
        X = _small_rows()

        def direct(mu, lam):
            u = mu / np.linalg.norm(mu)
            sigma = structured_covariance(transport_frame(data.frame, u), lam)
            ll = multivariate_normal.logpdf(X, mean=mu, cov=sigma).sum()
            D = np.concatenate(([1.0], lam))
            lp_mu = -0.5 * np.sum(np.log(D)) - 0.5 * prior.kappa0 * np.sum(
                (mu - prior.mu0) ** 2 / D
            )
            lp_lam = np.sum(-prior.a * np.log(lam) - 0.5 * prior.h0_diag[1:] / lam)
            return float(ll + lp_mu + lp_lam)

        rng = np.random.default_rng(0)
        ref_mu, ref_lam = data.xbar, np.array([20.0, 15.0])
        ref = direct(ref_mu, ref_lam) - log_posterior(data, ref_mu, ref_lam, prior)
        for _ in range(5):
            mu = data.xbar + rng.standard_normal(3) * 0.3
            lam = rng.uniform(5.0, 40.0, 2)
            gap = direct(mu, lam) - log_posterior(data, mu, lam, prior)
            assert gap == pytest.approx(ref, abs=1e-9)

    def test_lambda_mode_maximizes_each_axis(self, small_case):
        data, prior = small_case
        mu = data.xbar
        shape, scales = lambda_conditional_params(data, mu, prior)
        mode = scales / (shape + 1.0)
        base = log_posterior(data, mu, mode, prior)
        for i in range(2):
            for factor in (0.97, 1.03):
                lam = mode.copy()
                lam[i] *= factor
                assert log_posterior(data, mu, lam, prior) < base

    def test_lambda_length_check(self, small_case):
        data, prior = small_case
        with pytest.raises(DimensionMismatchError):
            log_posterior(data, data.xbar, np.ones(3), prior)


class TestLambdaConditional:
    def test_mean_within_three_standard_errors(self, small_case):
        data, prior = small_case
        rng = np.random.default_rng(7)
        n_draws = 10_000
        draws = np.array(
            [draw_lambda_conditional(data, data.xbar, prior, rng) for _ in range(n_draws)]
        )
        shape, scales = lambda_conditional_params(data, data.xbar, prior)
        mean = scales / (shape - 1.0)
        sd = scales / ((shape - 1.0) * np.sqrt(shape - 2.0))
        for i in range(2):
            se = sd[i] / np.sqrt(n_draws)
            assert abs(draws[:, i].mean() - mean[i]) < 3.0 * se

    def test_kolmogorov_smirnov(self, small_case):
        data, prior = small_case
        rng = np.random.default_rng(8)
        draws = np.array(
            [draw_lambda_conditional(data, data.xbar, prior, rng) for _ in range(10_000)]
        )
        shape, scales = lambda_conditional_params(data, data.xbar, prior)
        for i in range(2):
            stat = kstest(draws[:, i], invgamma(a=shape, scale=scales[i]).cdf).statistic
            assert stat < 0.02

    def test_mode_matches_map_extraction_formula(self, small_case):
        data, prior = small_case
        shape, scales = lambda_conditional_params(data, data.xbar, prior)
        cstar = hn_diagonal(data, data.xbar, prior)[1:]
        assert np.allclose(scales / (shape + 1.0), cstar / (data.n + 1.0 + 2.0 * prior.a))

    def test_rejects_non_positive_shape(self, small_case):
        # The inverse-gamma shape (n + 2a - 1)/2 is zero at a = (1 - n)/2.
        data, _ = small_case
        p = data.p
        prior = PriorConfig(mu0=np.zeros(p), kappa0=0.0, a=(1 - data.n) / 2, h0_diag=np.ones(p))
        with pytest.raises(ValueError, match="shape"):
            draw_lambda_conditional(data, data.xbar, prior, np.random.default_rng(0))

    def test_draws_positive(self, small_case):
        data, prior = small_case
        rng = np.random.default_rng(9)
        for _ in range(100):
            assert np.all(draw_lambda_conditional(data, data.xbar, prior, rng) > 0.0)


class TestMhStep:
    def test_identical_point_always_accepted(self, small_case):
        # The Hastings ratio at mu* = mu is exactly 1; simulate by checking
        # log_r = 0 for a zero step.
        data, prior = small_case
        mu = data.xbar
        lam = np.array([10.0, 8.0])
        lp = log_posterior(data, mu, lam, prior)
        P, d = _basis(data, mu), _proposal_diag(data, mu, lam)
        log_r = (lp - lp) + _log_q(P, d, mu, mu) - _log_q(P, d, mu, mu)
        assert log_r == 0.0

    def test_symmetric_when_d_identity(self, small_case):
        # With D = I the proposal is an isotropic random walk; the two q
        # terms cancel and the ratio is the posterior ratio alone.
        data, prior = small_case
        rng = np.random.default_rng(5)
        mu = data.xbar
        lam = np.ones(2)
        P, d = _basis(data, mu), _proposal_diag(data, mu, lam)
        for _ in range(20):
            mu_star = mu + rng.standard_normal(3) * 0.1
            P_star, d_star = _basis(data, mu_star), _proposal_diag(data, mu_star, lam)
            q_diff = _log_q(P_star, d_star, mu, mu_star) - _log_q(P, d, mu_star, mu)
            assert abs(q_diff) < 1e-12

    @pytest.mark.parametrize("p", [3, 5])
    def test_proposal_matches_tangential_curvature(self, p):
        # The tangential variances are the inverse Fisher information; at a
        # large sample the observed curvature of the log posterior along
        # each tail column at the MLE agrees with it.
        data = simulated_data(2000, p, seed=70 + p)
        prior = PriorConfig.default(data)
        mu = fit_mle(data).mu
        shape, scales = lambda_conditional_params(data, mu, prior)
        lam = scales / (shape + 1.0)
        P, d = _basis(data, mu), _proposal_diag(data, mu, lam)
        for i in range(1, p):
            h = 1e-2 * np.sqrt(d[i])
            f = [log_posterior(data, mu + t * P[:, i], lam, prior) for t in (-h, 0.0, h)]
            curvature = -(f[0] - 2.0 * f[1] + f[2]) / h**2
            assert curvature * d[i] == pytest.approx(1.0, abs=0.02)

    def test_proposal_variances_at_edge_states(self, small_case):
        data, _ = small_case
        u = np.array([0.6, 0.0, 0.8])
        for c0, lam in ((2.0, np.ones(2)), (1e-6, np.array([5.0, 0.5])),
                        (2.0, np.array([1e6, 1.0]))):
            d = _proposal_diag(data, c0 * u, lam)
            assert np.all(np.isfinite(d)) and np.all(d > 0.0)
            assert d[0] == pytest.approx(1.0 / data.n, rel=1e-12)
            assert np.all(d[1:][lam == 1.0] == pytest.approx(1.0 / data.n, rel=1e-12))

    def test_hastings_ratio_uses_reverse_variances(self, small_case):
        # Drive the kernel's step with a fixed proposal step and a uniform just below
        # or just above the hand-computed ratio, whose reverse density uses
        # the variances at mu*.
        data, prior = small_case
        mu = data.xbar
        lam = np.array([10.0, 8.0])
        lp = log_posterior(data, mu, lam, prior)
        P, d = _basis(data, mu), _proposal_diag(data, mu, lam)
        z = np.array([3.0, -2.0, 2.0])
        mu_star = mu + P @ (np.sqrt(d) * z)
        P_star, d_star = _basis(data, mu_star), _proposal_diag(data, mu_star, lam)
        assert abs(np.linalg.norm(mu_star) - np.linalg.norm(mu)) > 1e-3
        q_term = _log_q(P_star, d_star, mu, mu_star) - _log_q(P, d, mu_star, mu)
        q_term_forward_only = _log_q(P_star, d, mu, mu_star) - _log_q(P, d, mu_star, mu)
        assert abs(q_term - q_term_forward_only) > 1e-3
        log_r = log_posterior(data, mu_star, lam, prior) - lp + q_term
        assert log_r < 0.0

        class FixedDraws:
            def __init__(self, uniform):
                self.u = uniform

            def standard_normal(self, size):
                return z.copy()

            def random(self):
                return self.u

        kern, sweep, state = _step_state(data, mu, lam, prior)
        assert state.lp == pytest.approx(lp, rel=1e-14)
        np.testing.assert_allclose(state.d, d, rtol=1e-14)
        for shift, accepted in ((-1e-9, True), (1e-9, False)):
            out, acc = kern.step(state, sweep, FixedDraws(np.exp(log_r + shift)))
            assert acc is accepted
            assert np.allclose(out.point.mu, mu_star if accepted else mu)
            np.testing.assert_allclose(out.d, d_star if accepted else d, rtol=1e-14)

    def test_step_interface(self, small_case):
        data, prior = small_case
        mu, lam = data.xbar, np.array([12.0, 9.0])
        lp = log_posterior(data, mu, lam, prior)
        rng = np.random.default_rng(2)
        kern, sweep, state = _step_state(data, mu, lam, prior)
        assert state.lp == pytest.approx(lp, rel=1e-14)
        out, accepted = kern.step(state, sweep, rng)
        assert out.point.mu.shape == (3,)
        assert isinstance(accepted, bool)

    def test_carried_values_match_the_state(self, small_case):
        # A state hands on its basis, variances, their log sum, H_N diagonal
        # and log posterior; each equals its value computed afresh in
        # ambient coordinates, to rounding.
        data, prior = small_case
        lam = np.array([12.0, 9.0])
        kern, sweep, state = _step_state(data, data.xbar, lam, prior)
        rng = np.random.default_rng(4)
        accepted = 0
        for _ in range(30):
            state, acc = kern.step(state, sweep, rng)
            accepted += acc
            pt, d, log_det, lp = state
            mu, hn = pt.mu, np.concatenate(([pt.hn0], pt.hnt))
            np.testing.assert_allclose(_explicit_basis(data, pt), _basis(data, mu), atol=1e-14)
            np.testing.assert_allclose(d, _proposal_diag(data, mu, lam), rtol=1e-14)
            assert log_det == pytest.approx(np.log(d).sum(), rel=1e-14)
            np.testing.assert_allclose(hn, hn_diagonal(data, mu, prior), rtol=1e-12)
            assert lp == pytest.approx(log_posterior(data, mu, lam, prior), rel=1e-12)
        assert accepted > 0

    def test_kernel_keeps_the_frames_tail_at_the_antipode(self):
        # The frame coordinates of a mean along -u_hat have a tail of
        # rounding noise; the kernel takes it as zero, as transport_frame and
        # every other reader of the completion do.
        data = simulated_data(50, 5, seed=1)
        prior = PriorConfig.default(data)
        mu = -2.0 * fit_mle(data).u
        m = data.frame.T.dot(mu)
        pt = _Posterior(data, prior).point(float(m[0]), m[1:].copy())
        assert pt.s == 0.0 and not pt.b.any()
        np.testing.assert_allclose(np.concatenate(([pt.hn0], pt.hnt)),
                                   hn_diagonal(data, mu, prior), rtol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5, 10, 50])
    def test_kernel_matches_explicit_basis_at_random_states(self, p):
        # The rank-one forms in frame coordinates against the explicit
        # P^T A(mu) P, at means near xbar, far from it and of large norm.
        data = simulated_data(4 * p, p, seed=60 + p)
        prior = PriorConfig.default(data)
        rng = np.random.default_rng(61)
        lam = rng.uniform(0.5, 3.0, p - 1)
        for scale in (0.1, 1.0, 3.0, 3.0, 3.0):
            mu = data.xbar + scale * rng.standard_normal(p)
            kern, sweep, state = _step_state(data, mu, lam, prior)
            pt = state.point
            hn = np.concatenate(([pt.hn0], pt.hnt))
            np.testing.assert_allclose(hn, np.diag(hn_matrix(data, pt.mu, prior)), rtol=1e-12)
            assert state.lp == pytest.approx(log_posterior(data, pt.mu, lam, prior), rel=1e-12)

    def test_discretized_detailed_balance(self):
        # Project a long p=2 chain onto coarse bins of the mean's first
        # coordinate; at stationarity the transition counts between any two
        # bins must be symmetric up to Monte-Carlo noise.
        data = simulated_data(10, 2, seed=22)
        prior = PriorConfig.default(data)
        rng = np.random.default_rng(3)
        mu = data.xbar.copy()
        lam = np.array([float(np.linalg.eigvalsh(data.scatter_about_mean() / data.n)[-1])])
        kern, sweep, state = _step_state(data, mu, lam, prior)
        for _ in range(2000):  # burn-in at fixed lambda
            state, _ = kern.step(state, sweep, rng)
        traj = np.empty(100_000)
        for i in range(traj.size):
            state, _ = kern.step(state, sweep, rng)
            traj[i] = state.point.mu[0]
        edges = np.quantile(traj, [0.25, 0.5, 0.75])
        bins = np.digitize(traj, edges)
        counts = np.zeros((4, 4))
        for a, b in zip(bins[:-1], bins[1:]):
            counts[a, b] += 1
        for i in range(4):
            for j in range(i + 1, 4):
                nij, nji = counts[i, j], counts[j, i]
                z = abs(nij - nji) / np.sqrt(nij + nji + 1.0)
                assert z < 5.0


class TestRunGibbs:
    def test_no_basis_completion_in_the_run(self, small_case, monkeypatch):
        # The frame is completed once per data set; the run carries it in
        # its own coordinates and completes no basis.
        data, prior = small_case
        calls = []
        build = model_module.build_orthobasis

        def counted(u):
            calls.append(1)
            return build(u)

        monkeypatch.setattr(model_module, "build_orthobasis", counted)
        run_gibbs(data, prior, s=20, l=3, rng=np.random.default_rng(11))
        assert len(calls) == 1  # the data's frame
        run_gibbs(data, prior, s=20, l=3, rng=np.random.default_rng(12))
        assert len(calls) == 1

    @pytest.mark.parametrize("n, p, seed", [(50, 3, 500), (50, 3, 501), (50, 5, 502), (200, 10, 503)])
    def test_matches_reference_sampler(self, n, p, seed):
        # Every accept decision is the reference's; states agree to rounding.
        data = simulated_data(n, p, seed=seed)
        prior = PriorConfig.default(data)
        run = run_gibbs(data, prior, s=200, l=5, rng=np.random.default_rng(seed))
        expected = reference_gibbs(data, prior, s=200, l=5, rng=np.random.default_rng(seed))
        assert len(run.mu) == len(expected)
        for j, (mu, lam, lp, accepted) in enumerate(expected):
            assert run.accepted_count[j] == accepted
            assert np.linalg.norm(run.mu[j] - mu) <= 1e-12 * np.linalg.norm(mu)
            np.testing.assert_allclose(run.lam[j], lam, rtol=1e-12)
            assert run.log_posterior[j] == pytest.approx(lp, rel=1e-12)
        assert run.accepted == expected[-1][3]

    def test_rejects_degenerate_requests(self, small_case):
        data, prior = small_case
        with pytest.raises(ValueError):
            run_gibbs(data, prior, s=1, l=0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_gibbs(data, prior, s=0, l=1, rng=np.random.default_rng(0))

    def test_chain_states_valid(self, small_case):
        data, prior = small_case
        run = run_gibbs(data, prior, s=100, l=2, rng=np.random.default_rng(12))
        assert run.mu.shape == (100, data.p)
        assert run.lam.shape == (100, data.p - 1)
        assert run.log_posterior.shape == run.accepted_count.shape == (100,)
        assert np.all(run.lam > 0.0)
        assert np.all(np.isfinite(run.log_posterior))
        for a in (run.mu, run.lam, run.log_posterior, run.accepted_count):
            assert not a.flags.writeable
        assert run.proposals == 200
        assert 0.0 <= run.acceptance_rate <= 1.0

    def test_records_carry_running_accepted_count(self, small_case):
        data, prior = small_case
        l = 3
        run = run_gibbs(data, prior, s=25, l=l, rng=np.random.default_rng(14))
        counts = [rec["accepted_count"] for rec in run.records()]
        steps = np.diff([0] + counts)
        assert np.all(steps >= 0) and np.all(steps <= l)
        assert counts[-1] == run.accepted

    def test_seed_determinism(self, small_case):
        data, prior = small_case
        r1 = run_gibbs(data, prior, s=15, l=2, rng=np.random.default_rng(13))
        r2 = run_gibbs(data, prior, s=15, l=2, rng=np.random.default_rng(13))
        assert r1.accepted == r2.accepted
        assert np.array_equal(r1.mu, r2.mu)
        assert np.array_equal(r1.log_posterior, r2.log_posterior)

    def test_records_serializable(self, small_case):
        import json

        data, prior = small_case
        run = run_gibbs(data, prior, s=3, l=1, rng=np.random.default_rng(14))
        text = "\n".join(json.dumps(rec, sort_keys=True) for rec in run.records())
        assert len(text.splitlines()) == 3


class TestFrameCompletion:
    # The MAP posterior completes every direction from one frame per data
    # set, so it has no seam where the canonical completion re-pivots.

    @pytest.mark.parametrize("n, p, seed", [(50, 3, 1), (100, 5, 4), (200, 10, 3)])
    def test_log_posterior_continuous_across_a_canonical_seam(self, n, p, seed):
        # Move the MLE's two largest entries to a tie, where
        # build_orthobasis switches its pivot, and step 1e-9 to either
        # side at fixed eigenvalues.
        data = simulated_data(n, p, seed=seed)
        prior = PriorConfig.default(data)
        mu = fit_mle(data).mu.copy()
        i, j = np.argsort(np.abs(mu))[-2:]
        tie = 0.5 * (abs(mu[i]) + abs(mu[j]))
        mu[i], mu[j] = np.sign(mu[i]) * tie, np.sign(mu[j]) * tie
        step = np.zeros(p)
        step[i], step[j] = 1e-9 * np.sign(mu[i]), -1e-9 * np.sign(mu[j])
        above, below = mu + step, mu - step
        assert np.argmax(np.abs(above)) == i and np.argmax(np.abs(below)) == j
        post = _Posterior(data, prior)
        lam = post.mode(hn_diagonal(data, mu, prior))
        jump = log_posterior(data, above, lam, prior) - log_posterior(data, below, lam, prior)
        assert abs(jump) < 1e-5  # measured 1.2e-7 to 7.5e-7

        # The same posterior in the canonical completion jumps by 4.8 to 55.
        sweep = post.sweep(lam)

        def canonical(x):
            P = build_orthobasis(x / np.linalg.norm(x))
            hn = hn_diagonal_reference(data, x, P, prior)
            return post.log_density(hn[0], hn[1:], sweep)

        assert abs(canonical(above) - canonical(below)) > 1.0

    def test_map_bases_are_the_frame_at_the_mle(self):
        # At the MLE's direction the carried frame is the frame, bit for bit,
        # so both MAPs and the MLE complete it alike.
        data = simulated_data(50, 3, seed=19)
        mle = fit_mle(data)
        assert np.array_equal(transport_frame(data.frame, mle.u), data.frame)
        assert np.array_equal(data.frame, build_orthobasis(mle.u))


class TestMixing:
    # The probe streams default_rng(10_000 + k), k = 0..11, at the probe
    # designs simulated_data(n, p, seed) under PriorConfig.default, l = 5.

    @pytest.mark.parametrize("n, p, seed", [(50, 3, 501), (200, 10, 503)])
    def test_no_chain_is_trapped(self, n, p, seed):
        # A chain is trapped when its best state lies 10 or more units of
        # profiled log posterior below the MLE's value.  With the canonical
        # completion 8 of 12 chains at each design never left xbar's chart
        # and were trapped 20-31 units below, at s = 200 as at s = 2000.  In
        # the frame the worst best state lies 0.08 (s501) and 3.7 (s503)
        # units below at s = 200, which costs about 0.6 s per design.
        data = simulated_data(n, p, seed=seed)
        prior = PriorConfig.default(data)
        ref = profiled_log_posterior(data, fit_mle(data).mu, prior)
        for k in range(12):
            run = run_gibbs(data, prior, s=200, l=5, rng=np.random.default_rng(10_000 + k))
            best = run.mu[np.argmax(run.log_posterior)]
            assert profiled_log_posterior(data, best, prior) > ref - 10.0, f"stream {k}"

    @pytest.mark.parametrize(
        "n, p, seed, pinned",
        [(50, 3, 500, 392), (50, 3, 501, 217), (50, 5, 502, 272), (200, 10, 503, 96)],
    )
    def test_seeded_ess_per_thousand_sweeps(self, n, p, seed, pinned):
        # ESS of the mean's first coordinate over 1,000 sweeps after 200
        # burn-in sweeps, stream 10_000.  A seeded chain is reproducible, so
        # the value is pinned to 1 %; a change to the sampler that moves it
        # must re-pin it.  The canonical completion gave 430/84/258/38.
        data = simulated_data(n, p, seed=seed)
        run = run_gibbs(data, PriorConfig.default(data), s=1200, l=5,
                        rng=np.random.default_rng(10_000))
        assert effective_sample_size(run.mu[200:, 0]) == pytest.approx(pinned, rel=0.01)


class TestEntryPoints:
    # Every function that reads the data in the completion of a mean takes
    # the frame-coordinate formula; the oracle forms the explicit basis
    # P = transport_frame(F, +-u) and the scatter A(mu).

    @pytest.mark.parametrize("p", [2, 3, 5, 10, 50])
    def test_every_entry_point_matches_the_explicit_basis(self, p):
        data = simulated_data(2 * p + 10, p, seed=70 + p)
        prior = PriorConfig(mu0=data.xbar, kappa0=1.5, a=p + 1.0,
                            h0_diag=np.linspace(1.0, 2.0, p))
        rng = np.random.default_rng(71)
        t = data.n + 1.0 + 2.0 * prior.a
        post = _Posterior(data, prior)
        for scale in (0.1, 1.0, 3.0):
            mu = data.xbar + scale * rng.standard_normal(p)
            c0 = np.linalg.norm(mu)
            u = mu / c0
            P, P_neg = transport_frame(data.frame, u), transport_frame(data.frame, -u)
            hn = hn_diagonal_reference(data, mu, P, prior)
            lam = rng.uniform(0.5, 3.0, p - 1)
            np.testing.assert_allclose(hn_diagonal(data, mu, prior), hn, rtol=1e-12)
            assert log_posterior(data, mu, lam, prior) == pytest.approx(
                post.log_density(hn[0], hn[1:], post.sweep(lam)), rel=1e-12)
            shape, scales = lambda_conditional_params(data, mu, prior)
            assert shape == 0.5 * (data.n + 2.0 * prior.a - 1.0)
            np.testing.assert_allclose(scales, 0.5 * hn[1:], rtol=1e-12)
            np.testing.assert_allclose(map_lambda_update(data, u, c0, prior), hn[1:] / t,
                                       rtol=1e-12)
            # c0 u with c0 < 0 is the mean c0 (-u), taken in the completion of -u.
            hn_neg = hn_diagonal_reference(data, -mu, P_neg, prior)
            np.testing.assert_allclose(map_lambda_update(data, u, -c0, prior), hn_neg[1:] / t,
                                       rtol=1e-12)
            q = np.diag(P.T @ data.a0 @ P)[1:]
            np.testing.assert_allclose(estimate_lambdas(data, u), q / data.n, rtol=1e-12)
            quad = u @ data.scatter_about_mean() @ u
            expected = -0.5 * data.n * np.log(q / data.n).sum() - 0.5 * (quad + data.n * (p - 1))
            assert profile_loglik(data, u) == pytest.approx(expected, rel=1e-12)

    def test_posteriors_share_the_data_frame_record(self, small_case):
        # A posterior reads the data's one frame record, not a copy of it,
        # and keeps no reference to the data set.
        data, prior = small_case
        first, second = _Posterior(data, prior), _Posterior(data, prior)
        for post in (first, second):
            assert np.shares_memory(post.f_tail, data._frame.f_tail)
            assert np.shares_memory(post.f0, data._frame.f0)
            assert np.shares_memory(post.frame.a_w, data._frame.a_w)
            assert not hasattr(post, "data")
        assert np.shares_memory(first.f_tail, second.f_tail)

    def test_every_reader_of_hn_goes_through_the_one_assembly(self, small_case, monkeypatch):
        # H_N's diagonal and its prior terms are assembled in one place,
        # _Posterior._diagonal; a second assembly would leave a reader that
        # never reaches it.
        data, prior = small_case
        mu, lam = data.xbar, np.array([12.0, 9.0])
        run = run_gibbs(data, prior, s=3, l=2, rng=np.random.default_rng(0))
        diagonal, calls = _Posterior._diagonal, []

        def counted(self, *args):
            calls.append(1)
            return diagonal(self, *args)

        monkeypatch.setattr(_Posterior, "_diagonal", counted)
        readers = {
            "hn_diagonal": lambda: hn_diagonal(data, mu, prior),
            "log_posterior": lambda: log_posterior(data, mu, lam, prior),
            "lambda_conditional_params": lambda: lambda_conditional_params(data, mu, prior),
            "draw_lambda_conditional": lambda: draw_lambda_conditional(
                data, mu, prior, np.random.default_rng(0)),
            "map_from_chain": lambda: map_from_chain(run, data, prior),
            "map_lambda_update": lambda: map_lambda_update(
                data, mu / np.linalg.norm(mu), 1.0, prior),
            "run_gibbs": lambda: run_gibbs(data, prior, s=3, l=2, rng=np.random.default_rng(0)),
        }
        for name, read in readers.items():
            calls.clear()
            read()
            assert calls, f"{name} assembles H_N elsewhere"

    @pytest.mark.parametrize("p", [3, 5])
    def test_newton_fits_data_with_zero_radius(self, p):
        # The sample mean is exactly zero, so the MLE's radius is zero: the
        # eigenvalue refresh at c0 = 0 is defined (the completion of u).
        half = np.random.default_rng(p).integers(-9, 10, size=(20, p)).astype(float)
        data = SampleSet(np.vstack([half, -half]))
        assert fit_mle(data).c0 == 0.0
        flat = PriorConfig(mu0=np.zeros(p), kappa0=0.0, a=-0.5, h0_diag=np.zeros(p))
        for prior in (PriorConfig.default(data), flat):
            fit = fit_map_newton(data, prior)
            assert fit.converged
            assert fit.c0 >= 0.0
            assert np.all(np.isfinite(fit.spectrum)) and np.all(fit.spectrum > 0.0)
            np.testing.assert_allclose(
                fit.spectrum, map_lambda_update(data, fit.u, fit.c0, prior), rtol=1e-12)
            # The sampler starts at xbar, which has no direction here.
            with pytest.raises(ZeroMeanError):
                run_gibbs(data, prior, s=5, l=2, rng=np.random.default_rng(0))


def _chain(mus, lams, lps) -> GibbsRun:
    """A hand-built run whose states were all rejected proposals."""
    count = np.zeros(len(lps), dtype=int)
    return GibbsRun(np.array(mus), np.array(lams), np.array(lps), count, accepted=0, proposals=0)


class TestMapFromChain:
    def test_empty_chain(self, small_case):
        data, prior = small_case
        with pytest.raises(EmptyChainError):
            map_from_chain(_chain(np.empty((0, 3)), np.empty((0, 2)), []), data, prior)

    def test_single_state(self, small_case):
        data, prior = small_case
        lam = np.array([5.0, 4.0])
        lp = log_posterior(data, data.xbar, lam, prior)
        fit = map_from_chain(_chain([data.xbar], [lam], [lp]), data, prior)
        assert np.allclose(fit.mu, data.xbar)
        cstar = hn_diagonal(data, data.xbar, prior)[1:]
        assert np.allclose(fit.spectrum, cstar / (data.n + 1.0 + 2.0 * prior.a))

    def test_first_of_tied_states(self, small_case):
        data, prior = small_case
        mus = [data.xbar, 2.0 * data.xbar, 3.0 * data.xbar]
        fit = map_from_chain(_chain(mus, np.ones((3, 2)), [1.0, 5.0, 5.0]), data, prior)
        assert np.allclose(fit.mu, mus[1])

    def test_recomputed_lambda_dominates(self, small_case):
        data, prior = small_case
        run = run_gibbs(data, prior, s=30, l=2, rng=np.random.default_rng(15))
        fit = map_from_chain(run, data, prior)
        assert log_posterior(data, fit.mu, fit.spectrum, prior) >= run.log_posterior.max()

    def test_picks_highest_posterior_state(self, small_case):
        data, prior = small_case
        run = run_gibbs(data, prior, s=25, l=2, rng=np.random.default_rng(16))
        fit = map_from_chain(run, data, prior)
        assert np.allclose(fit.mu, run.mu[np.argmax(run.log_posterior)])

    @pytest.mark.parametrize("n, p, seed", [(12, 3, 21), (50, 3, 19), (60, 5, 20)])
    def test_stored_basis_is_completion_of_reported_direction(self, n, p, seed):
        data = simulated_data(n, p, seed=seed)
        prior = PriorConfig.default(data)
        run = run_gibbs(data, prior, s=20, l=3, rng=np.random.default_rng(seed))
        fit = map_from_chain(run, data, prior)
        assert np.array_equal(fit.basis[:, 0], fit.u)
        assert np.array_equal(fit.basis, transport_frame(data.frame, fit.u))
        sigma = structured_covariance(transport_frame(data.frame, fit.u), fit.spectrum)
        assert np.array_equal(fit.covariance(), sigma)
        mu = fit.mu
        assert np.linalg.norm(fit.covariance() @ mu - mu) < 1e-10 * np.linalg.norm(mu)
