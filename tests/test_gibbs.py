"""Tests for the posterior, the eigenvalue conditional, and the
MH-within-Gibbs sampler."""

import numpy as np
import pytest
from scipy.stats import invgamma, kstest, multivariate_normal

from meancov import gibbs
from meancov import (
    ChainState,
    DimensionMismatchError,
    EmptyChainError,
    PriorConfig,
    SampleSet,
    ZeroMeanError,
    build_orthobasis,
    draw_lambda_conditional,
    fit_mle,
    hn_diagonal,
    hn_matrix,
    log_posterior,
    map_from_chain,
    mh_step_mu,
    run_gibbs,
)
from meancov.gibbs import (
    _basis,
    _log_q,
    _mh_once,
    _proposal_diag,
    lambda_conditional_params,
)
from conftest import simulated_data


@pytest.fixture
def small_case():
    data = simulated_data(12, 3, seed=21)
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

    def test_prior_free_limits_accepted(self):
        # kappa0 = 0 and H0 = 0 must be representable for the reduction tests.
        cfg = PriorConfig(mu0=np.zeros(3), kappa0=0.0, a=-0.5, h0_diag=np.zeros(3))
        assert cfg.kappa0 == 0.0


class TestHnMatrix:
    def test_assembly(self, small_case):
        data, prior = small_case
        mu = data.xbar * 1.1
        H = hn_matrix(data, mu, prior).matrix
        u = mu / np.linalg.norm(mu)
        P = build_orthobasis(u).matrix
        d = mu - prior.mu0
        expected = P.T @ data.scatter(mu) @ P + prior.kappa0 * np.outer(d, d) + np.eye(3)
        assert np.allclose(H, expected, atol=1e-12)

    def test_diagonal_shortcut(self, small_case):
        data, prior = small_case
        mu = data.xbar + 0.2
        assert np.allclose(hn_diagonal(data, mu, prior), np.diag(hn_matrix(data, mu, prior).matrix))
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
                        np.diag(hn_matrix(data, mu, prior).matrix),
                        rtol=1e-10,
                    )

    def test_zero_mean_rejected(self, small_case):
        data, prior = small_case
        with pytest.raises(ZeroMeanError):
            hn_diagonal(data, np.zeros(3), prior)


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
        P = build_orthobasis(u).matrix
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
        from meancov import EigenSpectrum, assemble_sigma

        def direct(mu, lam):
            u = mu / np.linalg.norm(mu)
            sigma = assemble_sigma(build_orthobasis(u), EigenSpectrum(lam)).matrix
            ll = multivariate_normal.logpdf(data.X, mean=mu, cov=sigma).sum()
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
        P, d = _basis(mu), _proposal_diag(data, mu, lam)
        log_r = (lp - lp) + _log_q(P, d, mu, mu) - _log_q(P, d, mu, mu)
        assert log_r == 0.0

    def test_symmetric_when_d_identity(self, small_case):
        # With D = I the proposal is an isotropic random walk; the two q
        # terms cancel and the ratio is the posterior ratio alone.
        data, prior = small_case
        rng = np.random.default_rng(5)
        mu = data.xbar
        lam = np.ones(2)
        P, d = _basis(mu), _proposal_diag(data, mu, lam)
        for _ in range(20):
            mu_star = mu + rng.standard_normal(3) * 0.1
            P_star, d_star = _basis(mu_star), _proposal_diag(data, mu_star, lam)
            q_diff = _log_q(P_star, d_star, mu, mu_star) - _log_q(P, d, mu_star, mu)
            assert abs(q_diff) < 1e-12

    @pytest.mark.parametrize("p", [3, 5])
    def test_proposal_matches_tangential_curvature(self, p):
        # The tangential variances are the inverse Fisher information; at a
        # large sample the observed curvature of the log posterior along
        # each tail column at the MLE agrees with it.
        data = simulated_data(2000, p, seed=70 + p)
        prior = PriorConfig.default(data)
        mu = fit_mle(data).mean.mu
        shape, scales = lambda_conditional_params(data, mu, prior)
        lam = scales / (shape + 1.0)
        P, d = _basis(mu), _proposal_diag(data, mu, lam)
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
        # Drive _mh_once with a fixed proposal step and a uniform just below
        # or just above the hand-computed ratio, whose reverse density uses
        # the variances at mu*.
        data, prior = small_case
        mu = data.xbar
        lam = np.array([10.0, 8.0])
        lp = log_posterior(data, mu, lam, prior)
        P, d = _basis(mu), _proposal_diag(data, mu, lam)
        z = np.array([3.0, -2.0, 2.0])
        mu_star = mu + P @ (np.sqrt(d) * z)
        P_star, d_star = _basis(mu_star), _proposal_diag(data, mu_star, lam)
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

            def uniform(self):
                return self.u

        for shift, accepted in ((-1e-9, True), (1e-9, False)):
            out = _mh_once(data, mu, P, d, lam, lp, prior, FixedDraws(np.exp(log_r + shift)))
            assert out[3] is accepted
            assert np.allclose(out[0], mu_star if accepted else mu)
            assert np.array_equal(out[2], d_star if accepted else d)

    def test_step_interface(self, small_case):
        data, prior = small_case
        lam = np.array([12.0, 9.0])
        state = ChainState(
            mu=data.xbar, lam=lam, log_posterior=log_posterior(data, data.xbar, lam, prior),
            iteration=0,
        )
        rng = np.random.default_rng(2)
        mu_new, accepted = mh_step_mu(data, state, prior, rng)
        assert mu_new.shape == (3,)
        assert isinstance(accepted, (bool, np.bool_))

    def test_discretized_detailed_balance(self):
        # Project a long p=2 chain onto coarse bins of the mean's first
        # coordinate; at stationarity the transition counts between any two
        # bins must be symmetric up to Monte-Carlo noise.
        data = simulated_data(10, 2, seed=22)
        prior = PriorConfig.default(data)
        rng = np.random.default_rng(3)
        mu = data.xbar.copy()
        lam = np.array([float(np.linalg.eigvalsh(data.scatter_about_mean() / data.n)[-1])])
        lp = log_posterior(data, mu, lam, prior)
        P, d = _basis(mu), _proposal_diag(data, mu, lam)
        for _ in range(2000):  # burn-in at fixed lambda
            mu, P, d, _, lp = _mh_once(data, mu, P, d, lam, lp, prior, rng)
        traj = np.empty(100_000)
        for i in range(traj.size):
            mu, P, d, _, lp = _mh_once(data, mu, P, d, lam, lp, prior, rng)
            traj[i] = mu[0]
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
    def test_one_basis_completion_per_proposal(self, small_case, monkeypatch):
        data, prior = small_case
        calls = []
        build = gibbs.build_orthobasis

        def counted(u):
            calls.append(1)
            return build(u)

        monkeypatch.setattr(gibbs, "build_orthobasis", counted)
        s, l = 20, 3
        run_gibbs(data, prior, s=s, l=l, rng=np.random.default_rng(11))
        assert len(calls) <= 1 + s + s * l

    def test_rejects_degenerate_requests(self, small_case):
        data, prior = small_case
        with pytest.raises(ValueError):
            run_gibbs(data, prior, s=1, l=0)
        with pytest.raises(ValueError):
            run_gibbs(data, prior, s=0, l=1)

    def test_chain_states_valid(self, small_case):
        data, prior = small_case
        run = run_gibbs(data, prior, s=100, l=2, rng=np.random.default_rng(12))
        assert len(run.states) == 100
        for st in run.states:
            assert np.all(st.lam > 0.0)
            assert np.isfinite(st.log_posterior)
        assert run.proposals == 200
        assert 0.0 <= run.acceptance_rate <= 1.0

    def test_seed_determinism(self, small_case):
        data, prior = small_case
        r1 = run_gibbs(data, prior, s=15, l=2, rng=np.random.default_rng(13))
        r2 = run_gibbs(data, prior, s=15, l=2, rng=np.random.default_rng(13))
        assert r1.accepted == r2.accepted
        for s1, s2 in zip(r1.states, r2.states):
            assert np.array_equal(s1.mu, s2.mu)
            assert s1.log_posterior == s2.log_posterior

    def test_records_serializable(self, small_case):
        import json

        data, prior = small_case
        run = run_gibbs(data, prior, s=3, l=1, rng=np.random.default_rng(14))
        text = "\n".join(json.dumps(rec, sort_keys=True) for rec in run.records())
        assert len(text.splitlines()) == 3


class TestMapFromChain:
    def test_empty_chain(self, small_case):
        data, prior = small_case
        with pytest.raises(EmptyChainError):
            map_from_chain([], data, prior)

    def test_single_state(self, small_case):
        data, prior = small_case
        lam = np.array([5.0, 4.0])
        st = ChainState(
            mu=data.xbar, lam=lam,
            log_posterior=log_posterior(data, data.xbar, lam, prior), iteration=1,
        )
        mean, spectrum = map_from_chain([st], data, prior)
        assert np.allclose(mean.mu, data.xbar)
        cstar = hn_diagonal(data, data.xbar, prior)[1:]
        assert np.allclose(spectrum.values, cstar / (data.n + 1.0 + 2.0 * prior.a))

    def test_recomputed_lambda_dominates(self, small_case):
        data, prior = small_case
        run = run_gibbs(data, prior, s=30, l=2, rng=np.random.default_rng(15))
        mean, spectrum = map_from_chain(run.states, data, prior)
        best = max(run.states, key=lambda st: st.log_posterior)
        assert log_posterior(data, mean.mu, spectrum.values, prior) >= best.log_posterior

    def test_picks_highest_posterior_state(self, small_case):
        data, prior = small_case
        run = run_gibbs(data, prior, s=25, l=2, rng=np.random.default_rng(16))
        mean, _ = map_from_chain(run.states, data, prior)
        best = max(run.states, key=lambda st: st.log_posterior)
        assert np.allclose(mean.mu, best.mu)
