"""Tests for the normal-inverse-Wishart baseline and the shrinkage density."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from meancov import (
    DimensionMismatchError,
    SampleSet,
    niw_map,
    niw_posterior,
)
from conftest import niw_joint_log_density, simulated_data, simulated_rows, siw_log_density


def _random_pd(p, rng, spread=1.0):
    Q = rng.standard_normal((p, p))
    evals = rng.uniform(0.5, 0.5 + 4.0 * spread, p)
    Q, _ = np.linalg.qr(Q)
    return (Q * evals) @ Q.T


class TestNiwPosterior:
    def test_prior_dominance_limit(self):
        data = simulated_data(10, 3, seed=51)
        mu0 = np.array([1.0, -1.0, 0.5])
        params = niw_posterior(data, mu0=mu0, kappa0=1e12, nu0=4.0, Lambda0=np.eye(3))
        assert np.allclose(params.mu_n, mu0, atol=1e-9)

    def test_prior_mean_at_sample_mean(self):
        data = simulated_data(10, 3, seed=52)
        params = niw_posterior(data, mu0=data.xbar, kappa0=2.0, nu0=4.0, Lambda0=np.eye(3))
        assert np.allclose(params.mu_n, data.xbar)
        rank_one = params.Lambda_n - np.eye(3) - data.scatter_about_mean()
        assert np.linalg.norm(rank_one) < 1e-10

    def test_rank_one_structure(self, rng):
        data = simulated_data(15, 4, seed=53)
        mu0 = rng.standard_normal(4)
        kappa0 = 2.5
        Lambda0 = _random_pd(4, rng)
        params = niw_posterior(data, mu0=mu0, kappa0=kappa0, nu0=6.0, Lambda0=Lambda0)
        diff = data.xbar - mu0
        coeff = data.n * kappa0 / (kappa0 + data.n)
        expected = Lambda0 + data.scatter_about_mean() + coeff * np.outer(diff, diff)
        assert np.linalg.norm(params.Lambda_n - expected) < 1e-10
        assert params.kappa_n == kappa0 + data.n
        assert params.nu_n == 6.0 + data.n

    def test_posterior_scale_stays_pd(self, rng):
        data = simulated_data(8, 3, seed=54)
        params = niw_posterior(
            data, mu0=rng.standard_normal(3), kappa0=1.0, nu0=4.0, Lambda0=_random_pd(3, rng)
        )
        assert np.linalg.eigvalsh(params.Lambda_n)[0] > 0.0

    def test_validation(self):
        data = simulated_data(6, 3, seed=55)
        with pytest.raises(DimensionMismatchError):
            niw_posterior(data, mu0=np.zeros(2), kappa0=1.0, nu0=4.0, Lambda0=np.eye(3))
        with pytest.raises(DimensionMismatchError,
                           match=r"Lambda0 must have shape \(3, 3\), got shape \(2, 2\)$"):
            niw_posterior(data, mu0=np.zeros(3), kappa0=1.0, nu0=4.0, Lambda0=np.eye(2))
        with pytest.raises(ValueError):
            niw_posterior(data, mu0=np.zeros(3), kappa0=0.0, nu0=4.0, Lambda0=np.eye(3))
        good = dict(mu0=np.zeros(3), kappa0=1.0, nu0=4.0, Lambda0=np.eye(3))
        for name, bad in [("kappa0", np.nan), ("kappa0", np.inf), ("nu0", np.nan),
                          ("mu0", np.array([0.0, np.inf, 0.0])),
                          ("Lambda0", np.diag([1.0, np.nan, 1.0]))]:
            with pytest.raises(ValueError, match="must be finite"):
                niw_posterior(data, **{**good, name: bad})
        # Finite values whose posterior overflows raise, with no RuntimeWarning.
        for name, huge in [("kappa0", 1e308), ("mu0", np.full(3, 1e308))]:
            with pytest.raises(ValueError, match="overflows"):
                niw_posterior(data, **{**good, name: huge})


class TestNiwMap:
    def test_scaled_identity(self):
        data = simulated_data(10, 2, seed=56)
        params = niw_posterior(data, mu0=data.xbar, kappa0=1.0, nu0=3.0, Lambda0=np.eye(2))
        from meancov.niw import NiwParams

        fake = NiwParams(mu_n=params.mu_n, kappa_n=params.kappa_n, nu_n=params.nu_n,
                         Lambda_n=7.0 * np.eye(2))
        _, sigma = niw_map(fake)
        assert np.allclose(sigma, 7.0 / (params.nu_n + 4.0) * np.eye(2))

    def test_reference_hyperparameters_give_pd(self):
        data = simulated_data(30, 5, seed=57)
        params = niw_posterior(data, mu0=data.xbar, kappa0=1.5, nu0=6.0, Lambda0=np.eye(5))
        mu_hat, sigma_hat = niw_map(params)
        assert np.linalg.eigvalsh(sigma_hat)[0] > 0.0
        assert mu_hat.shape == (5,)

    @pytest.mark.parametrize("nu0, divisor", [(-100.0, -65.0), (-35.0, 0.0)])
    def test_non_positive_divisor_rejected(self, nu0, divisor):
        # nu_n + p + 2 = nu0 + n + p + 2 at or below zero has no positive
        # definite mode: raised, as the eigenvalue mode's n + 1 + 2a is.
        data = simulated_data(30, 3, seed=59)
        params = niw_posterior(data, mu0=data.xbar, kappa0=1.0, nu0=nu0, Lambda0=np.eye(3))
        with pytest.raises(ValueError, match=rf"nu_n \+ p \+ 2 must be > 0 .*got {divisor}$"):
            niw_map(params)

    def test_mode_dominates_grid_probe(self):
        # Coarse grid around the returned mode at p=2: no probe may exceed
        # the joint density at the mode.
        data = simulated_data(12, 2, seed=58)
        params = niw_posterior(data, mu0=np.zeros(2), kappa0=2.0, nu0=3.0, Lambda0=np.eye(2))
        mu_hat, sigma_hat = niw_map(params)
        base = niw_joint_log_density(mu_hat, sigma_hat, params)
        offsets = np.linspace(-0.2, 0.2, 5)
        for dx in offsets:
            for dy in offsets:
                mu = mu_hat + np.array([dx, dy])
                assert niw_joint_log_density(mu, sigma_hat, params) <= base + 1e-12
        for s in np.linspace(0.8, 1.2, 5):
            for t in np.linspace(-0.1, 0.1, 5):
                sigma = s * sigma_hat + t * np.array([[0.0, 1.0], [1.0, 0.0]])
                if np.linalg.eigvalsh(sigma)[0] <= 0.0:
                    continue
                assert niw_joint_log_density(mu_hat, sigma, params) <= base + 1e-12


class TestSiwDensity:
    def test_b_zero_is_inverse_wishart_kernel(self, rng):
        sigma = _random_pd(3, rng)
        Lambda0 = _random_pd(3, rng)
        nu0 = 5.0
        val = siw_log_density(sigma, nu0, 0.0, Lambda0)
        sign, logdet = np.linalg.slogdet(sigma)
        expected = -0.5 * (nu0 + 4.0) * logdet - 0.5 * np.trace(Lambda0 @ np.linalg.inv(sigma))
        assert val == pytest.approx(expected, abs=1e-10)

    def test_identity_with_shrinkage_is_minus_infinity(self):
        assert siw_log_density(np.eye(3), 4.0, 1.0, np.eye(3)) == -np.inf

    def test_b_one_subtracts_log_gaps(self, rng):
        sigma = _random_pd(4, rng, spread=3.0)
        Lambda0 = np.eye(4)
        nu0 = 6.0
        lam = np.linalg.eigvalsh(sigma)[::-1]
        gaps = [lam[i] - lam[j] for i in range(4) for j in range(i + 1, 4)]
        expected = siw_log_density(sigma, nu0, 0.0, Lambda0) - np.sum(np.log(gaps))
        assert siw_log_density(sigma, nu0, 1.0, Lambda0) == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_b_or_indefinite_sigma(self):
        with pytest.raises(ValueError):
            siw_log_density(np.eye(2), 3.0, 1.5, np.eye(2))
        with pytest.raises(ValueError):
            siw_log_density(np.diag([1.0, -1.0]), 3.0, 0.5, np.eye(2))

    def test_conjugacy_density_ratio_identity(self, rng):
        # With b = 1 the normal likelihood times the normal-SIW prior is
        # proportional to the normal-SIW density with the conjugate updated
        # parameters; proportionality constants cancel in ratios across
        # random (mu, Sigma) probes.
        X = simulated_rows(10, 3, seed=59)
        data = SampleSet(X)
        mu0 = rng.standard_normal(3)
        kappa0, nu0 = 2.0, 5.0
        Lambda0 = _random_pd(3, rng)
        params = niw_posterior(data, mu0=mu0, kappa0=kappa0, nu0=nu0, Lambda0=Lambda0)

        def joint_unposterior(mu, sigma):
            ll = multivariate_normal.logpdf(X, mean=mu, cov=sigma).sum()
            prior_mu = multivariate_normal.logpdf(mu, mean=mu0, cov=sigma / kappa0)
            return float(ll + prior_mu + siw_log_density(sigma, nu0, 1.0, Lambda0))

        def nsiw_posterior_density(mu, sigma):
            d = multivariate_normal.logpdf(mu, mean=params.mu_n, cov=sigma / params.kappa_n)
            return float(d + siw_log_density(sigma, params.nu_n, 1.0, params.Lambda_n))

        ref = None
        for _ in range(100):
            mu = rng.standard_normal(3)
            sigma = _random_pd(3, rng, spread=2.0)
            gap = joint_unposterior(mu, sigma) - nsiw_posterior_density(mu, sigma)
            if ref is None:
                ref = gap
            assert gap == pytest.approx(ref, abs=1e-8)
