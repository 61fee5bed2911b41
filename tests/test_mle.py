"""Tests for the non-iterative approximate MLE."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from meancov import (
    DegenerateDataError,
    EigenSpectrum,
    MeanState,
    SampleSet,
    assemble_sigma,
    build_orthobasis,
    estimate_c0,
    estimate_c0_general,
    estimate_lambdas,
    fit_mle,
    lower_bound_h,
    profile_loglik,
)
from meancov import mle as mle_module
from conftest import random_unit, simulated_data


def _full_loglik(data, u, c0, lam):
    """Independent oracle: exact Gaussian log likelihood at the structured pair."""
    sigma = assemble_sigma(build_orthobasis(u), EigenSpectrum(lam)).matrix
    return float(multivariate_normal.logpdf(data.X, mean=c0 * u, cov=sigma).sum())


class TestEstimateC0:
    def test_along_sample_mean(self):
        data = simulated_data(10, 3, seed=1)
        u = data.xbar / np.linalg.norm(data.xbar)
        assert estimate_c0(data, u) == pytest.approx(np.linalg.norm(data.xbar))

    def test_orthogonal_to_sample_mean(self):
        data = simulated_data(10, 2, seed=2)
        xb = data.xbar
        u = np.array([-xb[1], xb[0]]) / np.linalg.norm(xb)
        assert estimate_c0(data, u) == pytest.approx(0.0, abs=1e-12)

    def test_general_form_equivalence(self, rng):
        # The ratio-of-quadratic-forms expression collapses to u^T xbar for
        # every eigenvalue matrix; check the algebraic identity numerically.
        data = simulated_data(12, 4, seed=3)
        for _ in range(25):
            u = random_unit(4, rng)
            lam = rng.uniform(0.1, 10.0, 3)
            assert estimate_c0_general(data, u, lam) == pytest.approx(
                estimate_c0(data, u), abs=1e-12
            )


class TestEstimateLambdas:
    def test_isotropic_scatter(self):
        # Rows chosen so that A(0) = n I at p=2, n=4.
        X = np.array([[np.sqrt(2), 0.0], [-np.sqrt(2), 0.0], [0.0, np.sqrt(2)], [0.0, -np.sqrt(2)]])
        data = SampleSet(X)
        assert np.allclose(data.a0, 4.0 * np.eye(2))
        lam = estimate_lambdas(data, MeanState(u=np.array([1.0, 0.0]), c0=0.0))
        assert np.allclose(lam.values, [1.0])

    def test_canonical_direction_diagonal_scatter(self):
        a, b = 6.0, 10.0
        X = np.array([
            [np.sqrt(a / 2), 0.0, 0.0], [-np.sqrt(a / 2), 0.0, 0.0],
            [0.0, np.sqrt(b / 2), 0.0], [0.0, -np.sqrt(b / 2), 0.0],
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
        ])
        data = SampleSet(X)
        assert np.allclose(data.a0, np.diag([a, b, 2.0]))
        lam = estimate_lambdas(data, MeanState(u=np.array([0.0, 0.0, 1.0]), c0=1.0))
        assert np.allclose(lam.values, [a / 6.0, b / 6.0])

    def test_matches_rotated_scatter_diagonal(self, rng):
        data = simulated_data(20, 5, seed=4)
        u = random_unit(5, rng)
        lam = estimate_lambdas(data, MeanState(u=u, c0=1.0))
        P = build_orthobasis(u).matrix
        expected = np.diag(P.T @ data.a0 @ P)[1:] / data.n
        assert np.allclose(lam.values, expected, atol=1e-10)

    def test_degenerate_subspace_data(self):
        v = np.array([1.0, 2.0, 0.5])
        X = np.outer(np.array([1.0, -2.0, 3.0, 0.5]), v)
        data = SampleSet(X)
        u = v / np.linalg.norm(v)
        with pytest.raises(DegenerateDataError):
            estimate_lambdas(data, MeanState(u=u, c0=1.0))


class TestProfileLoglik:
    def test_dominates_lower_bound(self, rng):
        data = simulated_data(30, 4, seed=5)
        for _ in range(50):
            u = random_unit(4, rng)
            assert profile_loglik(data, u) >= lower_bound_h(data, u) - 1e-10

    def test_even_in_direction(self, rng):
        data = simulated_data(15, 3, seed=6)
        u = random_unit(3, rng)
        assert profile_loglik(data, u) == pytest.approx(profile_loglik(data, -u), abs=1e-10)

    def test_matches_full_likelihood_at_plugin(self, rng):
        # Profiling only substitutes the closed-form maximizers, so the value
        # must equal the exact log likelihood at those plug-ins up to the
        # constant -(n p / 2) log(2 pi) that the convention drops.
        data = simulated_data(25, 3, seed=7)
        const = -0.5 * data.n * data.p * np.log(2.0 * np.pi)
        for _ in range(10):
            u = random_unit(3, rng)
            c0 = estimate_c0(data, u)
            lam = estimate_lambdas(data, MeanState(u=u, c0=max(c0, 1e-12))).values
            assert profile_loglik(data, u) + const == pytest.approx(
                _full_loglik(data, u, c0, lam), abs=1e-8
            )

    def test_p2_grid_maximizer_matches_full_likelihood_grid(self):
        # Dense-angle oracle: the profile maximizer over 10^4 directions must
        # agree with the argmax of the exact profiled likelihood on the same
        # grid (directions are identified up to sign).
        data = simulated_data(40, 2, seed=8)
        thetas = np.linspace(0.0, np.pi, 10_000, endpoint=False)
        prof = np.empty_like(thetas)
        full = np.empty_like(thetas)
        for i, th in enumerate(thetas):
            u = np.array([np.cos(th), np.sin(th)])
            prof[i] = profile_loglik(data, u)
            c0 = estimate_c0(data, u)
            lam = estimate_lambdas(data, MeanState(u=u, c0=c0 if c0 else 1.0)).values
            full[i] = _full_loglik(data, u, c0, lam)
        gap = abs(thetas[np.argmax(prof)] - thetas[np.argmax(full)])
        assert min(gap, np.pi - gap) < 2.0 * np.pi * 1e-4


class TestLowerBound:
    def test_monotone_in_quadratic_form(self, rng):
        data = simulated_data(20, 3, seed=9)
        A = data.scatter_about_mean()
        u1, u2 = random_unit(3, rng), random_unit(3, rng)
        if u1 @ A @ u1 > u2 @ A @ u2:
            u1, u2 = u2, u1
        assert lower_bound_h(data, u1) > lower_bound_h(data, u2)

    def test_smallest_eigenvector_maximizes(self, rng):
        data = simulated_data(30, 4, seed=10)
        _, evecs = np.linalg.eigh(data.scatter_about_mean())
        best = lower_bound_h(data, evecs[:, 0])
        for _ in range(10_000):
            assert best >= lower_bound_h(data, random_unit(4, rng)) - 1e-12


class TestFitMle:
    def test_consistency_small_scatter_direction(self):
        # Truth: Sigma = diag(5, 1), mu along e2 (the unit-eigenvalue axis).
        rng = np.random.default_rng(0)
        n = 100_000
        mu = np.array([0.0, 2.0])
        X = mu + rng.standard_normal((n, 2)) * np.sqrt([5.0, 1.0])
        fit = fit_mle(SampleSet(X))
        angle = np.arccos(min(abs(fit.mean.u @ np.array([0.0, 1.0])), 1.0))
        assert angle < 0.05

    def test_constraint_holds_at_fit(self):
        fit = fit_mle(simulated_data(50, 4, seed=11))
        S = fit.covariance().matrix
        mu = fit.mean.mu
        assert np.linalg.norm(S @ mu - mu) < 1e-10 * max(1.0, np.linalg.norm(mu))

    def test_reflection_invariance(self):
        data = simulated_data(30, 3, seed=12)
        fit1 = fit_mle(data)
        fit2 = fit_mle(SampleSet(-data.X))
        assert np.linalg.norm(fit1.covariance().matrix - fit2.covariance().matrix) < 1e-10

    def test_sign_convention(self):
        fit = fit_mle(simulated_data(25, 3, seed=13))
        assert fit.mean.u @ simulated_data(25, 3, seed=13).xbar >= 0.0
        assert fit.mean.c0 >= 0.0

    def test_profile_dominates_bound_at_fit(self):
        fit = fit_mle(simulated_data(40, 5, seed=14))
        assert fit.profile_loglik_at_fit >= fit.lower_bound_at_fit

    def test_lower_bound_optimality(self, rng):
        data = simulated_data(35, 3, seed=15)
        fit = fit_mle(data)
        best = lower_bound_h(data, fit.mean.u)
        for _ in range(1000):
            assert best >= lower_bound_h(data, random_unit(3, rng)) - 1e-12

    def test_degenerate_single_direction(self):
        X = np.outer(np.array([1.0, 2.0, -1.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(DegenerateDataError):
            fit_mle(SampleSet(X))

    def test_positive_spectrum(self):
        fit = fit_mle(simulated_data(50, 5, seed=16))
        assert np.all(fit.spectrum.values > 0.0)

    def test_smallest_eigenvalue_recorded(self):
        data = simulated_data(20, 3, seed=17)
        fit = fit_mle(data)
        evals = np.linalg.eigvalsh(data.scatter_about_mean())
        assert fit.smallest_eig_of_A_xbar == pytest.approx(evals[0])

    def test_one_basis_completion_per_fit(self, monkeypatch):
        calls = []
        build = mle_module.build_orthobasis

        def counted(u):
            calls.append(1)
            return build(u)

        monkeypatch.setattr(mle_module, "build_orthobasis", counted)
        fit_mle(simulated_data(50, 5, seed=18)).covariance()
        assert len(calls) == 1

    @pytest.mark.parametrize("n, p, seed", [(50, 3, 19), (60, 5, 20), (500, 50, 21)])
    def test_stored_basis_is_completion_of_reported_direction(self, n, p, seed):
        data = simulated_data(n, p, seed=seed)
        fit = fit_mle(data)
        assert np.array_equal(fit.basis.matrix, build_orthobasis(fit.mean.u).matrix)
        assert fit.covariance().basis is fit.basis
        assert fit.profile_loglik_at_fit == profile_loglik(data, fit.mean.u)
