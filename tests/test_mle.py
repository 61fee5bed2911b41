"""Tests for the non-iterative approximate MLE."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from meancov import (
    DegenerateDataError,
    SampleSet,
    build_orthobasis,
    estimate_c0,
    estimate_lambdas,
    fit_mle,
    lower_bound_h,
    profile_loglik,
    structured_covariance,
    transport_frame,
)
from meancov import model as model_module
from conftest import estimate_c0_general, random_unit, simulated_data, simulated_rows


def _full_loglik(X, P, c0, lam):
    """Independent oracle: exact Gaussian log likelihood of the rows ``X`` at the
    mean ``c0 P[:, 0]`` and the covariance ``P diag(1, lam) P^T``."""
    sigma = structured_covariance(P, lam)
    return float(multivariate_normal.logpdf(X, mean=c0 * P[:, 0], cov=sigma).sum())


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
        lam = estimate_lambdas(data, np.array([1.0, 0.0]))
        assert np.allclose(lam, [1.0])

    def test_canonical_direction_diagonal_scatter(self):
        a, b = 6.0, 10.0
        X = np.array([
            [np.sqrt(a / 2), 0.0, 0.0], [-np.sqrt(a / 2), 0.0, 0.0],
            [0.0, np.sqrt(b / 2), 0.0], [0.0, -np.sqrt(b / 2), 0.0],
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
        ])
        data = SampleSet(X)
        assert np.allclose(data.a0, np.diag([a, b, 2.0]))
        lam = estimate_lambdas(data, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(lam, [a / 6.0, b / 6.0])

    def test_matches_rotated_scatter_diagonal(self, rng):
        data = simulated_data(20, 5, seed=4)
        u = random_unit(5, rng)
        lam = estimate_lambdas(data, u)
        P = transport_frame(data.frame, u)
        expected = np.diag(P.T @ data.a0 @ P)[1:] / data.n
        assert np.allclose(lam, expected, atol=1e-10)

    @pytest.mark.parametrize("p", [3, 5, 10])
    def test_antipode_of_the_fit_reads_the_frames_forms(self, p):
        # The completion of -u_hat keeps the frame's tail, so the closed-form
        # eigenvalues at -u_hat are those at u_hat (at p = 5 they read
        # (29.05, 22.33, 27.13, 30.02) against (28.47, 27.27, 22.02, 30.77)
        # with a tail reflected along rounding noise).
        for seed in (1, 2, 3):
            data = simulated_data(50, p, seed=seed)
            u = fit_mle(data).u
            np.testing.assert_allclose(estimate_lambdas(data, -u), estimate_lambdas(data, u),
                                       rtol=1e-12)

    def test_degenerate_subspace_data(self):
        v = np.array([1.0, 2.0, 0.5])
        X = np.outer(np.array([1.0, -2.0, 3.0, 0.5]), v)
        data = SampleSet(X)
        u = v / np.linalg.norm(v)
        with pytest.raises(DegenerateDataError):
            estimate_lambdas(data, u)


class TestProfileLoglik:
    def test_dominates_lower_bound(self, rng):
        data = simulated_data(30, 4, seed=5)
        for _ in range(50):
            u = random_unit(4, rng)
            assert profile_loglik(data, u) >= lower_bound_h(data, u) - 1e-10

    def test_even_in_direction_but_for_the_completion(self, rng):
        # The radius and the quadratic term are even in u; only the tail of
        # the completion tells u from -u.  At p = 2 the tails of u and -u
        # agree up to sign, so the profile is even.  At p > 2 the carried
        # frame gives -u another tail, and the two profiles differ by the
        # eigenvalue terms alone.
        data = simulated_data(15, 2, seed=6)
        u = random_unit(2, rng)
        assert profile_loglik(data, u) == pytest.approx(profile_loglik(data, -u), abs=1e-10)
        data = simulated_data(15, 3, seed=6)
        u = random_unit(3, rng)
        gap = -0.5 * data.n * np.log(estimate_lambdas(data, -u) / estimate_lambdas(data, u)).sum()
        assert profile_loglik(data, -u) - profile_loglik(data, u) == pytest.approx(gap, abs=1e-10)

    def test_matches_full_likelihood_at_plugin(self, rng):
        # Profiling only substitutes the closed-form maximizers, so the value
        # must equal the exact log likelihood at those plug-ins up to the
        # constant -(n p / 2) log(2 pi) that the convention drops.
        X = simulated_rows(25, 3, seed=7)
        data = SampleSet(X)
        const = -0.5 * data.n * data.p * np.log(2.0 * np.pi)
        for _ in range(10):
            u = random_unit(3, rng)
            c0 = estimate_c0(data, u)
            lam = estimate_lambdas(data, u)
            assert profile_loglik(data, u) + const == pytest.approx(
                _full_loglik(X, transport_frame(data.frame, u), c0, lam), abs=1e-8
            )

    def test_p2_grid_maximizer_matches_full_likelihood_grid(self):
        # Dense-angle oracle: the profile maximizer over 10^4 directions must
        # agree with the argmax of the exact profiled likelihood on the same
        # grid (directions are identified up to sign).
        X = simulated_rows(40, 2, seed=8)
        data = SampleSet(X)
        thetas = np.linspace(0.0, np.pi, 10_000, endpoint=False)
        prof = np.empty_like(thetas)
        full = np.empty_like(thetas)
        for i, th in enumerate(thetas):
            u = np.array([np.cos(th), np.sin(th)])
            prof[i] = profile_loglik(data, u)
            c0 = estimate_c0(data, u)
            lam = estimate_lambdas(data, u)
            full[i] = _full_loglik(X, transport_frame(data.frame, u), c0, lam)
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
        angle = np.arccos(min(abs(fit.u @ np.array([0.0, 1.0])), 1.0))
        assert angle < 0.05

    def test_constraint_holds_at_fit(self):
        fit = fit_mle(simulated_data(50, 4, seed=11))
        S = fit.covariance()
        mu = fit.mu
        assert np.linalg.norm(S @ mu - mu) < 1e-10 * max(1.0, np.linalg.norm(mu))

    def test_reflection_invariance(self):
        X = simulated_rows(30, 3, seed=12)
        fit1 = fit_mle(SampleSet(X))
        fit2 = fit_mle(SampleSet(-X))
        assert np.linalg.norm(fit1.covariance() - fit2.covariance()) < 1e-10

    def test_sign_convention(self):
        fit = fit_mle(simulated_data(25, 3, seed=13))
        assert fit.u @ simulated_data(25, 3, seed=13).xbar >= 0.0
        assert fit.c0 >= 0.0

    def test_profile_dominates_bound_at_fit(self):
        fit = fit_mle(simulated_data(40, 5, seed=14))
        assert fit.diagnostics["profile_loglik"] >= fit.diagnostics["lower_bound"]

    def test_lower_bound_optimality(self, rng):
        data = simulated_data(35, 3, seed=15)
        fit = fit_mle(data)
        best = lower_bound_h(data, fit.u)
        for _ in range(1000):
            assert best >= lower_bound_h(data, random_unit(3, rng)) - 1e-12

    def test_degenerate_single_direction(self):
        X = np.outer(np.array([1.0, 2.0, -1.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(DegenerateDataError):
            fit_mle(SampleSet(X))

    @pytest.mark.parametrize("scale", [1e-7, 1e-9, 1e-12])
    def test_fit_is_scale_equivariant(self, scale):
        # The degeneracy checks are relative to trace(A(xbar)), so small
        # full-rank data fit like the same data at unit scale.
        X = simulated_rows(50, 3, seed=1)
        fit = fit_mle(SampleSet(X))
        small = fit_mle(SampleSet(X * scale))
        assert np.allclose(small.u, fit.u, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(small.spectrum / scale**2, fit.spectrum, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-7])
    def test_affine_subspace_data_raise_at_any_scale(self, scale):
        X = simulated_rows(50, 3, seed=1)
        X[:, 2] = X[:, 0] + X[:, 1]
        with pytest.raises(DegenerateDataError):
            fit_mle(SampleSet(X * scale))

    def test_degenerate_fit_raises_again(self, monkeypatch):
        # The second call fits again and raises again; the frame it read is
        # kept on the data, so the eigh runs once over both calls.
        data = SampleSet(np.outer(np.array([1.0, 2.0, -1.0, 0.5]), np.array([1.0, 1.0])))
        eighs = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(1) or eigh(a))
        for _ in range(2):
            with pytest.raises(DegenerateDataError):
                fit_mle(data)
        assert len(eighs) == 1

    def test_second_fit_reads_the_kept_frame(self, monkeypatch):
        # No fit is kept: a second call on the same data returns a new Fit,
        # bit-equal to the first, with no eigh and no basis completion.
        data = simulated_data(50, 5, seed=18)
        fit = fit_mle(data)
        calls = []
        eigh, build = np.linalg.eigh, model_module.build_orthobasis
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or eigh(a))
        monkeypatch.setattr(model_module, "build_orthobasis",
                            lambda u: calls.append("build") or build(u))
        again = fit_mle(data)
        assert calls == []
        assert again is not fit
        for a, b in ((again.u, fit.u), (again.spectrum, fit.spectrum), (again.basis, fit.basis)):
            assert np.array_equal(a, b)
        assert again.c0 == fit.c0
        assert dict(again.diagnostics) == dict(fit.diagnostics)

    def test_equal_data_get_their_own_equal_fit(self):
        X = simulated_rows(60, 5, seed=20)
        fit = fit_mle(SampleSet(X))
        other = fit_mle(SampleSet(X))
        assert other is not fit
        for a, b in ((other.u, fit.u), (other.spectrum, fit.spectrum), (other.basis, fit.basis)):
            assert np.array_equal(a, b)
        assert other.c0 == fit.c0
        assert dict(other.diagnostics) == dict(fit.diagnostics)

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateDataError, match="two observations"):
            fit_mle(SampleSet(np.array([[1.0, 2.0, 3.0]])))

    def test_positive_spectrum(self):
        fit = fit_mle(simulated_data(50, 5, seed=16))
        assert np.all(fit.spectrum > 0.0)

    def test_smallest_eigenvalue_recorded(self):
        data = simulated_data(20, 3, seed=17)
        fit = fit_mle(data)
        evals = np.linalg.eigvalsh(data.scatter_about_mean())
        assert fit.diagnostics["smallest_eig_of_A_xbar"] == pytest.approx(evals[0])

    def test_one_basis_completion_per_fit(self, monkeypatch):
        # The fit's basis is the data's frame, completed once.
        calls = []
        build = model_module.build_orthobasis

        def counted(u):
            calls.append(1)
            return build(u)

        monkeypatch.setattr(model_module, "build_orthobasis", counted)
        data = simulated_data(50, 5, seed=18)
        fit = fit_mle(data)
        fit.covariance()
        assert len(calls) == 1
        assert fit.basis is data.frame

    @pytest.mark.parametrize(
        "n, p, seed", [(50, 3, 19), (60, 5, 20), (500, 50, 21), (60, 5, 34), (100, 10, 26)]
    )
    def test_stored_basis_is_completion_of_reported_direction(self, n, p, seed):
        data = simulated_data(n, p, seed=seed)
        fit = fit_mle(data)
        assert np.array_equal(fit.basis[:, 0], fit.u)
        assert np.array_equal(fit.basis, build_orthobasis(fit.u))
        sigma = structured_covariance(build_orthobasis(fit.u), fit.spectrum)
        assert np.array_equal(fit.covariance(), sigma)
        assert fit.diagnostics["profile_loglik"] == profile_loglik(data, fit.u)

    @pytest.mark.parametrize("p", [3, 5, 10, 50])
    def test_radius_is_estimate_c0_at_the_fit(self, p):
        # The radius is taken at the unit direction the fit reports, so it is
        # the README's c0 = u^T xbar bit for bit (hex compares signed zeros).
        for seed in range(8):
            data = simulated_data(max(50, 2 * p), p, seed=seed)
            fit = fit_mle(data)
            assert fit.c0.hex() == estimate_c0(data, fit.u).hex()

    @pytest.mark.parametrize("p", [3, 5])
    def test_zero_radius_is_estimate_c0_at_the_fit(self, p):
        # Integer rows and their negatives: the sample mean is exactly zero.
        half = np.random.default_rng(p).integers(-9, 10, size=(20, p)).astype(float)
        data = SampleSet(np.vstack([half, -half]))
        assert not np.any(data.xbar)
        fit = fit_mle(data)
        assert fit.c0 == 0.0 and fit.diagnostics["zero_radius"]
        assert fit.c0.hex() == estimate_c0(data, fit.u).hex()
