"""Tests for the lower-bound Newton MAP approximation."""

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from meancov import (
    PriorConfig,
    ZeroVectorError,
    estimate_c0,
    estimate_lambdas,
    fit_map_newton,
    fit_mle,
    h_gradient,
    h_hessian,
    h_value,
    hn_diagonal,
    log_posterior,
    map_c0_update,
    map_lambda_update,
    structured_covariance,
    transport_frame,
)
from meancov import model as model_module
from meancov import newton_map
from meancov.gibbs import _Posterior, lambda_conditional_params
from conftest import hn_diagonal_reference, random_unit, simulated_data


def prior_free(p: int) -> PriorConfig:
    """The degenerate hyperparameters under which the posterior is the likelihood.

    The inverse-gamma exponent collapses (2t = n) at a = -1/2 together with
    kappa0 = 0 and H0 = 0, so every posterior quantity reduces to its MLE
    counterpart.
    """
    return PriorConfig(mu0=np.zeros(p), kappa0=0.0, a=-0.5, h0_diag=np.zeros(p))


@pytest.fixture
def case():
    data = simulated_data(50, 3, seed=31)
    return data, PriorConfig.default(data)


class TestC0Update:
    def test_prior_free_limit_is_mle_radius(self, case, rng):
        data, _ = case
        u = random_unit(3, rng)
        c0 = map_c0_update(data, u, np.array([3.0, 2.0]), prior_free(3))
        assert c0 == pytest.approx(estimate_c0(data, u), abs=1e-12)

    def test_fixed_point_when_prior_mean_on_ray(self, case, rng):
        # The update has a fixed point exactly where the data pull vanishes:
        # anchoring the prior mean at (u'xbar) u makes that projection the
        # solution, so re-running the update must return it unchanged.
        data, prior = case
        u = random_unit(3, rng)
        lam = np.array([4.0, 6.0])
        c0 = estimate_c0(data, u)
        anchored = PriorConfig(mu0=c0 * u, kappa0=prior.kappa0, a=prior.a, h0_diag=prior.h0_diag)
        assert map_c0_update(data, u, lam, anchored) == pytest.approx(c0, abs=1e-12)

    def test_maximizes_conditional_posterior(self, case, rng):
        data, prior = case
        for _ in range(10):
            u = random_unit(3, rng)
            lam = rng.uniform(1.0, 20.0, 2)
            c0 = map_c0_update(data, u, lam, prior)
            # In the completion of u, the conditional log posterior is
            # exactly quadratic in the radius, so the vertex of a three-point
            # parabola through any symmetric stencil recovers its maximizer.
            # For c > 0 it is log_posterior at c u; a mean c u with c < 0 has
            # the direction -u, whose carried frame is not [-u | V(u)].
            h = 0.25
            P = transport_frame(data.frame, u)
            post = _Posterior(data, prior)
            sweep = post.sweep(lam)

            def f(c):
                hn = hn_diagonal_reference(data, c * u, P, prior)
                return post.log_density(hn[0], hn[1:], sweep)

            c_pos = abs(c0) + 2.0 * h
            assert f(c_pos) == pytest.approx(log_posterior(data, c_pos * u, lam, prior), rel=1e-12)
            lo, mid, hi = f(c0 - h), f(c0), f(c0 + h)
            vertex = c0 - 0.5 * h * (hi - lo) / (hi - 2.0 * mid + lo)
            assert c0 == pytest.approx(vertex, abs=1e-6)


class TestLambdaUpdate:
    def test_prior_free_limit_is_mle_spectrum(self, case, rng):
        data, _ = case
        u = random_unit(3, rng)
        lam = map_lambda_update(data, u, float(u @ data.xbar), prior_free(3))
        assert np.allclose(lam, estimate_lambdas(data, u), atol=1e-12)

    def test_negative_radius_takes_the_completion_of_the_mean(self, case, rng):
        # c0 u with c0 < 0 is the mean |c0| (-u): the eigenvalues are taken
        # in the completion of -u, so (u, c0) and (-u, -c0) give one answer.
        data, prior = case
        for _ in range(20):
            u = random_unit(3, rng)
            c0 = rng.uniform(0.1, 3.0)
            assert np.array_equal(map_lambda_update(data, u, -c0, prior),
                                  map_lambda_update(data, -u, c0, prior))

    def test_equals_conditional_mode(self, case, rng):
        data, prior = case
        u = random_unit(3, rng)
        lam = map_lambda_update(data, u, 1.2, prior)
        shape, scales = lambda_conditional_params(data, 1.2 * u, prior)
        assert np.allclose(lam, scales / (shape + 1.0), atol=1e-12)

    def test_hand_sized_naive_oracle(self):
        from meancov import SampleSet

        X = np.array([[1.0, 0.5], [0.2, -0.3], [0.8, 1.1]])
        data = SampleSet(X)
        prior = PriorConfig(
            mu0=np.array([0.4, 0.1]), kappa0=2.0, a=3.0, h0_diag=np.array([1.0, 0.7])
        )
        mu = np.array([0.6, 0.3])
        u = mu / np.linalg.norm(mu)
        lam = map_lambda_update(data, u, np.linalg.norm(mu), prior)
        V = transport_frame(data.frame, u)[:, 1:]
        d = mu - prior.mu0
        hn_tail = float(V[:, 0] @ data.a0 @ V[:, 0]) + prior.kappa0 * d[1] ** 2 + 0.7
        t = 0.5 * (3.0 + 1.0 + 2.0 * 3.0)
        assert lam[0] == pytest.approx(hn_tail / (2.0 * t), abs=1e-10)

    @pytest.mark.parametrize("a", [-25.5, -30.0])  # n + 1 + 2a = 0 and < 0 at n = 50
    def test_no_mode_without_a_positive_shape(self, case, a):
        # Raised before any logarithm of a non-positive shape is taken.
        data, default = case
        prior = PriorConfig(mu0=default.mu0, kappa0=default.kappa0, a=a, h0_diag=default.h0_diag)
        with pytest.raises(ValueError, match=r"n \+ 1 \+ 2a must be > 0"):
            map_lambda_update(data, data.xbar / np.linalg.norm(data.xbar), 1.0, prior)
        with pytest.raises(ValueError, match=r"n \+ 1 \+ 2a must be > 0"):
            fit_map_newton(data, prior)


def _profiled_posterior(data, u, c0, prior):
    """Exact profiled log posterior with the eigenvalues at their closed-form
    maximizers; used as the upper envelope for h."""
    hn = hn_diagonal(data, c0 * u, prior)
    t = 0.5 * (data.n + 1.0 + 2.0 * prior.a)
    return float(-t * np.sum(np.log(hn[1:] / (2.0 * t))) - 0.5 * (hn[0] + (data.p - 1) * t))


class TestHValue:
    def test_bounded_by_profiled_posterior(self, case, rng):
        data, prior = case
        for _ in range(1000):
            u = random_unit(3, rng)
            c0 = rng.uniform(0.1, 3.0)
            assert h_value(data, u, c0, prior) <= _profiled_posterior(data, u, c0, prior) + 1e-9

    def test_sign_flip_invariance_with_centered_prior(self, case, rng):
        # (u, c0) and (-u, -c0) describe the same mean vector, and with a
        # centered prior the surrogate depends on the pair only through it.
        data, _ = case
        prior = PriorConfig(mu0=np.zeros(3), kappa0=1.5, a=4.0, h0_diag=np.ones(3))
        u = random_unit(3, rng)
        assert h_value(data, u, 1.1, prior) == pytest.approx(h_value(data, -u, -1.1, prior))

    def test_prior_free_maximizer_is_smallest_eigenvector(self, case, rng):
        data, _ = case
        prior = prior_free(3)
        fit = fit_mle(data)
        u_hat, c0 = fit.u, fit.c0
        best = h_value(data, u_hat, c0, prior)
        for _ in range(500):
            assert best >= h_value(data, random_unit(3, rng), c0, prior) - 1e-9


class TestDerivatives:
    @pytest.mark.parametrize("p", [3, 5])
    def test_gradient_finite_differences(self, p, rng):
        data = simulated_data(40, p, seed=32 + p)
        prior = PriorConfig.default(data)
        for _ in range(50):
            u = rng.standard_normal(p)
            u /= np.linalg.norm(u)
            c0 = rng.uniform(0.2, 2.5)
            g = h_gradient(data, u, c0, prior)
            fd = np.empty(p)
            step = 1e-5
            for i in range(p):
                e = np.zeros(p)
                e[i] = step
                fd[i] = (h_value(data, u + e, c0, prior) - h_value(data, u - e, c0, prior)) / (
                    2.0 * step
                )
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-5

    def test_hessian_symmetry_and_finite_differences(self, rng):
        data = simulated_data(40, 3, seed=33)
        prior = PriorConfig.default(data)
        for _ in range(20):
            u = random_unit(3, rng)
            c0 = rng.uniform(0.2, 2.5)
            H = h_hessian(data, u, c0, prior)
            assert np.linalg.norm(H - H.T) < 1e-10
            fd = np.empty((3, 3))
            step = 1e-6
            for i in range(3):
                e = np.zeros(3)
                e[i] = step
                fd[:, i] = (
                    h_gradient(data, u + e, c0, prior) - h_gradient(data, u - e, c0, prior)
                ) / (2.0 * step)
            assert np.linalg.norm(fd - H) / np.linalg.norm(H) < 1e-4

    def test_p2_dense_maximizer_is_stationary(self):
        # Ambient maximizer found by derivative-free search; the gradient
        # must vanish there.
        data = simulated_data(30, 2, seed=34)
        prior = PriorConfig.default(data)
        c0 = float(np.linalg.norm(data.xbar))
        best = None
        for theta in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            x0 = np.array([np.cos(theta), np.sin(theta)])
            res = minimize(
                lambda v: -h_value(data, v, c0, prior), x0, method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 5000},
            )
            if best is None or res.fun < best.fun:
                best = res
        # The derivative-free search only locates the basin; polish with a
        # few damped Newton solves before asserting stationarity.  The
        # gradient and Hessian themselves are certified against finite
        # differences in the tests above.
        v = np.asarray(best.x, dtype=float)
        for _ in range(20):
            g = h_gradient(data, v, c0, prior)
            H = h_hessian(data, v, c0, prior)
            step = np.linalg.solve(H, g)
            if not np.all(np.isfinite(step)):
                break
            v = v - step
            if np.linalg.norm(step) < 1e-14:
                break
        assert -h_value(data, v, c0, prior) <= best.fun + 1e-9
        grad = h_gradient(data, v, c0, prior)
        assert np.linalg.norm(grad) < 1e-6


class TestFitMapNewton:
    def test_converges_quickly_with_monotone_trace(self):
        for seed in range(5):
            data = simulated_data(50, 3, seed=40 + seed)
            fit = fit_map_newton(data, PriorConfig.default(data))
            assert fit.converged
            assert fit.outer_iterations <= 5
            assert np.all(np.diff(fit.diagnostics["h_trace"]) >= 0.0)

    def test_h_trace_cannot_be_written(self):
        data = simulated_data(50, 3, seed=40)
        fit = fit_map_newton(data, PriorConfig.default(data))
        trace = fit.diagnostics["h_trace"]
        before = list(trace)
        with pytest.raises(AttributeError):
            trace.append(99.0)
        assert list(fit.diagnostics["h_trace"]) == before

    def test_prior_free_reduction_to_mle(self):
        data = simulated_data(50, 4, seed=45)
        mle = fit_mle(data)
        fit = fit_map_newton(data, prior_free(4))
        assert np.linalg.norm(fit.mu - mle.mu) < 1e-6
        assert np.linalg.norm(fit.spectrum - mle.spectrum) < 1e-6

    def test_continuity_of_converged_covariance(self, rng):
        data = simulated_data(50, 3, seed=46)
        prior = PriorConfig.default(data)
        base = fit_mle(data)
        du = rng.standard_normal(3) * 1e-7
        u2 = base.u + du
        u2 /= np.linalg.norm(u2)
        fit1 = fit_map_newton(data, prior, init_mu=base.mu)
        fit2 = fit_map_newton(data, prior, init_mu=base.c0 * u2)
        assert np.linalg.norm(base.u - u2) < 1e-6
        diff = np.linalg.norm(fit1.covariance() - fit2.covariance())
        assert diff < 1e-4

    def test_constraint_holds_at_fit(self):
        data = simulated_data(50, 5, seed=47)
        fit = fit_map_newton(data, PriorConfig.default(data))
        S = fit.covariance()
        mu = fit.mu
        assert np.linalg.norm(S @ mu - mu) < 1e-8 * max(1.0, np.linalg.norm(mu))

    def test_non_convergence_reported(self, monkeypatch):
        # Start far from the optimum with an unattainable tolerance and a
        # single outer pass: the direction must still be moving when the
        # iteration budget runs out, so the fit reports non-convergence.
        data = simulated_data(50, 3, seed=48)
        monkeypatch.setattr(newton_map, "EPSILON", 1e-300)
        monkeypatch.setattr(newton_map, "MAX_OUTER", 1)
        far = np.array([0.0, 0.0, 1.0])
        fit = fit_map_newton(data, PriorConfig.default(data), init_mu=far)
        assert fit.outer_iterations == 1
        assert not fit.converged

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_unusable_hessian_falls_back_to_gradient_steps(self, monkeypatch, fill):
        # A singular Hessian makes the solve raise; a NaN one makes it return
        # a non-finite step.  Either way every inner step is a backtracked
        # gradient step, which must still climb the surrogate from far away.
        data = simulated_data(50, 3, seed=48)
        far = np.array([0.0, 0.0, 1.0])
        monkeypatch.setattr(newton_map, "h_hessian", lambda *args: np.full((3, 3), fill))
        fit = fit_map_newton(data, PriorConfig.default(data), init_mu=far)
        trace = fit.diagnostics["h_trace"]
        assert len(trace) > 2
        assert np.all(np.diff(trace) >= 0.0)
        assert not np.array_equal(fit.u, far)

    def test_zero_length_trial_is_skipped(self, monkeypatch):
        # A Newton step equal to u makes the full-length trial u - v the zero
        # vector: it is skipped, not normalised, and the shorter trials run.
        data = simulated_data(50, 3, seed=48)
        gradient, norm = newton_map.h_gradient, newton_map._norm
        at, norms = [], []  # the directions h_gradient is taken at; every norm taken
        monkeypatch.setattr(newton_map, "h_gradient",
                            lambda d, u, *args: at.append(u) or gradient(d, u, *args))
        monkeypatch.setattr(newton_map.np.linalg, "solve", lambda a, b: at[-1].copy())
        monkeypatch.setattr(newton_map, "_norm", lambda v: norms.append(norm(v)) or norms[-1])
        fit = fit_map_newton(data, PriorConfig.default(data))
        assert 0.0 in norms
        assert np.all(np.isfinite(fit.u)) and np.isfinite(fit.c0)
        assert np.all(np.isfinite(fit.spectrum))
        assert np.all(np.diff(fit.diagnostics["h_trace"]) >= 0.0)

    # The fit's u is the first column of its basis: no second normalisation
    # moves its bits, so the basis, the covariance and the eigenvalue refresh
    # are those of fit.u.
    @pytest.mark.parametrize(
        "n, p, seed",
        [(50, 3, 6), (60, 5, 20), (60, 5, 37), (50, 3, 82), (200, 10, 0), (60, 5, 23)],
    )
    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    def test_stored_basis_is_completion_of_reported_direction(self, n, p, seed, flat, warm):
        data = simulated_data(n, p, seed=seed)
        prior = prior_free(data.p) if flat else PriorConfig.default(data)
        fit = fit_map_newton(data, prior, init_mu=data.xbar if warm else None)
        assert np.array_equal(fit.basis[:, 0], fit.u)
        assert np.array_equal(fit.basis, transport_frame(data.frame, fit.u))
        sigma = structured_covariance(transport_frame(data.frame, fit.u), fit.spectrum)
        assert np.array_equal(fit.covariance(), sigma)
        assert np.array_equal(fit.spectrum, map_lambda_update(data, fit.u, fit.c0, prior))

    # The iteration reads the data through the frame's statistics: the frame
    # is completed once per data set, and the one basis carried is the fit's.
    @pytest.mark.parametrize(
        "n, p, seed", [(50, 3, 6), (60, 5, 20), (60, 5, 37), (50, 3, 82), (200, 10, 0)]
    )
    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    def test_completes_one_explicit_basis_the_fits_own(self, monkeypatch, n, p, seed, flat, warm):
        data = simulated_data(n, p, seed=seed)
        prior = prior_free(data.p) if flat else PriorConfig.default(data)
        built, carried = [], []
        build, carry = model_module.build_orthobasis, model_module.transport_frame
        monkeypatch.setattr(model_module, "build_orthobasis",
                            lambda u: built.append(np.array(u)) or build(u))
        monkeypatch.setattr(model_module, "transport_frame",
                            lambda f, u: carried.append(np.array(u)) or carry(f, u))
        fit = fit_map_newton(data, prior, init_mu=data.xbar if warm else None)
        fit.covariance()
        assert len(built) == 1  # the data's frame
        assert len(carried) == 1 and np.array_equal(carried[0], fit.u)

    def test_start_vector_is_factored_into_direction_and_radius(self, monkeypatch, rng):
        data = simulated_data(40, 4, seed=49)
        prior = PriorConfig.default(data)
        v = random_unit(4, rng)
        inputs = []
        update = newton_map.map_lambda_update
        monkeypatch.setattr(newton_map, "map_lambda_update",
                            lambda d, u, c0, pr: inputs.append((u, c0)) or update(d, u, c0, pr))
        monkeypatch.setattr(newton_map, "MAX_OUTER", 1)
        fit = fit_map_newton(data, prior, init_mu=2.5 * v)
        assert np.allclose(inputs[0][0], v, atol=1e-15)
        assert inputs[0][1] == pytest.approx(2.5, rel=1e-15)
        assert fit.diagnostics["h_trace"][0] == pytest.approx(h_value(data, v, 2.5, prior))

    def test_zero_start_vector_rejected(self):
        data = simulated_data(40, 3, seed=49)
        with pytest.raises(ZeroVectorError):
            fit_map_newton(data, PriorConfig.default(data), init_mu=np.zeros(3))

    def test_negative_radius_moves_sign_onto_direction(self):
        # Started at the mirror image of the MLE direction, the flat-prior
        # radius refresh u^T xbar is negative and stays so; the fit reports
        # the same mean with a nonnegative radius.
        data = simulated_data(50, 3, seed=6)
        mle = fit_mle(data)
        fit = fit_map_newton(data, prior_free(3), init_mu=-mle.u)
        assert fit.c0 > 0.0
        assert fit.u @ mle.u > 0.99
        assert np.array_equal(fit.basis, transport_frame(data.frame, fit.u))
        assert np.allclose(fit.mu, mle.mu, atol=1e-6)
        assert np.array_equal(fit.spectrum, map_lambda_update(data, fit.u, fit.c0, prior_free(3)))

    def test_refreshes_at_a_negative_radius_use_the_completion_of_the_mean(self, monkeypatch):
        # Started at -u_hat under the flat prior, every radius refresh is
        # negative, so the mean c0 u points along -u.  Each eigenvalue
        # refresh equals map_lambda_update(data, sign(c0) u, |c0|), and the
        # explicit oracle in the completion of sign(c0) u.
        data = simulated_data(50, 3, seed=6)
        prior = prior_free(3)
        refreshes = []
        update = newton_map.map_lambda_update

        def recorded(d, u, c0, pr):
            refreshes.append((u, c0, update(d, u, c0, pr)))
            return refreshes[-1][2]

        monkeypatch.setattr(newton_map, "map_lambda_update", recorded)
        fit = fit_map_newton(data, prior, init_mu=-fit_mle(data).u)
        monkeypatch.undo()
        assert min(c0 for _, c0, _ in refreshes) < 0.0
        t = data.n + 1.0 + 2.0 * prior.a
        for u, c0, lam in refreshes:
            v = u if c0 >= 0.0 else -u
            assert np.array_equal(lam, map_lambda_update(data, v, abs(c0), prior))
            hn = hn_diagonal_reference(data, c0 * u, data.completion(v), prior)
            np.testing.assert_allclose(lam, hn[1:] / t, rtol=1e-12)
        assert np.array_equal(refreshes[-1][2], fit.spectrum)

