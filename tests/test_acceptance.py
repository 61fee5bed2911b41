"""Release acceptance suite.

Each test exercises one release gate end to end and emits a single
``[criterion N] name: PASS|FAIL`` line directly on the terminal (bypassing
capture) before asserting, so the tee'd run log carries a one-line verdict
per gate.
"""

import json
import time

import numpy as np
import pytest

from meancov import (
    PriorConfig,
    build_orthobasis,
    structured_covariance,
    estimate_c0,
    estimate_lambdas,
    fit_map_newton,
    fit_mle,
    h_gradient,
    h_hessian,
    h_value,
    lower_bound_h,
    niw_map,
    niw_posterior,
    run_gibbs,
)
from meancov.cli import EXIT_OK, main
from meancov.exceptions import RangeError
from meancov.cli import latlong_to_sphere
from meancov.gibbs import draw_lambda_conditional, lambda_conditional_params
from meancov.simulate import mle_estimator, niw_estimator, reports_to_records, run_experiment
from meancov.model import SampleSet
from scipy.stats import multivariate_normal

from conftest import (
    estimate_c0_general, niw_joint_log_density, random_unit, simulated_data, simulated_rows,
    siw_log_density,
)


@pytest.fixture
def verdict(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(tag: str, ok: bool) -> bool:
        line = f"[criterion] {tag}: {'PASS' if ok else 'FAIL'}"
        if reporter is not None:
            reporter.write_line(line)
        else:  # pragma: no cover - plugin always present under pytest
            print(line)
        return ok

    return emit


def test_criterion_1_constraint_and_orthogonality(verdict):
    # 1000 random (direction, spectrum) pairs across dimensions: the basis
    # is orthogonal, the assembled covariance keeps the mean direction as a
    # unit-eigenvalue eigenvector, and the determinant is the spectrum
    # product.
    start = time.time()
    rng = np.random.default_rng(1001)
    ok = True
    for p in (2, 3, 5, 10, 50):
        for _ in range(200):
            u = random_unit(p, rng)
            lam = rng.uniform(0.2, 9.0, size=p - 1)
            P = build_orthobasis(u)
            S = structured_covariance(P, lam)
            ok &= np.linalg.norm(P.T @ P - np.eye(p)) < 1e-10
            ok &= np.linalg.norm(S @ u - u) < 1e-10
            sign, logdet = np.linalg.slogdet(S)
            ok &= sign > 0 and abs(logdet - np.sum(np.log(lam))) < 1e-8 * max(
                1.0, abs(np.sum(np.log(lam)))
            )
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    assert verdict("1 constraint-and-orthogonality", bool(ok))


def test_criterion_2_mle_grid_optimality(verdict):
    # Dense direction grids at p = 2 and p = 3: the closed-form direction
    # estimate maximizes the concave surrogate over the sphere, and the two
    # radius formulas coincide.
    start = time.time()
    ok = True
    rng = np.random.default_rng(1002)

    for p, seed in ((2, 201), (3, 202)):
        data = simulated_data(60, p, seed=seed)
        fit = fit_mle(data)
        h_hat = lower_bound_h(data, fit.u)
        if p == 2:
            thetas = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
            grid = np.column_stack([np.cos(thetas), np.sin(thetas)])
        else:
            grid = rng.standard_normal((10_000, 3))
            grid /= np.linalg.norm(grid, axis=1, keepdims=True)
        for u in grid:
            ok &= h_hat >= lower_bound_h(data, u) - 1e-12
        # Radius formula equivalence at random directions and spectra.
        for _ in range(100):
            u = random_unit(p, rng)
            lam = rng.uniform(0.3, 8.0, size=p - 1)
            ok &= abs(estimate_c0(data, u) - estimate_c0_general(data, u, lam)) < 1e-12
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    assert verdict("2 mle-grid-optimality", bool(ok))


def test_criterion_3_derivative_certification(verdict):
    # Central finite differences certify the closed-form gradient of the
    # surrogate at 100 random points, and the Hessian against the
    # differentiated gradient.
    start = time.time()
    rng = np.random.default_rng(1003)
    ok = True
    for p in (3, 5):
        data = simulated_data(40, p, seed=300 + p)
        prior = PriorConfig.default(data)
        for _ in range(50):
            u = rng.standard_normal(p)
            u /= np.linalg.norm(u)
            c0 = rng.uniform(0.2, 2.5)
            g = h_gradient(data, u, c0, prior)
            step = 1e-5
            fd = np.empty(p)
            for i in range(p):
                e = np.zeros(p)
                e[i] = step
                fd[i] = (
                    h_value(data, u + e, c0, prior) - h_value(data, u - e, c0, prior)
                ) / (2.0 * step)
            ok &= np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-5
            H = h_hessian(data, u, c0, prior)
            step = 1e-6
            fdh = np.empty((p, p))
            for i in range(p):
                e = np.zeros(p)
                e[i] = step
                fdh[:, i] = (
                    h_gradient(data, u + e, c0, prior) - h_gradient(data, u - e, c0, prior)
                ) / (2.0 * step)
            ok &= np.linalg.norm(fdh - H) / np.linalg.norm(H) < 1e-4
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    assert verdict("3 derivative-certification", bool(ok))


def test_criterion_4_newton_behavior(verdict):
    # 20 simulated datasets at n = 50: the alternating Newton fit converges
    # with a monotone surrogate trace in at most 10 outer iterations.
    ok = True
    for p in (3, 5):
        for seed in range(10):
            data = simulated_data(50, p, seed=400 + 10 * p + seed)
            fit = fit_map_newton(data, PriorConfig.default(data))
            ok &= fit.converged
            ok &= fit.outer_iterations <= 10
            ok &= bool(np.all(np.diff(fit.diagnostics["h_trace"]) >= 0.0))
    assert verdict("4 newton-convergence", bool(ok))


def test_criterion_5_gibbs_calibration(verdict):
    # Long-run Metropolis-Hastings acceptance rate at (n=50, p=3) under the
    # reference hyperparameters, plus a moment check of the inverse-gamma
    # eigenvalue conditional over 10^4 draws.
    data = simulated_data(50, 3, seed=500)
    prior = PriorConfig.default(data)
    run = run_gibbs(data, prior, s=2000, l=5, rng=np.random.default_rng(1005))
    rate = run.acceptance_rate
    rate_ok = 0.30 <= rate <= 0.52

    rng = np.random.default_rng(1006)
    draws = np.array(
        [draw_lambda_conditional(data, data.xbar, prior, rng) for _ in range(10_000)]
    )
    shape, scales = lambda_conditional_params(data, data.xbar, prior)
    analytic_mean = scales / (shape - 1.0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    ig_ok = bool(np.all(np.abs(draws.mean(axis=0) - analytic_mean) < 3.0 * se))

    ok = rate_ok and ig_ok
    verdict("5 gibbs-calibration", ok)
    assert ig_ok, "inverse-gamma conditional mean outside 3 standard errors"
    assert rate_ok, (
        f"long-run MH acceptance rate {rate:.4f} ({run.accepted} of {run.proposals} "
        "proposals) outside the band [0.30, 0.52]"
    )


def test_criterion_6_risk_table_reproduction(verdict):
    # Desk-scale risk comparison: constrained MLE against the unconstrained
    # conjugate baseline over {(50,3), (100,3), (50,5)} x 100 replications.
    start = time.time()
    estimators = {"niw": niw_estimator, "mle": mle_estimator}
    reports = run_experiment(
        [(50, 3), (100, 3), (50, 5)], estimators=estimators, reps=100, seed=600
    )
    records = {
        (r["n"], r["p"], r["estimator"]): r for r in reports_to_records(reports)
    }
    mean_ok = True
    sigma_ok = True
    details = []
    for n, p, bound in ((50, 3, 0.7), (100, 3, 0.7), (50, 5, 0.9)):
        rec = records[(n, p, "mle")]
        mean_ratio = rec["ratio_vs_niw_mean"]
        sigma_ratio = rec["ratio_vs_niw_sigma"]
        mean_ok &= mean_ratio < bound
        sigma_ok &= 0.8 <= sigma_ratio <= 1.8
        details.append(f"({n},{p}): mean {mean_ratio:.3f}, sigma {sigma_ratio:.3f}")
    elapsed = time.time() - start
    time_ok = elapsed < 600.0
    verdict("6 risk-table-reproduction", bool(mean_ok and sigma_ok and time_ok))
    assert mean_ok and time_ok, "; ".join(details)
    assert sigma_ok, (
        "MLE/NIW covariance-risk ratio outside [0.8, 1.8]: " + "; ".join(details) + ". "
        "Under the documented constraint-projection truth (well-separated unit "
        "eigenvalue against spectra near 25-40) the constrained MLE estimates the "
        "covariance strictly better than the shrunken conjugate baseline, so the "
        "ratio sits well below the band's lower edge"
    )


def test_criterion_7_niw_siw_identities(verdict):
    # Conjugate-baseline mode formula (grid-probe local-mode check at p=2)
    # and the shrinkage-prior conjugacy density-ratio identity.
    start = time.time()
    rng = np.random.default_rng(1007)
    ok = True

    data = simulated_data(12, 2, seed=700)
    params = niw_posterior(data, mu0=np.zeros(2), kappa0=2.0, nu0=3.0, Lambda0=np.eye(2))
    mu_hat, sigma_hat = niw_map(params)
    base = niw_joint_log_density(mu_hat, sigma_hat, params)
    for dx in np.linspace(-0.2, 0.2, 5):
        for dy in np.linspace(-0.2, 0.2, 5):
            ok &= niw_joint_log_density(mu_hat + [dx, dy], sigma_hat, params) <= base + 1e-12
    for s in np.linspace(0.8, 1.2, 5):
        for t in np.linspace(-0.1, 0.1, 5):
            sigma = s * sigma_hat + t * np.array([[0.0, 1.0], [1.0, 0.0]])
            if np.linalg.eigvalsh(sigma)[0] <= 0.0:
                continue
            ok &= niw_joint_log_density(mu_hat, sigma, params) <= base + 1e-12

    X3 = simulated_rows(10, 3, seed=701)
    data3 = SampleSet(X3)
    mu0 = rng.standard_normal(3)
    kappa0, nu0 = 2.0, 5.0
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    Lambda0 = (Q * rng.uniform(0.5, 4.0, 3)) @ Q.T
    post = niw_posterior(data3, mu0=mu0, kappa0=kappa0, nu0=nu0, Lambda0=Lambda0)

    def joint(mu, sigma):
        ll = multivariate_normal.logpdf(X3, mean=mu, cov=sigma).sum()
        pm = multivariate_normal.logpdf(mu, mean=mu0, cov=sigma / kappa0)
        return float(ll + pm + siw_log_density(sigma, nu0, 1.0, Lambda0))

    def posterior(mu, sigma):
        d = multivariate_normal.logpdf(mu, mean=post.mu_n, cov=sigma / post.kappa_n)
        return float(d + siw_log_density(sigma, post.nu_n, 1.0, post.Lambda_n))

    ref = None
    for _ in range(100):
        mu = rng.standard_normal(3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sigma = (Q * rng.uniform(0.5, 6.0, 3)) @ Q.T
        gap = joint(mu, sigma) - posterior(mu, sigma)
        if ref is None:
            ref = gap
        ok &= abs(gap - ref) < 1e-8
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    assert verdict("7 niw-siw-identities", bool(ok))


def test_criterion_8_cli_determinism_and_transforms(verdict, tmp_path):
    # No observational fixture ships with the package; the replacement gate
    # is byte-level determinism of the seeded CLI plus the latitude/longitude
    # transform checks.
    ok = True

    X = simulated_rows(40, 3, seed=800)
    csv = tmp_path / "data.csv"
    with open(csv, "w", encoding="utf-8") as fh:
        for row in X:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    out = str(tmp_path / "out.json")
    for command in (
        ["fit-mle", str(csv), "--out", out],
        ["fit-map-gibbs", str(csv), "--seed", "3", "--gibbs-s", "20", "--out", out],
    ):
        ok &= main(command) == EXIT_OK
        with open(out, "rb") as fh:
            b1 = fh.read()
        ok &= main(command) == EXIT_OK
        with open(out, "rb") as fh:
            b2 = fh.read()
        ok &= b1 == b2
        ok &= json.loads(b1)["command"] == command[0]

    pole = latlong_to_sphere([(90.0, 10.0), (90.0, -120.0)])
    ok &= np.allclose(pole, [[0.0, 0.0, 1.0]] * 2, atol=1e-12)
    eq = latlong_to_sphere([(0.0, 0.0), (0.0, 90.0)])
    ok &= np.allclose(eq[0], [1.0, 0.0, 0.0], atol=1e-12)
    ok &= np.allclose(eq[1], [0.0, 1.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(1008)
    rows = [(float(a), float(b)) for a, b in zip(rng.uniform(-90, 90, 50), rng.uniform(-180, 360, 50))]
    ok &= np.allclose(np.linalg.norm(latlong_to_sphere(rows), axis=1), 1.0, atol=1e-12)
    for bad in ([(91.0, 0.0), (0.0, 0.0)], [(0.0, 360.0), (0.0, 0.0)]):
        try:
            latlong_to_sphere(bad)
            ok = False
        except RangeError:
            pass
    assert verdict("8 cli-determinism-and-transforms", bool(ok))


def test_criterion_9_prior_free_reduction(verdict):
    # With the prior influence switched off the Newton MAP must reproduce
    # the closed-form MLE on random datasets.
    ok = True
    for seed in range(10):
        p = 3 + seed % 3
        data = simulated_data(50, p, seed=900 + seed)
        flat = PriorConfig(mu0=np.zeros(p), kappa0=0.0, a=-0.5, h0_diag=np.zeros(p))
        mle = fit_mle(data)
        fit = fit_map_newton(data, flat)
        ok &= np.linalg.norm(fit.mu - mle.mu) < 1e-6
        ok &= np.linalg.norm(fit.spectrum - mle.spectrum) < 1e-6
    assert verdict("9 prior-free-reduction", bool(ok))
