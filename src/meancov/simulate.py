"""Monte-Carlo risk comparison of the constrained estimators.

Truth generation draws a standard-normal mean and a random factor-style
covariance ``Psi = L L^T`` (diagonal of ``L`` centered at five), then
projects the pair onto the constrained model class by keeping ``Psi``'s
quadratic forms along the basis completion of the mean direction.  Each
replication runs every estimator on the same data; risks are scaled squared
Frobenius errors averaged over replications and reported as ratios against
the normal-inverse-Wishart baseline.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gibbs import PriorConfig, map_from_chain, run_gibbs
from .mle import fit_mle
from .model import (
    EigenSpectrum,
    SampleSet,
    StructuredCovariance,
    assemble_sigma,
    build_orthobasis,
    tail_quadratic_forms,
)
from .newton_map import NewtonConfig, fit_map_newton
from .niw import niw_map, niw_posterior

GIBBS_MAX_P = 5

# An estimator maps (data, rng) to (mean estimate, covariance estimate, extras).
EstimatorFn = Callable[[SampleSet, np.random.Generator], tuple[np.ndarray, np.ndarray, dict]]


@dataclass(frozen=True)
class TruthSpec:
    """A constrained truth pair for one replication."""

    mu_true: np.ndarray
    sigma_true: StructuredCovariance
    seed: int | None = None

    @property
    def p(self) -> int:
        return self.mu_true.size


@dataclass(frozen=True)
class RiskReport:
    """Per-cell, per-estimator Monte-Carlo risk summary."""

    n: int
    p: int
    estimator: str
    mean_risk: float
    sigma_risk: float
    replications: int
    failures: int
    elapsed: float
    acceptance_rate: float | None = None
    ratio_vs_niw_mean: float | None = None
    ratio_vs_niw_sigma: float | None = None


def generate_truth(p: int, rng: np.random.Generator, seed: int | None = None) -> TruthSpec:
    """Draw a mean and covariance satisfying the eigenvector constraint.

    The raw pair ``(mu, Psi = L L^T)`` generally violates the constraint, so
    the covariance is rebuilt as ``u u^T + sum_i (V_i^T Psi V_i) V_i V_i^T``
    with ``u = mu / ||mu||``: the quadratic forms of ``Psi`` along the
    orthocomplement directions are preserved and ``Sigma mu = mu`` holds
    exactly.
    """
    if p < 2:
        raise ValueError("need dimension p >= 2")
    mu = rng.standard_normal(p)
    L = rng.standard_normal((p, p))
    L[np.diag_indices(p)] += 5.0
    psi = L @ L.T
    assert np.linalg.eigvalsh(psi)[0] > 0.0
    basis = build_orthobasis(mu / np.linalg.norm(mu))
    lam = tail_quadratic_forms(psi, basis.tail)
    return TruthSpec(mu_true=mu, sigma_true=assemble_sigma(basis, EigenSpectrum(lam)), seed=seed)


def sample_data(spec: TruthSpec, n: int, rng: np.random.Generator) -> SampleSet:
    """Draw n i.i.d. multivariate normal rows from the truth via Cholesky."""
    if n < 2:
        raise ValueError("need at least two observations")
    L = np.linalg.cholesky(spec.sigma_true.matrix)
    Z = rng.standard_normal((n, spec.p))
    return SampleSet(spec.mu_true + Z @ L.T)


def frobenius_risk(estimates, truth: TruthSpec) -> tuple[float, float]:
    """Scaled squared Frobenius risks averaged over replications.

    ``estimates`` is a nonempty list of (mean estimate, covariance estimate)
    pairs; each loss is divided by the dimension.
    """
    if not estimates:
        raise ValueError("cannot average risks over an empty list of estimates")
    p = truth.p
    mean_risk = float(
        np.mean([np.sum((mu_hat - truth.mu_true) ** 2) / p for mu_hat, _ in estimates])
    )
    sigma = truth.sigma_true.matrix
    sigma_risk = float(
        np.mean([np.sum((S_hat - sigma) ** 2) / p for _, S_hat in estimates])
    )
    return mean_risk, sigma_risk


def mle_estimator(data: SampleSet, rng: np.random.Generator):
    fit = fit_mle(data)
    return fit.mean.mu, fit.covariance().matrix, {}


def map_newton_estimator(
    data: SampleSet,
    rng: np.random.Generator,
    prior: PriorConfig | None = None,
    cfg: NewtonConfig | None = None,
):
    if prior is None:
        # The harness runs the fast MAP in its flat-prior configuration so
        # that the risk columns are comparable against the MLE columns; the
        # informative reference prior shrinks the eigenvalues by a factor
        # n / (n + 1 + 2a) and would inflate the covariance risk.
        prior = PriorConfig(
            mu0=np.zeros(data.p),
            kappa0=0.0,
            a=-0.5,
            h0_diag=np.zeros(data.p),
        )
    fit = fit_map_newton(data, prior, cfg)
    return fit.mean.mu, fit.covariance().matrix, {"converged": fit.converged}


def gibbs_estimator(
    data: SampleSet,
    rng: np.random.Generator,
    prior: PriorConfig | None = None,
    s: int = 100,
    l: int = 5,
):
    if prior is None:
        prior = PriorConfig.default(data)
    run = run_gibbs(data, prior, s=s, l=l, rng=rng)
    mean, spectrum = map_from_chain(run.states, data, prior)
    sigma = assemble_sigma(build_orthobasis(mean.u), spectrum).matrix
    return mean.mu, sigma, {"acceptance_rate": run.acceptance_rate}


def niw_estimator(data: SampleSet, rng: np.random.Generator, kappa0: float = 1.5):
    params = niw_posterior(
        data, mu0=data.xbar, kappa0=kappa0, nu0=data.p + 1, Lambda0=np.eye(data.p)
    )
    mu_hat, sigma_hat = niw_map(params, data.p)
    return mu_hat, sigma_hat, {}


def default_estimators(p: int, include_gibbs: bool | None = None) -> dict[str, EstimatorFn]:
    """Estimator battery for one grid cell.

    The Gibbs MAP is included only for ``p <= 5`` unless forced; its runtime
    grows steeply with the dimension.
    """
    ests: dict[str, EstimatorFn] = {
        "niw": niw_estimator,
        "mle": mle_estimator,
        "map-newton": map_newton_estimator,
    }
    if include_gibbs is None:
        include_gibbs = p <= GIBBS_MAX_P
    if include_gibbs:
        ests["gibbs"] = gibbs_estimator
    return ests


def _estimator_rng(seed: int, cell: int, rep: int, name: str) -> np.random.Generator:
    # Deterministic per (cell, rep, estimator name); independent of the
    # order in which estimators run.
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, cell, rep, tag]))


def run_experiment(
    grid: list[tuple[int, int]],
    estimators: dict[str, EstimatorFn] | None = None,
    reps: int = 100,
    seed: int = 0,
    fix_truth: bool = False,
    include_gibbs: bool | None = None,
) -> list[RiskReport]:
    """Run the risk study over a grid of (n, p) cells.

    Each replication generates a fresh truth (unless ``fix_truth``) and a
    fresh data set shared by all estimators.  Estimator failures are counted
    and excluded from the averages.  Deterministic for a given seed.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    reports: list[RiskReport] = []
    for ci, (n, p) in enumerate(grid):
        ests = estimators if estimators is not None else default_estimators(p, include_gibbs)
        failures = {name: 0 for name in ests}
        acc_rates: dict[str, list[float]] = {name: [] for name in ests}
        elapsed = {name: 0.0 for name in ests}
        truth_losses: dict[str, list[tuple[float, float]]] = {name: [] for name in ests}

        fixed_truth = None
        if fix_truth:
            fixed_truth = generate_truth(
                p, np.random.default_rng(np.random.SeedSequence([seed, ci]))
            )
        for r in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, ci, r]))
            truth = fixed_truth if fix_truth else generate_truth(p, rng)
            data = sample_data(truth, n, rng)
            for name, fn in ests.items():
                est_rng = _estimator_rng(seed, ci, r, name)
                t0 = time.perf_counter()
                try:
                    mu_hat, sigma_hat, extras = fn(data, est_rng)
                except Exception:
                    failures[name] += 1
                    continue
                finally:
                    elapsed[name] += time.perf_counter() - t0
                m_loss = float(np.sum((mu_hat - truth.mu_true) ** 2) / p)
                s_loss = float(np.sum((sigma_hat - truth.sigma_true.matrix) ** 2) / p)
                truth_losses[name].append((m_loss, s_loss))
                if "acceptance_rate" in extras:
                    acc_rates[name].append(float(extras["acceptance_rate"]))

        risks = {}
        for name in ests:
            losses = truth_losses[name]
            if losses:
                risks[name] = (
                    float(np.mean([m for m, _ in losses])),
                    float(np.mean([s for _, s in losses])),
                )
            else:
                risks[name] = (float("nan"), float("nan"))
        niw_risk = risks.get("niw")
        for name in ests:
            m_risk, s_risk = risks[name]
            ratio_m = ratio_s = None
            if niw_risk is not None and np.isfinite(niw_risk[0]) and niw_risk[0] > 0:
                ratio_m = m_risk / niw_risk[0]
                ratio_s = s_risk / niw_risk[1]
            acc = float(np.mean(acc_rates[name])) if acc_rates[name] else None
            reports.append(
                RiskReport(
                    n=n,
                    p=p,
                    estimator=name,
                    mean_risk=m_risk,
                    sigma_risk=s_risk,
                    replications=reps - failures[name],
                    failures=failures[name],
                    elapsed=elapsed[name],
                    acceptance_rate=acc,
                    ratio_vs_niw_mean=ratio_m,
                    ratio_vs_niw_sigma=ratio_s,
                )
            )
    return reports


def reports_to_records(reports: list[RiskReport]) -> list[dict]:
    """Machine-readable rows, one per cell and estimator."""
    return [
        {
            "n": r.n,
            "p": r.p,
            "estimator": r.estimator,
            "mean_risk": r.mean_risk,
            "sigma_risk": r.sigma_risk,
            "ratio_vs_niw_mean": r.ratio_vs_niw_mean,
            "ratio_vs_niw_sigma": r.ratio_vs_niw_sigma,
            "acceptance_rate": r.acceptance_rate,
            "replications": r.replications,
            "failures": r.failures,
            "elapsed_seconds": r.elapsed,
        }
        for r in reports
    ]


def format_table(reports: list[RiskReport]) -> str:
    """Aligned text table of the risk study."""
    headers = [
        "n", "p", "estimator", "mean_risk", "sigma_risk",
        "ratio_mean", "ratio_sigma", "acc_rate", "fails",
    ]
    rows = []
    for r in reports:
        rows.append([
            str(r.n),
            str(r.p),
            r.estimator,
            f"{r.mean_risk:.4f}",
            f"{r.sigma_risk:.4f}",
            "-" if r.ratio_vs_niw_mean is None else f"{r.ratio_vs_niw_mean:.4f}",
            "-" if r.ratio_vs_niw_sigma is None else f"{r.ratio_vs_niw_sigma:.4f}",
            "-" if r.acceptance_rate is None else f"{r.acceptance_rate:.4f}",
            str(r.failures),
        ])
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
