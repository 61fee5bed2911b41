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
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .exceptions import MeanCovError
from .gibbs import PriorConfig, map_from_chain, run_gibbs
from .mle import fit_mle
from .model import (
    EigenSpectrum,
    SampleSet,
    StructuredCovariance,
    build_orthobasis,
    tail_quadratic_forms,
)
from .newton_map import fit_map_newton
from .niw import niw_map, niw_posterior

GIBBS_MAX_P = 5

# An estimator maps (data, rng) to (mean estimate, covariance estimate, extras).
EstimatorFn = Callable[[SampleSet, np.random.Generator], tuple[np.ndarray, np.ndarray, dict]]


@dataclass(frozen=True)
class TruthSpec:
    """A constrained truth pair for one replication."""

    mu_true: np.ndarray
    sigma_true: StructuredCovariance

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
    failure_types: dict[str, int]  # exception type name -> count; sums to ``failures``
    elapsed_seconds: float
    acceptance_rate: float | None = None
    ratio_vs_niw_mean: float | None = None
    ratio_vs_niw_sigma: float | None = None


def generate_truth(p: int, rng: np.random.Generator) -> TruthSpec:
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
    return TruthSpec(mu_true=mu, sigma_true=StructuredCovariance(basis, EigenSpectrum(lam)))


def sample_data(spec: TruthSpec, n: int, rng: np.random.Generator) -> SampleSet:
    """Draw n i.i.d. multivariate normal rows from the truth via Cholesky."""
    if n < 2:
        raise ValueError("need at least two observations")
    L = np.linalg.cholesky(spec.sigma_true.matrix)
    Z = rng.standard_normal((n, spec.p))
    return SampleSet(spec.mu_true + Z @ L.T)


def mle_estimator(data: SampleSet, rng: np.random.Generator):
    fit = fit_mle(data)
    return fit.mean.mu, fit.covariance().matrix, {}


def map_newton_estimator(data: SampleSet, rng: np.random.Generator):
    # The harness runs the fast MAP in its flat-prior configuration so that
    # the risk columns are comparable against the MLE columns; the
    # informative reference prior shrinks the eigenvalues by a factor
    # n / (n + 1 + 2a) and would inflate the covariance risk.
    prior = PriorConfig(mu0=np.zeros(data.p), kappa0=0.0, a=-0.5, h0_diag=np.zeros(data.p))
    fit = fit_map_newton(data, prior)
    return fit.mean.mu, fit.covariance().matrix, {}


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
    fit = map_from_chain(run.states, data, prior)
    return fit.mean.mu, fit.covariance().matrix, {"acceptance_rate": run.acceptance_rate}


def niw_estimator(data: SampleSet, rng: np.random.Generator):
    params = niw_posterior(data, mu0=data.xbar, kappa0=1.5, nu0=data.p + 1, Lambda0=np.eye(data.p))
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


def _risks(losses: list[tuple]) -> tuple[float, float]:
    """Mean and covariance risk: the average losses, NaN when every replication failed."""
    if not losses:
        return float("nan"), float("nan")
    return float(np.mean([m for m, _, _ in losses])), float(np.mean([s for _, s, _ in losses]))


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
    fresh data set shared by all estimators.  An estimator that raises a
    ``MeanCovError`` or ``LinAlgError`` fails that replication: the failure is
    counted by exception type and excluded from the averages.  Any other
    exception propagates.  Deterministic for a given seed.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    reports: list[RiskReport] = []
    for ci, (n, p) in enumerate(grid):
        ests = estimators if estimators is not None else default_estimators(p, include_gibbs)
        # One outcome per replication: (mean loss, Sigma loss, acceptance
        # rate or None), or the type name of the error the estimator raised.
        outcomes: dict[str, list[tuple | str]] = {name: [] for name in ests}
        elapsed = dict.fromkeys(ests, 0.0)
        if fix_truth:
            truth = generate_truth(p, np.random.default_rng(np.random.SeedSequence([seed, ci])))
        for r in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, ci, r]))
            if not fix_truth:
                truth = generate_truth(p, rng)
            data = sample_data(truth, n, rng)
            for name, fn in ests.items():
                # Deterministic per (cell, rep, estimator name); independent
                # of the order in which estimators run.
                tag = zlib.crc32(name.encode("utf-8"))
                est_rng = np.random.default_rng(np.random.SeedSequence([seed, ci, r, tag]))
                t0 = time.perf_counter()
                try:
                    mu_hat, sigma_hat, extras = fn(data, est_rng)
                except (MeanCovError, np.linalg.LinAlgError) as exc:
                    outcomes[name].append(type(exc).__name__)
                    continue
                finally:
                    elapsed[name] += time.perf_counter() - t0
                outcomes[name].append((
                    float(np.sum((mu_hat - truth.mu_true) ** 2) / p),
                    float(np.sum((sigma_hat - truth.sigma_true.matrix) ** 2) / p),
                    extras.get("acceptance_rate"),
                ))

        niw_risk = _risks([o for o in outcomes.get("niw", []) if not isinstance(o, str)])
        for name, outs in outcomes.items():
            losses = [o for o in outs if not isinstance(o, str)]
            m_risk, s_risk = _risks(losses)
            ratio_m = ratio_s = None
            if np.isfinite(niw_risk[0]) and niw_risk[0] > 0:
                ratio_m, ratio_s = m_risk / niw_risk[0], s_risk / niw_risk[1]
            accs = [float(a) for _, _, a in losses if a is not None]
            reports.append(
                RiskReport(
                    n=n,
                    p=p,
                    estimator=name,
                    mean_risk=m_risk,
                    sigma_risk=s_risk,
                    replications=len(losses),
                    failures=reps - len(losses),
                    failure_types=dict(Counter(o for o in outs if isinstance(o, str))),
                    elapsed_seconds=elapsed[name],
                    acceptance_rate=float(np.mean(accs)) if accs else None,
                    ratio_vs_niw_mean=ratio_m,
                    ratio_vs_niw_sigma=ratio_s,
                )
            )
    return reports


def reports_to_records(reports: list[RiskReport]) -> list[dict]:
    """Machine-readable rows, one per cell and estimator, keyed by the ``RiskReport`` fields."""
    return [asdict(r) for r in reports]


def format_table(reports: list[RiskReport]) -> str:
    """Aligned text table of the risk study."""

    def num(x: float | None) -> str:
        return "-" if x is None else f"{x:.4f}"

    rows = [["n", "p", "estimator", "mean_risk", "sigma_risk",
             "ratio_mean", "ratio_sigma", "acc_rate", "fails"]]
    rows += [
        [str(r.n), str(r.p), r.estimator, num(r.mean_risk), num(r.sigma_risk),
         num(r.ratio_vs_niw_mean), num(r.ratio_vs_niw_sigma), num(r.acceptance_rate),
         str(r.failures)]
        for r in reports
    ]
    widths = [max(len(c) for c in column) for column in zip(*rows)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
