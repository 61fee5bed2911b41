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

import math
import time
import zlib
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .exceptions import MeanCovError, NonPositiveEigenvalueError
from .gibbs import PriorConfig, map_from_chain, run_gibbs
from .mle import fit_mle
from .model import (
    SampleSet,
    _as_matrix,
    _as_vector,
    _polar,
    _Record,
    build_orthobasis,
    structured_covariance,
    tail_quadratic_forms,
)
from .newton_map import fit_map_newton
from .niw import niw_map, niw_posterior

# An estimator maps (data, rng) to (mean estimate, covariance estimate, extras).
EstimatorFn = Callable[[SampleSet, np.random.Generator], tuple[np.ndarray, np.ndarray, dict]]


@dataclass(frozen=True, eq=False)
class TruthSpec(_Record):
    """A constrained truth pair for one replication: a length-p mean and a p x p covariance,
    both read-only (``DimensionMismatchError`` for any other shapes)."""

    mu_true: np.ndarray
    sigma_true: np.ndarray

    def __post_init__(self):
        mu = _as_vector(self.mu_true, "mu_true")
        sigma = _as_matrix(self.sigma_true, "sigma_true", (mu.size, mu.size))
        super().__post_init__(mu_true=mu, sigma_true=sigma)

    @property
    def p(self) -> int:
        return self.mu_true.size


@dataclass(frozen=True, eq=False)
class RiskReport(_Record):
    """Per-cell, per-estimator Monte-Carlo risk summary; ``failure_types`` is read-only."""

    n: int
    p: int
    estimator: str
    mean_risk: float
    sigma_risk: float
    replications: int
    failures: int
    failure_types: Mapping[str, int]  # exception type name -> count; sums to ``failures``
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
    exactly.  Each kept form must be > 0, so that ``Sigma`` is positive definite.
    """
    if p < 2:
        raise ValueError("need dimension p >= 2")
    mu = rng.standard_normal(p)
    L = rng.standard_normal((p, p))
    L[np.diag_indices(p)] += 5.0
    psi = L @ L.T
    basis = build_orthobasis(_polar(mu)[0])
    lam = tail_quadratic_forms(psi, basis[:, 1:])
    if not np.all(lam > 0.0):
        raise NonPositiveEigenvalueError(f"the truth's tail eigenvalues must be > 0, got {lam}")
    return TruthSpec(mu_true=mu, sigma_true=structured_covariance(basis, lam))


def sample_data(spec: TruthSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. multivariate normal rows from the truth via Cholesky, as an n x p matrix."""
    if n < 2:
        raise ValueError("need at least two observations")
    L = np.linalg.cholesky(spec.sigma_true)
    Z = rng.standard_normal((n, spec.p))
    return spec.mu_true + Z @ L.T


def mle_estimator(data: SampleSet, rng: np.random.Generator):
    fit = fit_mle(data)
    return fit.mu, fit.covariance(), {}


def map_newton_estimator(data: SampleSet, rng: np.random.Generator):
    # The harness runs the fast MAP in its flat-prior configuration so that
    # the risk columns are comparable against the MLE columns; the
    # informative reference prior shrinks the eigenvalues by a factor
    # n / (n + 1 + 2a) and would inflate the covariance risk.
    prior = PriorConfig(mu0=np.zeros(data.p), kappa0=0.0, a=-0.5, h0_diag=np.zeros(data.p))
    fit = fit_map_newton(data, prior)
    return fit.mu, fit.covariance(), {}


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
    fit = map_from_chain(run, data, prior)
    return fit.mu, fit.covariance(), {"acceptance_rate": run.acceptance_rate}


def niw_estimator(data: SampleSet, rng: np.random.Generator):
    params = niw_posterior(data, mu0=data.xbar, kappa0=1.5, nu0=data.p + 1, Lambda0=np.eye(data.p))
    mu_hat, sigma_hat = niw_map(params)
    return mu_hat, sigma_hat, {}


# The one table of the battery, in column order; read-only.
ESTIMATORS: Mapping[str, EstimatorFn] = MappingProxyType({
    "niw": niw_estimator,
    "mle": mle_estimator,
    "map-newton": map_newton_estimator,
    "gibbs": gibbs_estimator,
})


def _risks(losses: list[tuple]) -> tuple[float, float]:
    """Mean and covariance risk: the average losses, NaN when every replication failed."""
    if not losses:
        return float("nan"), float("nan")
    return float(np.mean([m for m, _, _ in losses])), float(np.mean([s for _, s, _ in losses]))


def run_experiment(
    grid: list[tuple[int, int]],
    estimators: Mapping[str, EstimatorFn] = ESTIMATORS,
    reps: int = 100,
    seed: int = 0,
) -> list[RiskReport]:
    """Run the risk study over a grid of (n, p) cells.

    Every cell runs every estimator of ``estimators``, in its order, at
    every p.  Replication ``r`` of cell ``ci`` draws a fresh truth and a
    fresh data set, shared by all estimators, from the stream
    ``SeedSequence([seed, ci, r])``.  An estimator that raises a
    ``MeanCovError`` or ``LinAlgError`` fails that replication: the failure
    is counted by exception type and excluded from the averages.  Any other
    exception propagates.  Deterministic for a given seed.

    The shared ``SampleSet`` keeps its frame (the ``eigh`` of ``A(xbar)`` and
    its completion), so a later column, such as the Newton MAP's cold start
    after the ``mle`` column, recomputes only the MLE's closed forms.  A
    column's ``elapsed_seconds`` leaves out a frame an earlier column took:
    timings depend on the order of the columns, risks do not.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    reports: list[RiskReport] = []
    for ci, (n, p) in enumerate(grid):
        # Per estimator: (mean loss, Sigma loss, acceptance rate or None) of
        # each passed replication, and the type names of the errors raised.
        losses: dict[str, list[tuple]] = {name: [] for name in estimators}
        failed = {name: Counter() for name in estimators}
        elapsed = dict.fromkeys(estimators, 0.0)
        for r in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, ci, r]))
            truth = generate_truth(p, rng)
            data = SampleSet(sample_data(truth, n, rng))
            for name, fn in estimators.items():
                # Deterministic per (cell, rep, estimator name); independent
                # of the order in which estimators run.
                tag = zlib.crc32(name.encode("utf-8"))
                est_rng = np.random.default_rng(np.random.SeedSequence([seed, ci, r, tag]))
                t0 = time.perf_counter()
                try:
                    mu_hat, sigma_hat, extras = fn(data, est_rng)
                except (MeanCovError, np.linalg.LinAlgError) as exc:
                    failed[name][type(exc).__name__] += 1
                    continue
                finally:
                    elapsed[name] += time.perf_counter() - t0
                losses[name].append((
                    float(np.sum((mu_hat - truth.mu_true) ** 2) / p),
                    float(np.sum((sigma_hat - truth.sigma_true) ** 2) / p),
                    extras.get("acceptance_rate"),
                ))

        niw_risk = _risks(losses.get("niw", []))
        for name, passed in losses.items():
            m_risk, s_risk = _risks(passed)
            ratio_m = ratio_s = None
            if np.isfinite(niw_risk[0]) and niw_risk[0] > 0:
                ratio_m, ratio_s = m_risk / niw_risk[0], s_risk / niw_risk[1]
            accs = [float(a) for _, _, a in passed if a is not None]
            reports.append(
                RiskReport(
                    n=n,
                    p=p,
                    estimator=name,
                    mean_risk=m_risk,
                    sigma_risk=s_risk,
                    replications=len(passed),
                    failures=reps - len(passed),
                    failure_types=failed[name],
                    elapsed_seconds=elapsed[name],
                    acceptance_rate=float(np.mean(accs)) if accs else None,
                    ratio_vs_niw_mean=ratio_m,
                    ratio_vs_niw_sigma=ratio_s,
                )
            )
    return reports


def reports_to_records(reports: list[RiskReport]) -> list[dict]:
    """Machine-readable rows, one per cell and estimator, keyed by the ``RiskReport`` fields.

    A NaN risk or ratio (an estimator that failed every replication) becomes
    ``None``, so the rows are valid JSON, where it is ``null``;
    ``failure_types`` becomes a plain ``dict``.
    """
    return [
        {k: None if isinstance(v, float) and math.isnan(v) else v
         for k, v in {**vars(r), "failure_types": dict(r.failure_types)}.items()}
        for r in reports
    ]


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
