"""The benchmark workloads: what one op runs and how its outputs are checked.

Each workload is closed loop with one client: op ``i + 1`` starts when op
``i`` has returned.  Inputs come from the workload seed only.  Library calls
go through module attributes (``simulate.run_experiment``, ``cli.main``,
``simulate.mle_estimator``...) at call time, so that the tracer's wrappers
see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from meancov import cli, gibbs, simulate

SYMMETRY_TOL = 1e-12  # max |S - S^T| relative to max |S|
CONSTRAINT_TOL = 1e-8  # |S mu - mu| relative to |mu|
UNIT_NORM_TOL = 1e-12


@dataclass
class OpResult:
    """What one op did.

    ``failures`` holds one entry per failure: an exception type name, a CLI
    exit as ``exit-<code>``, or a failed output check as ``check:<what>``.
    ``parts`` maps a component latency name (``fit_ms.mle``,
    ``cmd_ms.fit-niw``) to seconds; ``values`` holds informational outputs
    (risks, bytes written).
    """

    latency_s: float
    failures: list[str]
    digest: bytes
    parts: dict[str, float] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)


def fit_problems(mu, sigma, constrained: bool) -> list[str]:
    """Output checks of one fitted (mean, covariance) pair.

    Sigma must be finite, symmetric and positive definite; a constrained fit
    must also satisfy ``Sigma mu = mu`` to ``CONSTRAINT_TOL`` relative.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        return ["check:non-finite"]
    problems = []
    if np.max(np.abs(sigma - sigma.T)) > SYMMETRY_TOL * np.max(np.abs(sigma)):
        problems.append("check:asymmetric")
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        problems.append("check:not-positive-definite")
    if constrained and np.linalg.norm(sigma @ mu - mu) > CONSTRAINT_TOL * np.linalg.norm(mu):
        problems.append("check:constraint")
    return problems


# Battery name -> (adapter in meancov.simulate, whether Sigma mu = mu holds).
ADAPTERS = {
    "niw": ("niw_estimator", False),
    "mle": ("mle_estimator", True),
    "map-newton": ("map_newton_estimator", True),
    "gibbs": ("gibbs_estimator", True),
}


class RiskWorkload:
    """One op is ``simulate.run_experiment`` with one replication of one cell.

    Every op has its own seed, so every replication draws a fresh truth.  The
    battery and the Gibbs ``s`` / ``l`` are passed explicitly so that library
    defaults (``GIBBS_MAX_P``, ``include_gibbs``) cannot change what is
    measured.  Each estimator is wrapped to record its latency, its outputs
    and the type of any exception, which ``run_experiment`` would swallow.
    """

    round_size = 1
    warmup_ops = 3

    def __init__(self, n: int, p: int, battery: tuple[str, ...], gibbs_s=100, gibbs_l=5):
        self.n, self.p, self.battery = n, p, battery
        self.gibbs_kwargs = {"s": gibbs_s, "l": gibbs_l}
        self.seed = 0
        self._outputs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._fit_s: dict[str, float] = {}
        self._failures: list[str] = []
        self._estimators = {name: self._estimator(name) for name in battery}

    def describe(self) -> dict:
        return {
            "cell": {"n": self.n, "p": self.p},
            "battery": list(self.battery),
            "gibbs": self.gibbs_kwargs if "gibbs" in self.battery else None,
        }

    def _estimator(self, name: str):
        adapter, _ = ADAPTERS[name]

        def estimate(data, rng):
            kwargs = {}
            if name == "gibbs":
                kwargs = dict(self.gibbs_kwargs, prior=gibbs.PriorConfig.default(data))
            fn = getattr(simulate, adapter)
            t0 = perf_counter()
            try:
                out = fn(data, rng, **kwargs)
            except Exception as exc:
                self._failures.append(type(exc).__name__)
                raise
            finally:
                self._fit_s[name] = perf_counter() - t0
            self._outputs[name] = (out[0], out[1])
            return out

        return estimate

    def setup(self, seed: int, workdir: str) -> dict:
        """Nothing to write: each op draws its truth and data from its seed."""
        self.seed = seed
        return {"replication_data_bytes": self.n * self.p * 8}

    def run_op(self, i: int, stream: int = 0) -> OpResult:
        op_seed = int(np.random.SeedSequence([self.seed, stream, i]).generate_state(1)[0])
        self._outputs.clear()
        self._fit_s.clear()
        self._failures.clear()
        t0 = perf_counter()
        try:
            reports = simulate.run_experiment(
                [(self.n, self.p)], estimators=self._estimators, reps=1, seed=op_seed
            )
        except Exception as exc:  # counted as a failed op; the loop goes on
            reports = []
            self._failures.append(type(exc).__name__)
        latency = perf_counter() - t0

        failures = list(self._failures)
        digest = hashlib.sha256()
        for name in self.battery:
            if name in self._outputs:
                mu, sigma = self._outputs[name]
                digest.update(np.ascontiguousarray(mu).tobytes())
                digest.update(np.ascontiguousarray(sigma).tobytes())
                failures += fit_problems(mu, sigma, ADAPTERS[name][1])
        values = {}
        for r in reports:
            if not (math.isfinite(r.mean_risk) and math.isfinite(r.sigma_risk)):
                failures.append("check:risk-not-finite")
            values[f"simulate.mean_risk.{r.estimator}"] = r.mean_risk
            values[f"simulate.sigma_risk.{r.estimator}"] = r.sigma_risk
            digest.update(repr((r.estimator, r.mean_risk, r.sigma_risk)).encode())
        if len(reports) != len(self.battery):
            failures.append("check:missing-report")
        parts = {f"fit_ms.{k}": v for k, v in self._fit_s.items()}
        return OpResult(latency, failures, digest.digest(), parts, values)

    def warmup(self) -> None:
        for j in range(self.warmup_ops):
            self.run_op(j, stream=1)


# CLI command -> keys its JSON "results" object must have.
CLI_RESULT_KEYS = {
    "fit-mle": {"u", "c0", "mu", "lambda", "sigma", "profile_loglik", "lower_bound"},
    "fit-niw": {"mu", "sigma", "kappa_n", "nu_n"},
    "fit-map-newton": {"u", "c0", "mu", "lambda", "sigma", "h_trace", "outer_iterations"},
    "transform-sphere": {"points"},
}


class CliWorkload:
    """One op is one in-process ``meancov.cli.main`` call with stdout captured.

    The ops go round robin over three fits of one ``rows`` x ``cols`` CSV and
    ``transform-sphere`` of a ``rows``-line latitude/longitude CSV.
    """

    commands = ("fit-mle", "fit-niw", "fit-map-newton", "transform-sphere")
    round_size = len(commands)
    warmup_ops = len(commands)

    def __init__(self, rows: int = 20000, cols: int = 10):
        self.rows, self.cols = rows, cols
        self.argv: list[list[str]] = []

    def describe(self) -> dict:
        return {"commands": list(self.commands), "rows": self.rows, "cols": self.cols}

    def setup(self, seed: int, workdir: str) -> dict:
        """Write the two CSV inputs drawn from the seed; return their sizes."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        mu = rng.standard_normal(self.cols) + 1.0
        factor = 0.5 * rng.standard_normal((self.cols, self.cols)) + 2.0 * np.eye(self.cols)
        X = mu + rng.standard_normal((self.rows, self.cols)) @ factor.T
        fit_csv = os.path.join(workdir, "data.csv")
        header = ",".join(f"x{j}" for j in range(1, self.cols + 1))
        np.savetxt(fit_csv, X, delimiter=",", fmt="%.17g", header=header, comments="")
        latlong = np.column_stack(
            [rng.uniform(-90.0, 90.0, self.rows), rng.uniform(-180.0, 180.0, self.rows)]
        )
        sphere_csv = os.path.join(workdir, "latlong.csv")
        np.savetxt(sphere_csv, latlong, delimiter=",", fmt="%.6f", header="lat,lon", comments="")
        self.argv = [[cmd, fit_csv] for cmd in self.commands[:3]] + [[self.commands[3], sphere_csv]]
        return {
            "fit_csv_bytes": os.path.getsize(fit_csv),
            "latlong_csv_bytes": os.path.getsize(sphere_csv),
        }

    def run_op(self, i: int) -> OpResult:
        argv = self.argv[i % self.round_size]
        command = argv[0]
        out = io.StringIO()
        failures: list[str] = []
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        except Exception as exc:  # counted as a failed op; the loop goes on
            code = None
            failures.append(type(exc).__name__)
        latency = perf_counter() - t0

        text = out.getvalue()
        digest = hashlib.sha256()
        if code != 0:
            failures.append(f"exit-{code}")
        else:
            failures += self._check(command, text, digest)
        return OpResult(
            latency,
            failures,
            digest.digest(),
            {f"cmd_ms.{command}": latency},
            {"cli.bytes_out": len(text.encode())},
        )

    def _check(self, command: str, text: str, digest) -> list[str]:
        try:
            results = json.loads(text)["results"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return ["check:json"]
        # The document also echoes the input path; only results are digested.
        digest.update(json.dumps(results, sort_keys=True).encode())
        if not isinstance(results, dict) or CLI_RESULT_KEYS[command] - results.keys():
            return ["check:keys"]
        if command == "transform-sphere":
            points = np.asarray(results["points"], dtype=float)
            if points.shape != (self.rows, 3):
                return ["check:shape"]
            if np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) > UNIT_NORM_TOL:
                return ["check:unit-norm"]
            return []
        return fit_problems(results["mu"], results["sigma"], command != "fit-niw")

    def warmup(self) -> None:
        for j in range(self.warmup_ops):
            self.run_op(j)


WORKLOADS = {
    # Small-p regime of the paper, with the Gibbs MAP: the MH loop is nearly
    # all of the time, the p=50 kernels almost none.
    "risk-lowdim": lambda: RiskWorkload(50, 3, ("niw", "mle", "map-newton", "gibbs")),
    # Basis completion, tail quadratic forms and eigh at p=50; no Gibbs, so
    # a sampler-only change must show no change here.
    "risk-highdim": lambda: RiskWorkload(500, 50, ("niw", "mle", "map-newton")),
    # CSV ingest dominates the fits; transform-sphere is output-heavy.
    "cli-fit": CliWorkload,
}
