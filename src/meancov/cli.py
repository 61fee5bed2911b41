"""Command-line entry point for fitting and simulation runs.

Every command is deterministic given its configuration, which holds the
seed of the two commands that draw random numbers (``fit-map-gibbs`` and
``simulate``); the result document echoes the full effective configuration
so runs are reproducible from the output alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .exceptions import MeanCovError, ParseError, RangeError, TooFewRowsError
from .gibbs import PriorConfig, map_from_chain, run_gibbs
from .mle import fit_mle
from .model import Fit, SampleSet
from .newton_map import NewtonConfig, fit_map_newton
from .niw import niw_map, niw_posterior
from .simulate import format_table, reports_to_records, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NO_CONVERGENCE = 4


@dataclass
class RunConfig:
    """Materialized configuration of one CLI invocation.

    This is the one table of CLI defaults: the parser states none, so an
    option left off the command line is absent from the parsed arguments
    and takes its value from the field of the same name here.
    """

    command: str
    input_path: str | None = None
    output_path: str | None = None
    output_format: str = "json"
    seed: int = 0
    prior_kappa0: float = 1.5
    prior_a: float | None = None  # defaults to p + 1 once the data are known
    prior_h0: float = 1.0
    prior_mu0: str = "xbar"  # or "zero"
    gibbs_s: int = 100
    gibbs_l: int = 5
    chain_out: str | None = None
    newton_alpha: float = NewtonConfig.alpha
    newton_eps: float = NewtonConfig.epsilon
    newton_max_iter: int = NewtonConfig.max_outer
    grid: list[tuple[int, int]] = field(default_factory=lambda: [(50, 3)])
    reps: int = 100
    include_gibbs: bool | None = None
    fix_truth: bool = False


def ingest_csv(path: str) -> SampleSet:
    """Read an n x p comma-delimited numeric matrix, optional header row.

    The first line is a header only when none of its cells parses as a
    number; otherwise it is the first data row.  Rejects non-numeric and
    non-finite cells with the offending row and column named in the error.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise TooFewRowsError(f"{path}: empty file")
    start = 0
    if not any(_is_number(tok) for tok in lines[0].split(",")):
        start = 1  # header row: no token is a number
    for i, line in enumerate(lines[start:], start=start + 1):
        toks = [t.strip() for t in line.split(",")]
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise ParseError(f"{path}: row {i} has {len(toks)} fields, expected {width}")
        row = []
        for j, tok in enumerate(toks, start=1):
            try:
                val = float(tok)
            except ValueError:
                raise ParseError(f"{path}: row {i}, column {j}: not a number: {tok!r}") from None
            if not math.isfinite(val):
                raise ParseError(f"{path}: row {i}, column {j}: non-finite value {tok!r}")
            row.append(val)
        rows.append(row)
    if len(rows) < 2:
        raise TooFewRowsError(f"{path}: need at least 2 data rows, got {len(rows)}")
    return SampleSet(np.asarray(rows))


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def latlong_to_sphere(rows) -> SampleSet:
    """Map (latitude, longitude) degrees to points on the unit sphere.

    Convention: ``x = cos(lat) cos(lon), y = cos(lat) sin(lon), z = sin(lat)``.
    """
    out = []
    for i, (lat, lon) in enumerate(rows, start=1):
        if not -90.0 <= lat <= 90.0:
            raise RangeError(f"row {i}: latitude {lat} outside [-90, 90]")
        if not -180.0 <= lon < 360.0:
            raise RangeError(f"row {i}: longitude {lon} outside [-180, 360)")
        la, lo = math.radians(lat), math.radians(lon)
        out.append([math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la)])
    return SampleSet(np.asarray(out))


def _prior_from_config(cfg: RunConfig, data: SampleSet) -> PriorConfig:
    a = cfg.prior_a if cfg.prior_a is not None else data.p + 1
    mu0 = data.xbar if cfg.prior_mu0 == "xbar" else np.zeros(data.p)
    h0 = np.full(data.p, cfg.prior_h0)
    h0[0] = 1.0
    return PriorConfig(mu0=mu0, kappa0=cfg.prior_kappa0, a=a, h0_diag=h0)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _document(cfg: RunConfig, **body) -> dict:
    """The JSON document of a run: the command, its full configuration and ``body``."""
    return _jsonable({"command": cfg.command, "config": asdict(cfg), **body})


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Dispatch one command; returns (exit status, result document)."""
    try:
        return _dispatch(cfg)
    except (ParseError, TooFewRowsError, RangeError, ValueError, OSError) as exc:
        return EXIT_CONFIG, _error_doc(cfg, "config-or-parse", exc)
    except (MeanCovError, np.linalg.LinAlgError) as exc:
        return EXIT_NUMERIC, _error_doc(cfg, "numeric", exc)


def _error_doc(cfg: RunConfig, category: str, exc: Exception) -> dict:
    return _document(cfg, error={"category": category, "message": str(exc)})


def _dispatch(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.command == "simulate":
        reports = run_experiment(
            grid=cfg.grid,
            reps=cfg.reps,
            seed=cfg.seed,
            fix_truth=cfg.fix_truth,
            include_gibbs=cfg.include_gibbs,
        )
        doc = _document(cfg, results={"table": reports_to_records(reports)})
        doc["summary_text"] = format_table(reports)
        return EXIT_OK, doc

    if cfg.input_path is None:
        raise ValueError(f"command {cfg.command} requires an input file")

    if cfg.command == "transform-sphere":
        raw = ingest_csv(cfg.input_path)
        if raw.p != 2:
            raise ParseError("transform-sphere expects two columns: latitude, longitude")
        points = latlong_to_sphere([tuple(r) for r in raw.X])
        return EXIT_OK, _document(cfg, results={"points": points.X})

    data = ingest_csv(cfg.input_path)

    if cfg.command == "fit-mle":
        return _fit_outcome(cfg, fit_mle(data))

    prior = _prior_from_config(cfg, data)

    if cfg.command == "fit-niw":
        params = niw_posterior(
            data, mu0=prior.mu0, kappa0=prior.kappa0, nu0=data.p + 1, Lambda0=np.eye(data.p)
        )
        mu_hat, sigma_hat = niw_map(params, data.p)
        results = {"mu": mu_hat, "sigma": sigma_hat, "kappa_n": params.kappa_n, "nu_n": params.nu_n}
        return EXIT_OK, _document(cfg, results=results)

    if cfg.command == "fit-map-newton":
        ncfg = NewtonConfig(
            alpha=cfg.newton_alpha, epsilon=cfg.newton_eps, max_outer=cfg.newton_max_iter
        )
        return _fit_outcome(cfg, fit_map_newton(data, prior, ncfg))

    if cfg.command == "fit-map-gibbs":
        rng = np.random.default_rng(cfg.seed)
        chain = run_gibbs(data, prior, s=cfg.gibbs_s, l=cfg.gibbs_l, rng=rng)
        fit = map_from_chain(chain.states, data, prior)
        if cfg.chain_out:
            with open(cfg.chain_out, "w", encoding="utf-8") as fh:
                for rec in chain.records():
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return _fit_outcome(
            cfg, fit, acceptance_rate=chain.acceptance_rate, samples=len(chain.states)
        )

    raise ValueError(f"unknown command: {cfg.command}")


def _fit_outcome(cfg: RunConfig, fit: Fit, **extra) -> tuple[int, dict]:
    """Exit status and result document of every constrained fit.

    The results hold the estimate, the fit's status and its diagnostics,
    plus ``extra`` values of the command; a fit that did not converge exits
    with ``EXIT_NO_CONVERGENCE``.
    """
    results = {
        "u": fit.mean.u,
        "c0": fit.mean.c0,
        "mu": fit.mean.mu,
        "lambda": fit.spectrum.values,
        "sigma": fit.covariance().matrix,
        "converged": fit.converged,
        "outer_iterations": fit.outer_iterations,
        **fit.diagnostics,
        **extra,
    }
    status = EXIT_OK if fit.converged else EXIT_NO_CONVERGENCE
    return status, _document(cfg, results=results)


def _parse_grid(text: str) -> list[tuple[int, int]]:
    cells = []
    for tok in text.split(","):
        try:
            n_s, p_s = tok.lower().split("x")
            cells.append((int(n_s), int(p_s)))
        except ValueError:
            msg = f"bad grid cell {tok!r}; expected like 50x3"
            raise argparse.ArgumentTypeError(msg) from None
    return cells


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: option dests are :class:`RunConfig` fields, and no defaults."""
    parser = argparse.ArgumentParser(
        prog="meancov",
        description="Joint mean-covariance estimation with the mean as a unit eigenvector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary, needs_input=True):
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        if needs_input:
            sp.add_argument("input_path", metavar="input",
                            help="CSV input file (n rows, p numeric columns)")
        sp.add_argument("--out", dest="output_path", metavar="OUT",
                        help="write the JSON result document here")
        return sp

    def add_seed(sp):  # only on the commands that draw random numbers
        sp.add_argument("--seed", type=int)

    def add_prior(sp, eigenvalues=True):
        sp.add_argument("--prior-kappa0", type=float)
        sp.add_argument("--prior-mu0", choices=["xbar", "zero"])
        if eigenvalues:  # the NIW baseline has no eigenvalue prior
            sp.add_argument("--prior-a", type=float, help="default: p + 1")
            sp.add_argument("--prior-h0", type=float,
                            help="trailing diagonal of H0 (leading entry stays 1)")

    add_command("fit-mle", "non-iterative approximate MLE")

    sp = add_command("fit-niw", "normal-inverse-Wishart MAP baseline")
    add_prior(sp, eigenvalues=False)

    sp = add_command("fit-map-newton", "lower-bound Newton MAP approximation")
    add_prior(sp)
    sp.add_argument("--newton-alpha", type=float)
    sp.add_argument("--newton-eps", type=float)
    sp.add_argument("--newton-max-iter", type=int)

    sp = add_command("fit-map-gibbs", "MAP from MH-within-Gibbs posterior draws")
    add_seed(sp)
    add_prior(sp)
    sp.add_argument("--gibbs-s", type=int)
    sp.add_argument("--gibbs-l", type=int)
    sp.add_argument("--chain-out", help="write chain records as JSON lines")

    sp = add_command("simulate", "Monte-Carlo risk study over an (n, p) grid", needs_input=False)
    add_seed(sp)
    sp.add_argument("--format", dest="output_format", choices=["json", "table"],
                    help="table prints the risk table, not JSON, on stdout")
    sp.add_argument("--grid", type=_parse_grid, help="cells like 50x3,100x5")
    sp.add_argument("--reps", type=int)
    sp.add_argument("--include-gibbs", action="store_true",
                    help="force the Gibbs estimator on every cell")
    sp.add_argument("--fix-truth", action="store_true")

    add_command("transform-sphere", "latitude/longitude to unit vectors")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    cfg = config_from_args(args)
    status, doc = run(cfg)
    text = json.dumps(doc, sort_keys=True, indent=2)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if cfg.output_format == "table" and "summary_text" in doc:
        print(doc["summary_text"])
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
