"""Command-line entry point for fitting and simulation runs.

Every command is deterministic given its configuration, which holds the
seed of the two commands that draw random numbers (``fit-map-gibbs`` and
``simulate``); the result document echoes the full effective configuration
so runs are reproducible from the output alone.  The one exception is the
wall-clock ``elapsed_seconds`` of each ``simulate`` report row, which
differs from run to run; every other field repeats.  The document is one
line of JSON with sorted keys; pipe it through ``python -m json.tool`` to
read it.

Exit codes: 0 success; 2 a parse or configuration error; 3 a numeric
failure (degenerate or overflowing data, a ``numpy.linalg.LinAlgError``);
4 a constrained fit that did not converge.
"""

from __future__ import annotations

import argparse
import itertools
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
from .simulate import ESTIMATORS, format_table, reports_to_records, run_experiment

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
    include_gibbs: bool = False
    fix_truth: bool = False


def ingest_csv(path: str) -> SampleSet:
    """Read an n x p comma-delimited numeric matrix (n, p >= 2), optional header row.

    A cell is whatever Python ``float()`` accepts once ``str.strip`` has
    removed the whitespace around it (so ``1_000`` too), and must be
    finite; blank lines are skipped.  The first line is a header only when
    none of its cells parses as a number; otherwise it is the first data
    row.  The data lines are parsed by NumPy's C reader, which converts a
    cell with ``float()``'s C routine but rejects ``1_000`` and non-ASCII
    digits; a file it rejects, or one with a non-finite value, is read
    again by :func:`_ingest_row_by_row`.  The error names the first fault
    in reading order: a row whose width differs from the first data row's,
    or a non-numeric or non-finite cell, by its row and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = filter(None, map(str.strip, fh))
        first = next(lines, None)
        if first is None:
            raise TooFewRowsError(f"{path}: empty file")
        if not any(map(_is_number, first.split(","))):
            first = next(lines, None)  # header row: no token is a number
        if first is None:
            raise TooFewRowsError(f"{path}: need at least 2 data rows, got 0")
        try:
            X = np.loadtxt(
                itertools.chain((first,), lines), delimiter=",", comments=None, dtype=float, ndmin=2
            )
        except ValueError:
            X = None
    if X is None or not np.isfinite(X).all():
        X = _ingest_row_by_row(path)
    if len(X) < 2:
        raise TooFewRowsError(f"{path}: need at least 2 data rows, got {len(X)}")
    if X.shape[1] < 2:
        raise ParseError(f"{path}: need at least 2 columns, got {X.shape[1]}")
    return SampleSet._owning(X)


def _ingest_row_by_row(path: str) -> np.ndarray:
    """The matrix :func:`ingest_csv` reads from ``path``, read a line and a cell at a time.

    The fallback of the C reader when that reader rejects a file or finds
    a non-finite value: this loop reads the cells ``float()`` accepts and the
    C reader does not (``1_000``, non-ASCII digits), and raises the
    :class:`ParseError` of the first fault in reading order.  A cell is
    stripped before ``float()``, so one that ends in an ASCII separator
    (``\\x1c`` to ``\\x1f``, which ``str.strip`` removes and ``float()``
    does not) is read here.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]  # not empty: ingest_csv read a line
    start = 0 if any(_is_number(tok) for tok in lines[0].split(",")) else 1
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
    return np.asarray(rows)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def latlong_to_sphere(latlong) -> SampleSet:
    """Map (latitude, longitude) degrees to points on the unit sphere.

    ``latlong`` is an (m, 2) array, or anything ``np.asarray`` makes one of,
    such as a list of pairs.  Convention: ``x = cos(lat) cos(lon),
    y = cos(lat) sin(lon), z = sin(lat)``.  Latitude must lie in [-90, 90]
    and longitude in [-180, 360); the error names the first row out of
    range, and its latitude when both are.
    """
    lat, lon = np.asarray(latlong).T
    bad_lat = ~((-90.0 <= lat) & (lat <= 90.0))
    bad_lon = ~((-180.0 <= lon) & (lon < 360.0))
    bad = np.flatnonzero(bad_lat | bad_lon)
    if bad.size:
        i = bad[0]
        if bad_lat[i]:
            raise RangeError(f"row {i + 1}: latitude {lat[i]} outside [-90, 90]")
        raise RangeError(f"row {i + 1}: longitude {lon[i]} outside [-180, 360)")
    la, lo = np.radians(lat), np.radians(lon)
    cos_la = np.cos(la)
    return SampleSet._owning(
        np.column_stack([cos_la * np.cos(lo), cos_la * np.sin(lo), np.sin(la)])
    )


def _prior_from_config(cfg: RunConfig, data: SampleSet) -> PriorConfig:
    a = cfg.prior_a if cfg.prior_a is not None else data.p + 1
    mu0 = data.xbar if cfg.prior_mu0 == "xbar" else np.zeros(data.p)
    h0 = np.full(data.p, cfg.prior_h0)
    h0[0] = 1.0
    return PriorConfig(mu0=mu0, kappa0=cfg.prior_kappa0, a=a, h0_diag=h0)


def _dumps(doc) -> str:
    """``doc`` as one line of JSON with sorted keys, written by the stdlib's C encoder."""
    return json.dumps(doc, sort_keys=True, default=_tolist)


def _tolist(x):
    """The ``default`` of :func:`_dumps`: an array or a NumPy scalar as its ``tolist()``."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _document(cfg: RunConfig, **body) -> dict:
    """The result document of a run: the command, its full configuration and ``body``."""
    return {"command": cfg.command, "config": asdict(cfg), **body}


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Dispatch one command; returns (exit status, result document)."""
    try:
        return _dispatch(cfg)
    except np.linalg.LinAlgError as exc:  # a ValueError, but numeric
        return EXIT_NUMERIC, _error_doc(cfg, "numeric", exc)
    except (ParseError, TooFewRowsError, RangeError, ValueError, OSError) as exc:
        return EXIT_CONFIG, _error_doc(cfg, "config-or-parse", exc)
    except MeanCovError as exc:
        return EXIT_NUMERIC, _error_doc(cfg, "numeric", exc)


def _error_doc(cfg: RunConfig, category: str, exc: Exception) -> dict:
    return _document(cfg, error={"category": category, "message": str(exc)})


def _dispatch(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.command == "simulate":
        reports = run_experiment(cfg.grid, ESTIMATORS if cfg.include_gibbs else None,
                                 reps=cfg.reps, seed=cfg.seed, fix_truth=cfg.fix_truth)
        doc = _document(cfg, results={"table": reports_to_records(reports)})
        doc["summary_text"] = format_table(reports)
        return EXIT_OK, doc

    if cfg.input_path is None:
        raise ValueError(f"command {cfg.command} requires an input file")

    if cfg.command == "transform-sphere":
        raw = ingest_csv(cfg.input_path)
        if raw.p != 2:
            raise ParseError("transform-sphere expects two columns: latitude, longitude")
        points = latlong_to_sphere(raw.X)
        return EXIT_OK, _document(cfg, results={"points": points.X})

    data = ingest_csv(cfg.input_path)

    if cfg.command == "fit-mle":
        return _fit_outcome(cfg, fit_mle(data))

    prior = _prior_from_config(cfg, data)

    if cfg.command == "fit-niw":
        params = niw_posterior(
            data, mu0=prior.mu0, kappa0=prior.kappa0, nu0=data.p + 1, Lambda0=np.eye(data.p)
        )
        mu_hat, sigma_hat = niw_map(params)
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
        fit = map_from_chain(chain, data, prior)
        if cfg.chain_out:
            with open(cfg.chain_out, "w", encoding="utf-8") as fh:
                for rec in chain.records():
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return _fit_outcome(
            cfg, fit, acceptance_rate=chain.acceptance_rate, samples=len(chain.mu)
        )

    raise ValueError(f"unknown command: {cfg.command}")


def _fit_outcome(cfg: RunConfig, fit: Fit, **extra) -> tuple[int, dict]:
    """Exit status and result document of every constrained fit.

    The results hold the estimate, the fit's status and its diagnostics,
    plus ``extra`` values of the command; a fit that did not converge exits
    with ``EXIT_NO_CONVERGENCE``.
    """
    results = {
        "u": fit.u,
        "c0": fit.c0,
        "mu": fit.mu,
        "lambda": fit.spectrum,
        "sigma": fit.covariance(),
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
    text = _dumps(doc)
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            status, doc = EXIT_CONFIG, _error_doc(cfg, "config-or-parse", exc)
            text = _dumps(doc)
    if cfg.output_format == "table" and "summary_text" in doc:
        print(doc["summary_text"])
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
