"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from meancov import SampleSet, build_orthobasis, generate_truth, sample_data
from meancov.exceptions import ParseError, TooFewRowsError


def random_unit(p: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(p)
    return v / np.linalg.norm(v)


def simulated_rows(n: int, p: int, seed: int) -> np.ndarray:
    """The n x p matrix of a data set drawn from a random constrained truth."""
    rng = np.random.default_rng(seed)
    return sample_data(generate_truth(p, rng), n, rng)


def simulated_data(n: int, p: int, seed: int) -> SampleSet:
    """The statistics of the data set :func:`simulated_rows` draws."""
    return SampleSet(simulated_rows(n, p, seed))


def estimate_c0_general(data: SampleSet, u, lam) -> float:
    """Radius estimate in its unsimplified ratio-of-quadratic-forms form.

    Evaluates ``(u^T P D^{-1} P^T xbar) / (u^T P D^{-1} P^T u)`` with
    ``D = diag(1, lam)``.  Algebraically equal to ``estimate_c0`` for every
    positive ``lam``; an equivalence oracle for it.
    """
    lam = np.asarray(lam, dtype=float)
    u = np.asarray(u, dtype=float)
    P = build_orthobasis(u)
    dinv = 1.0 / np.concatenate(([1.0], lam))
    M = (P * dinv) @ P.T
    return float((u @ M @ data.xbar) / (u @ M @ u))


def hn_diagonal_reference(data: SampleSet, mu, P, prior) -> np.ndarray:
    """Diagonal of ``H_N = P^T A(mu) P + kappa0 (mu - mu0)(mu - mu0)^T + H0`` in the
    explicit basis ``P``, with the scatter ``A(mu)`` formed: the oracle of the
    library's frame-coordinate formula (``SampleSet.scatter_diagonal``)."""
    d = mu - prior.mu0
    return np.diag(P.T @ data.scatter(mu) @ P) + prior.kappa0 * (d * d) + prior.h0_diag


def build_orthobasis_reference(u) -> np.ndarray:
    """Modified Gram-Schmidt completion, one projection at a time: the oracle
    of ``build_orthobasis``.

    Keeps the given unit ``u`` as the first column as it is, and
    orthogonalizes ``{e_1, ..., e_p} \\ {e_k}`` against ``u`` and the columns
    already built (``e_k`` on the dominant entry of ``u``, last index on
    ties), with one re-orthogonalization pass, which the library's single
    pass does without.  No column is re-signed: tail column j is positive on
    its own axis ``k_j``, as Gram-Schmidt leaves it.  ``build_orthobasis``
    must return the same first column bit for bit, and the same matrix, with
    the same column signs, to rounding.
    """
    u = np.asarray(u, dtype=float)
    p = u.size
    absu = np.abs(u)
    drop = p - 1 - int(np.argmax(absu[::-1]))

    P = np.empty((p, p))
    P[:, 0] = u
    col = 1
    for k in range(p):
        if k == drop:
            continue
        v = np.zeros(p)
        v[k] = 1.0
        for _ in range(2):  # MGS plus one re-orthogonalization pass
            for i in range(col):
                v -= (P[:, i] @ v) * P[:, i]
        v /= np.linalg.norm(v)
        P[:, col] = v
        col += 1
    return P


def niw_joint_log_density(mu, Sigma, params) -> float:
    """Unnormalized log density of the NIW posterior ``params`` at ``(mu, Sigma)``.

    The grid-probe oracle for ``niw_map``: the returned mode must be a local
    maximum of this density.
    """
    mu = np.asarray(mu, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    p = mu.size
    sign, logdet = np.linalg.slogdet(Sigma)
    if sign <= 0:
        return -np.inf
    inv = np.linalg.inv(Sigma)
    d = mu - params.mu_n
    return float(
        -0.5 * (params.nu_n + p + 2.0) * logdet
        - 0.5 * np.trace(inv @ params.Lambda_n)
        - 0.5 * params.kappa_n * (d @ inv @ d)
    )


_GAP_TOL = 1e-12


def siw_log_density(Sigma, nu0: float, b: float, Lambda0) -> float:
    """Unnormalized log density of the shrinkage inverse Wishart: the oracle of
    criterion 7, that with ``b = 1`` the normal likelihood and the
    normal-shrinkage-inverse-Wishart prior stay conjugate with the NIW
    posterior parameters of ``niw_posterior``.

    Equals the inverse-Wishart log kernel minus ``b`` times the sum of log
    eigenvalue gaps.  When ``b > 0`` and two eigenvalues coincide (gap below
    1e-12) the density is zero, returned as ``-inf``.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    p = Sigma.shape[0]
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must lie in [0, 1]")
    sign, logdet = np.linalg.slogdet(Sigma)
    if sign <= 0:
        raise ValueError("Sigma must be positive definite")
    kernel = -0.5 * (nu0 + p + 1.0) * logdet - 0.5 * float(
        np.trace(np.asarray(Lambda0, dtype=float) @ np.linalg.inv(Sigma))
    )
    if b == 0.0:
        return float(kernel)
    lam = np.linalg.eigvalsh(Sigma)[::-1]  # descending
    gaps = (lam[:, None] - lam[None, :])[np.triu_indices(p, k=1)]
    if np.any(gaps < _GAP_TOL):
        return -np.inf
    return float(kernel - b * np.sum(np.log(gaps)))


def ingest_csv_reference(path: str) -> np.ndarray:
    """Row-by-row CSV reader: the oracle of ``cli.ingest_csv``.

    Reads every non-blank line after a leading UTF-8 byte-order mark, drops
    a first line none of whose cells is a number, then parses cell by cell,
    so the first fault in reading order (a ragged row, a cell ``float()``
    rejects or a non-finite cell) is the one reported.  ``ingest_csv`` must return the same array or raise the same
    exception with the same message.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    return np.asarray(rows)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
