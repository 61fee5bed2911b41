"""Structured covariance matrices anchored at the mean direction.

The model family is ``Sigma = u u^T + sum_i lambda_i V_i V_i^T`` where ``u``
is the unit mean direction, the columns ``V_i`` complete ``u`` to an
orthonormal basis of R^p, and the ``lambda_i`` are free positive eigenvalues.
By construction ``Sigma u = u``, i.e. the mean vector ``c0 * u`` is an
eigenvector of the covariance with eigenvalue one, for every radius ``c0``.

All objects here are immutable value types; the functions are pure and safe
to call concurrently on shared instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NonPositiveEigenvalueError,
    NonUnitVectorError,
    ZeroVectorError,
)

UNIT_TOL = 1e-8


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class MeanState:
    """Polar factorization ``mu = c0 * u`` of a mean vector.

    ``u`` is stored exactly unit length (renormalized if within ``1e-8`` of
    unit norm) and ``c0 >= 0``; any sign is absorbed into ``u``.
    """

    u: np.ndarray
    c0: float

    def __post_init__(self):
        u = _as_vector(self.u, "u")
        nrm = float(np.linalg.norm(u))
        if nrm < UNIT_TOL:
            raise ZeroVectorError("mean direction has (near) zero norm")
        if abs(nrm - 1.0) > UNIT_TOL:
            raise NonUnitVectorError(f"mean direction norm {nrm} is not 1 within {UNIT_TOL}")
        u = u / nrm
        c0 = float(self.c0)
        if c0 < 0.0:
            u, c0 = -u, -c0
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "c0", c0)

    @property
    def mu(self) -> np.ndarray:
        """The assembled mean vector ``c0 * u``."""
        return self.c0 * self.u

    @classmethod
    def from_vector(cls, mu) -> "MeanState":
        """Factor a nonzero mean vector into direction and radius."""
        mu = _as_vector(mu, "mu")
        nrm = float(np.linalg.norm(mu))
        if nrm < UNIT_TOL:
            raise ZeroVectorError("cannot factor a zero mean vector into c0 * u")
        return cls(u=mu / nrm, c0=nrm)


@dataclass(frozen=True)
class EigenSpectrum:
    """The p-1 free eigenvalues; the leading eigenvalue is fixed at one."""

    values: np.ndarray

    def __post_init__(self):
        v = _as_vector(self.values, "values")
        if v.size < 1:
            raise DimensionMismatchError("spectrum needs at least one free eigenvalue")
        if np.any(v <= 0.0):
            raise NonPositiveEigenvalueError(f"eigenvalues must be > 0, got {v}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class OrthoBasis:
    """Orthogonal matrix ``P = [u | V]`` whose first column is the mean direction."""

    matrix: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.matrix, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionMismatchError(f"basis must be a square matrix, got {P.shape}")
        P = P.copy()
        P.setflags(write=False)
        object.__setattr__(self, "matrix", P)

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def u(self) -> np.ndarray:
        return self.matrix[:, 0]

    @property
    def tail(self) -> np.ndarray:
        """The p x (p-1) block of directions orthogonal to ``u``."""
        return self.matrix[:, 1:]


def build_orthobasis(u) -> OrthoBasis:
    """Deterministically complete a unit direction to an orthonormal basis.

    Runs modified Gram-Schmidt (with one re-orthogonalization pass) on the
    sequence ``{u, e_1, ..., e_p} \\ {e_k}`` where ``e_k`` is the canonical
    vector of the largest-magnitude entry of ``u`` (ties resolved to the
    largest index), which guarantees linear independence.  Each column after
    the first is sign-normalized so that its largest-magnitude entry is
    positive, making the construction reproducible and continuous in ``u``
    away from pivot/sign switches.

    Parameters
    ----------
    u : array_like
        Direction of length p; must be unit length within 1e-8.

    Returns
    -------
    OrthoBasis
        ``P = [u | V]`` with ``P^T P = I``; the first column is ``u``
        rescaled to unit length.
    """
    u = _as_vector(u, "u")
    p = u.size
    if p < 2:
        raise DimensionMismatchError("need dimension p >= 2")
    nrm = float(np.linalg.norm(u))
    if nrm < UNIT_TOL:
        raise ZeroVectorError("direction has (near) zero norm")
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NonUnitVectorError(f"direction norm {nrm} is not 1 within {UNIT_TOL}")
    u = u / nrm

    # Drop the canonical vector along the dominant entry of u (last index on
    # ties, so the canonical-axis and equal-entries cases keep e_1..e_{p-1}).
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
        if v[int(np.argmax(np.abs(v)))] < 0.0:
            v = -v
        P[:, col] = v
        col += 1
    return OrthoBasis(P)


def tail_quadratic_forms(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The quadratic forms ``V_i^T A V_i`` for every column ``V_i`` of ``V``."""
    return np.sum(V * (A @ V), axis=0)


@dataclass(frozen=True)
class StructuredCovariance:
    """Covariance ``Sigma = u u^T + sum_i lambda_i V_i V_i^T``."""

    basis: OrthoBasis
    spectrum: EigenSpectrum

    def __post_init__(self):
        if len(self.spectrum) != self.basis.p - 1:
            raise DimensionMismatchError(
                f"spectrum length {len(self.spectrum)} != p - 1 = {self.basis.p - 1}"
            )

    @property
    def u(self) -> np.ndarray:
        return self.basis.u

    @property
    def matrix(self) -> np.ndarray:
        """Assemble Sigma from the rank-one sum; exactly symmetric."""
        u = self.basis.u
        V = self.basis.tail
        return np.outer(u, u) + (V * self.spectrum.values) @ V.T

    @property
    def log_det(self) -> float:
        return float(np.sum(np.log(self.spectrum.values)))


@dataclass(frozen=True)
class Fit:
    """A constrained estimate ``mu = c0 u``, ``Sigma = P(u) diag(1, lambda) P(u)^T``.

    Every constrained estimator returns this shape.  ``basis`` is
    ``build_orthobasis(mean.u)``, which the estimator completes and
    :meth:`covariance` reads.  ``converged`` and ``outer_iterations``
    describe an iterative fit (a closed-form fit keeps the defaults);
    ``diagnostics`` holds the values particular to one estimator.
    """

    mean: MeanState
    spectrum: EigenSpectrum
    basis: OrthoBasis = field(repr=False)
    converged: bool = True
    outer_iterations: int = 0
    diagnostics: dict = field(default_factory=dict)

    def covariance(self) -> StructuredCovariance:
        return StructuredCovariance(self.basis, self.spectrum)


@dataclass(frozen=True)
class SampleSet:
    """An n x p data matrix with the cached mean and zero-centered scatter.

    ``xbar`` is the sample mean and ``a0 = sum_j x_j x_j^T`` is the scatter
    about the origin; both are computed once at construction.  The largest
    eigenvalue of ``a0`` and the scatter about the mean are computed on
    first use and then kept.
    """

    X: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatchError(f"data must be an n x p matrix, got shape {X.shape}")
        if X.shape[1] < 2:
            raise DimensionMismatchError("need dimension p >= 2")
        X = X.copy()
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        xbar = X.mean(axis=0)
        a0 = X.T @ X
        xbar.setflags(write=False)
        a0.setflags(write=False)
        object.__setattr__(self, "_xbar", xbar)
        object.__setattr__(self, "_a0", a0)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def xbar(self) -> np.ndarray:
        return self._xbar

    @property
    def a0(self) -> np.ndarray:
        """Scatter about the origin, ``A(0) = sum_j x_j x_j^T``."""
        return self._a0

    @cached_property
    def a0_lambda_max(self) -> float:
        """Largest eigenvalue of ``A(0)``."""
        return float(np.linalg.eigvalsh(self.a0)[-1])

    def scatter(self, mu) -> np.ndarray:
        """Scatter about ``mu``: ``A(mu) = sum_j (x_j - mu)(x_j - mu)^T``.

        Evaluated through the rank-one update
        ``A(0) - n xbar mu^T - n mu xbar^T + n mu mu^T``.
        """
        mu = _as_vector(mu, "mu")
        if mu.size != self.p:
            raise DimensionMismatchError(f"mu has length {mu.size}, expected {self.p}")
        n = self.n
        cross = n * np.outer(self.xbar, mu)
        return self.a0 - cross - cross.T + n * np.outer(mu, mu)

    def scatter_about_mean(self) -> np.ndarray:
        """``A(xbar)``, the mean-centered scatter (read-only)."""
        return self._scatter_about_mean

    @cached_property
    def _scatter_about_mean(self) -> np.ndarray:
        a = self.scatter(self.xbar)
        a.setflags(write=False)
        return a
