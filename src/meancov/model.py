"""Structured covariance matrices anchored at the mean direction.

The model family is ``Sigma = u u^T + sum_i lambda_i V_i V_i^T`` where ``u``
is the unit mean direction, the columns ``V_i`` complete ``u`` to an
orthonormal basis of R^p, and the ``lambda_i`` are free positive eigenvalues.
By construction ``Sigma u = u``, i.e. the mean vector ``c0 * u`` is an
eigenvector of the covariance with eigenvalue one, for every radius ``c0``.

The basis ``P(u) = [u | V]``, the free eigenvalues and the covariance are
plain read-only ``ndarray``s: :func:`build_orthobasis` completes the basis and
:func:`structured_covariance` assembles ``Sigma`` from it.  A fit,
:class:`Fit`, holds the direction ``u`` and the radius ``c0`` of the mean
``mu = c0 u`` next to them, as arrays and scalars.  ``Fit`` and
``SampleSet`` are frozen; the functions are pure and safe to call
concurrently on shared instances.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .exceptions import (
    DegenerateDataError,
    DimensionMismatchError,
    NegativeRadiusError,
    NonPositiveEigenvalueError,
    NonUnitVectorError,
    ZeroMeanError,
    ZeroVectorError,
)

UNIT_TOL = 1e-8


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d float vector, bit for bit, without its dispatch.

    ``np.linalg.norm`` takes the square root of ``x.dot(x)`` on a contiguous
    copy; a strided view is copied the same way, since a strided dot sums in
    another order.
    """
    v = np.ascontiguousarray(v)
    return math.sqrt(v.dot(v))


def _check_unit(u: np.ndarray) -> None:
    """Raise unless the 1-d ``u`` has norm one within ``UNIT_TOL`` (NaN fails)."""
    nrm = _norm(u)
    if nrm < UNIT_TOL:
        raise ZeroVectorError("direction has (near) zero norm")
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise NonUnitVectorError(f"direction norm {nrm} is not 1 within {UNIT_TOL}")


def _polar(mu) -> tuple[np.ndarray, float]:
    """Factor a nonzero mean vector as ``mu = c0 u``: ``(mu / ||mu||, ||mu||)``.

    The one place a mean becomes a direction; a mean of norm below
    ``UNIT_TOL`` raises ``ZeroMeanError``.
    """
    mu = _as_vector(mu, "mu")
    c0 = _norm(mu)
    if c0 < UNIT_TOL:
        raise ZeroMeanError("cannot factor a zero mean vector into c0 * u")
    return mu / c0, c0


def build_orthobasis(u) -> np.ndarray:
    """Deterministically complete a unit direction to an orthonormal basis.

    Runs one modified Gram-Schmidt (MGS) pass over the sequence
    ``{u, e_1, ..., e_p} \\ {e_k}``, where ``e_k`` is the canonical vector of
    the largest-magnitude entry of ``u`` (ties resolved to the largest
    index).  Each ``e_j`` is projected once onto ``u``, in closed form and
    divided by ``u^T u`` so that the tail is orthogonal to ``u`` also when
    ``u`` is unit only within ``UNIT_TOL``, and once onto each tail column
    already built.  One pass suffices: since ``|u_k| >= 1/sqrt(p)`` the
    sequence has condition number at most ``2 sqrt(p)``, and MGS loses
    orthogonality only in proportion to it (Bjorck 1967): for equal
    entries, the worst case, ``|P^T P - I|`` is about ``0.2 p eps`` at
    p = 50 and 200.

    Tail column j is positive on its own axis ``k_j`` (the index of the
    ``e_k`` it is built from), as Gram-Schmidt leaves it: that entry is a
    largest one of the column and at least ``1 / sqrt(p)``.

    Parameters
    ----------
    u : array_like
        Direction of length p; must be unit length within 1e-8.

    Returns
    -------
    numpy.ndarray
        The read-only p x p matrix ``P = [u | V]`` with ``P^T P = I``; the
        first column is ``u``.
    """
    u = _as_vector(u, "u")
    p = u.size
    if p < 2:
        raise DimensionMismatchError("need dimension p >= 2")
    _check_unit(u)

    # Drop the canonical vector along the dominant entry of u (last index on
    # ties, so the canonical-axis and equal-entries cases keep e_1..e_{p-1}).
    drop = p - 1 - int(np.abs(u)[::-1].argmax())
    uu = u.dot(u)

    P = np.empty((p, p))
    P[:, 0] = u
    tail = []  # views of the tail columns, in the order they were completed
    for j, k in enumerate([k for k in range(p) if k != drop], start=1):
        # The projection of e_k onto u in closed form (u @ e_k is exactly
        # u[k]); 0 - x keeps the zeros of e_k - w u positive.
        w = u[k] / uu
        v = 0.0 - w * u
        v[k] = 1.0 - w * u[k]
        for c in tail:  # one MGS pass
            v -= c.dot(v) * c
        v /= math.sqrt(v.dot(v))
        P[:, j] = v
        tail.append(P[:, j])
    P.setflags(write=False)
    return P


def tail_quadratic_forms(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The quadratic forms ``V_i^T A V_i`` for every column ``V_i`` of ``V``."""
    return (V * A.dot(V)).sum(axis=0)


def _spectrum(lam, p: int) -> np.ndarray:
    """``lam`` as a vector of ``p - 1`` free eigenvalues; the length check
    also keeps a length-1 ``lam`` from broadcasting over the tail columns."""
    lam = _as_vector(lam, "spectrum")
    if lam.size != p - 1:
        raise DimensionMismatchError(f"spectrum length {lam.size} != p - 1 = {p - 1}")
    return lam


def structured_covariance(basis: np.ndarray, lam) -> np.ndarray:
    """``Sigma = P diag(1, lam) P^T`` for the basis ``P = [u | V]`` and ``p - 1`` eigenvalues.

    Assembled as ``u u^T + sum_i lam_i V_i V_i^T``, which is exactly
    symmetric, and returned read-only; a ``lam`` of another length raises
    ``DimensionMismatchError``.
    """
    lam = _spectrum(lam, basis.shape[0])
    u = basis[:, 0]
    V = basis[:, 1:]
    sigma = np.outer(u, u) + (V * lam) @ V.T
    sigma.setflags(write=False)
    return sigma


@dataclass(frozen=True)
class Fit:
    """A constrained estimate ``mu = c0 u``, ``Sigma = P(u) diag(1, lambda) P(u)^T``.

    Every constrained estimator returns this shape, and construction checks
    it.  ``u`` is a read-only copy of the direction as the estimator
    completed it, unit within ``UNIT_TOL``; ``c0 >= 0`` is the radius.
    ``basis`` is the read-only matrix ``P = build_orthobasis(u)`` that
    :meth:`covariance` reads, and ``spectrum`` a read-only copy of the
    ``p - 1`` free eigenvalues, each > 0 (the leading one is fixed at one).
    ``converged`` and ``outer_iterations`` describe an iterative fit (a
    closed-form fit keeps the defaults); ``diagnostics`` is a read-only
    mapping, over a copy of the one given, of the values particular to one
    estimator.  A fit may be shared (one MLE serves every caller on the
    same data), so none of it can be written.
    """

    u: np.ndarray
    c0: float
    spectrum: np.ndarray
    basis: np.ndarray = field(repr=False)
    converged: bool = True
    outer_iterations: int = 0
    diagnostics: Mapping = field(default_factory=dict)

    def __post_init__(self):
        p = self.basis.shape[0]
        u = _as_vector(self.u, "u")
        if u.size != p:
            raise DimensionMismatchError(f"direction length {u.size} != p = {p}")
        _check_unit(u)
        c0 = float(self.c0)
        if not c0 >= 0.0:
            raise NegativeRadiusError(f"radius c0 must be >= 0, got {c0}")
        lam = _spectrum(self.spectrum, p)
        if not np.all(lam > 0.0):
            raise NonPositiveEigenvalueError(f"eigenvalues must be > 0, got {lam}")
        u, lam = u.copy(), lam.copy()
        u.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "spectrum", lam)
        object.__setattr__(self, "diagnostics", MappingProxyType(dict(self.diagnostics)))

    def __reduce__(self):
        # A mappingproxy cannot be pickled: rebuild the fit from a plain dict.
        return (type(self), (self.u, self.c0, self.spectrum, self.basis, self.converged,
                             self.outer_iterations, dict(self.diagnostics)))

    @property
    def mu(self) -> np.ndarray:
        """The mean vector ``c0 * u``."""
        return self.c0 * self.u

    def covariance(self) -> np.ndarray:
        """The read-only matrix ``Sigma`` of :func:`structured_covariance`."""
        return structured_covariance(self.basis, self.spectrum)


@dataclass(frozen=True)
class SampleSet:
    """An n x p data matrix with the cached mean and zero-centered scatter.

    ``X`` is a read-only copy of the matrix given, which must be finite
    (``DegenerateDataError`` otherwise).  ``xbar`` is the sample mean and
    ``a0 = sum_j x_j x_j^T`` is the scatter about the origin; both are
    computed once at construction, and data whose mean or scatter
    overflows raise ``DegenerateDataError`` too.  The largest eigenvalue
    of ``a0``, the scatter about the mean and the MLE
    (:func:`meancov.mle.fit_mle`) are computed on first use and then kept.
    """

    X: np.ndarray

    def __post_init__(self):
        self._set_up(self.X, copy=True)

    @classmethod
    def _owning(cls, X: np.ndarray) -> "SampleSet":
        """A ``SampleSet`` that keeps the fresh array ``X`` itself, without the copy.

        For a caller that has just built ``X`` and hands it over; ``X`` is
        made read-only.  The data, and every value computed from them, are
        those of ``SampleSet(X)`` bit for bit.
        """
        data = object.__new__(cls)
        data._set_up(X, copy=False)
        return data

    def _set_up(self, X, copy: bool) -> None:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatchError(f"data must be an n x p matrix, got shape {X.shape}")
        if X.shape[1] < 2:
            raise DimensionMismatchError("need dimension p >= 2")
        if not np.isfinite(X).all():
            raise DegenerateDataError("data must be finite, got a NaN or an infinity")
        X = X.copy() if copy else np.ascontiguousarray(X)
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        with np.errstate(over="ignore", invalid="ignore"):
            xbar = X.mean(axis=0)
            a0 = X.T @ X
        if not (np.isfinite(xbar).all() and np.isfinite(a0).all()):
            raise DegenerateDataError("data overflow: the mean or the scatter is not finite")
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

    @cached_property
    def _mle(self) -> Fit:
        """The fit :func:`meancov.mle.fit_mle` returns; one that raises is not kept."""
        from .mle import _fit_mle  # imported on use: mle imports this module

        return _fit_mle(self)
