"""Structured covariance matrices anchored at the mean direction.

The model family is ``Sigma = u u^T + sum_i lambda_i V_i V_i^T`` where ``u``
is the unit mean direction, the columns ``V_i`` complete ``u`` to an
orthonormal basis of R^p, and the ``lambda_i`` are free positive eigenvalues.
By construction ``Sigma u = u``, i.e. the mean vector ``c0 * u`` is an
eigenvector of the covariance with eigenvalue one, for every radius ``c0``.

The basis ``P(u) = [u | V]``, the free eigenvalues and the covariance are
plain read-only ``ndarray``s: :func:`build_orthobasis` completes the basis,
:func:`transport_frame` carries a completed basis (a frame) to another
direction, :meth:`SampleSet.completion` carries the data's frame, the one
completion every estimator takes, and :func:`structured_covariance`
assembles ``Sigma``.  The estimators read the data in that completion
through :meth:`SampleSet.scatter_diagonal`, without forming the basis.
:class:`Fit` holds the direction ``u`` and the radius ``c0`` of the mean
next to them.  ``Fit`` and ``SampleSet`` are read-only records; the functions are pure.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

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

# A tail of frame coordinates of norm at most this times p ||x|| is rounding
# noise: at most 0.4 p eps at the axis of frames by build_orthobasis, p = 2-200.
_AXIS_TOL = 4.0 * float(np.finfo(float).eps)


def _as_vector(x, name: str, size: int | None = None) -> np.ndarray:
    """``x`` as a 1-d float array, of length ``size`` unless that is ``None``;
    ``DimensionMismatchError`` otherwise.  The one length check of the package."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if size is not None and v.size != size:
        raise DimensionMismatchError(f"{name} has length {v.size}, expected {size}")
    return v


def _as_matrix(x, name: str, shape: tuple[int | None, int | None] = (None, None)) -> np.ndarray:
    """``x`` as a 2-d float array whose axes have the sizes ``shape`` gives (``None``: any);
    ``DimensionMismatchError`` otherwise.  The one shape check of the package."""
    m = np.asarray(x, dtype=float)
    if m.ndim != 2 or any(k not in (None, s) for k, s in zip(shape, m.shape)):
        want = ", ".join("any" if k is None else str(k) for k in shape)
        raise DimensionMismatchError(f"{name} must have shape ({want}), got shape {m.shape}")
    return m


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d float vector, bit for bit, without its dispatch.

    ``np.linalg.norm`` takes the square root of ``x.dot(x)`` on a contiguous
    copy; a strided view is copied the same way, since a strided dot sums in
    another order.
    """
    v = np.ascontiguousarray(v)
    return math.sqrt(v.dot(v))


def _direction(u, p: int | None = None) -> np.ndarray:
    """``u`` as a 1-d float array of length ``p`` (if given) and norm one within ``UNIT_TOL``;
    ``DimensionMismatchError``, ``ZeroVectorError`` or ``NonUnitVectorError`` otherwise."""
    u = _as_vector(u, "u", p)
    nrm = _norm(u)
    if nrm < UNIT_TOL:
        raise ZeroVectorError("direction has (near) zero norm")
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise NonUnitVectorError(f"direction norm {nrm} is not 1 within {UNIT_TOL}")
    return u


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
    _direction(u)

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


def _frame_geometry(x0: float, xt: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """``(||x||, c, s, b)`` of frame coordinates ``x = (x0, xt)``: ``x / ||x|| = (c, s b)``.

    The one convention on the frame's axis, where rounding would set the unit
    ``b``, for :func:`transport_frame` and :meth:`SampleSet.scatter_diagonal`:
    a tail of norm at most ``_AXIS_TOL p ||x||`` (``4 p eps ||x||``) counts as zero, so
    ``s = 0``, ``b = 0`` and the completion keeps the frame's tail ``V_r``
    at ``-r`` as at ``r``.
    """
    nt2 = float(xt.dot(xt))
    nx = math.sqrt(x0 * x0 + nt2)
    if nx < UNIT_TOL:
        raise ZeroMeanError("cannot factor a zero mean vector into c0 * u")
    nt = math.sqrt(nt2)
    if nt <= _AXIS_TOL * (xt.size + 1) * nx:
        return nx, x0 / nx, 0.0, np.zeros(xt.size)
    return nx, x0 / nx, nt / nx, xt / nt


def transport_frame(frame: np.ndarray, u) -> np.ndarray:
    """Carry the basis ``frame = P(r)`` to the unit ``u`` by the rotation in ``span{r, u}``.

    The rotation that takes ``r`` to ``u`` and fixes the complement of the
    plane turns the tail ``V_r`` of the frame into
    ``V(u) = V_r + ((c - 1) w - s r)(w^T V_r)``, with ``c = r^T u``,
    ``s = ||u - c r||`` and ``w = (u - c r) / s``: a rank-one update, O(p^2).
    It is taken in the frame's coordinates ``frame^T u = ||u|| (c, s b)``
    (:func:`_frame_geometry`), so ``w = V_r b`` is orthogonal to ``r`` to
    rounding however close ``u`` is to ``-r``, and for ``u / ||u||``, so
    ``V(u)`` is orthonormal also for a ``u`` unit only within ``UNIT_TOL``.
    ``V(u)`` is continuous but at ``u = -r``, the one seam of the completion;
    on the frame's axis (``-r`` included) it is ``V_r``.

    Returns the read-only ``P = [u | V(u)]``; column 0 is ``u`` bit for bit.
    ``u`` must be unit within ``UNIT_TOL`` and the frame square of ``u``'s length.
    """
    u = _as_vector(u, "u")
    p = u.size
    frame = _as_matrix(frame, "frame", (p, p))
    u = _direction(u)
    r, v_r = frame[:, 0], frame[:, 1:]
    ut = frame.T.dot(u)
    _, c, s, b = _frame_geometry(float(ut[0]), ut[1:])
    P = np.empty((p, p))
    P[:, 0] = u
    P[:, 1:] = v_r + np.outer((c - 1.0) * v_r.dot(b) - s * r, b)  # V_r where b = 0
    P.setflags(write=False)
    return P


def tail_quadratic_forms(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The quadratic forms ``V_i^T A V_i`` for every column ``V_i`` of ``V``."""
    return (V * A.dot(V)).sum(axis=0)


class _Frame(NamedTuple):
    """The data's frame ``F = P(u_hat)`` and its statistics ``A~ = F^T A(0) F`` and
    ``x~ = F^T xbar``: the eigenvalues of ``A(xbar)``, ``F``, contiguous copies of ``u_hat``
    and of ``F``'s tail, ``n``, ``A~_00``, ``A~_tail,0``, ``A~_:,tail`` stacked over
    ``x~_tail^T``, the tail of ``diag(A~)`` (the frame's own tail forms) and ``x~``."""

    evals: np.ndarray
    basis: np.ndarray
    f0: np.ndarray
    f_tail: np.ndarray
    n: int
    a00: float
    a_col: np.ndarray
    a_w: np.ndarray
    a_diag: np.ndarray
    x0: float
    x_tail: np.ndarray

    def geometry(self, u, c0: float) -> tuple[float, float, np.ndarray, float]:
        """``(c, s, b, |c0|)`` of the mean ``c0 u`` for :meth:`diagonal`: ``F^T u' = (c, s b)``
        (:func:`_frame_geometry`) for its direction ``u'``, ``u`` where ``c0 >= 0``, ``-u``
        where ``c0 < 0``; ``u`` is checked unit."""
        u = _direction(u, self.f0.size)
        if c0 < 0.0:
            u, c0 = -u, -c0
        ut = self.basis.T.dot(u)
        _, c, s, b = _frame_geometry(float(ut[0]), ut[1:])
        return c, s, b, c0

    def diagonal(self, c: float, s: float, b: np.ndarray, c0: float) -> tuple[float, np.ndarray]:
        """The leading entry and the tail of ``diag(P^T A(c0 u) P)``, ``c0 >= 0``, at
        ``F^T u = (c, s b)`` (:func:`_frame_geometry`), in O(p^2): with
        ``F^T P = [u | E + a b^T]``, ``a = (-s, (c - 1) b)`` and ``w = (0, b)``,
        the tail forms are ``diag(A~)_i + 2 b_i (A~ a)_i + b_i^2 a^T A~ a`` and
        the leading entry is ``u^T A~ u + n c0 (c0 - 2 u^T x~)``.
        """
        g = self.a_w.dot(b)
        g0, bx, gt = float(g[0]), float(g[-1]), g[1:-1]  # g[:-1] = A~ w
        kap = float(b.dot(gt))  # w^T A~ w
        c1 = c - 1.0
        q0 = c * c * self.a00 + 2.0 * c * s * g0 + s * s * kap  # u^T A~ u
        a_a = s * s * self.a00 - 2.0 * s * c1 * g0 + c1 * c1 * kap  # a^T A~ a
        # (A~ a)_tail = (c - 1) (A~ w)_tail - s A~_tail,0
        tail = self.a_diag + b * ((2.0 * c1) * gt - (2.0 * s) * self.a_col + a_a * b)
        ux = c * self.x0 + s * bx
        return q0 + self.n * c0 * (c0 - 2.0 * ux), tail


def structured_covariance(basis: np.ndarray, lam) -> np.ndarray:
    """``Sigma = P diag(1, lam) P^T`` for the basis ``P = [u | V]`` and ``p - 1`` eigenvalues.

    Assembled as ``u u^T + sum_i lam_i V_i V_i^T``, which is exactly
    symmetric, and returned read-only; a basis that is not square of order
    ``lam``'s length plus one raises ``DimensionMismatchError``.
    """
    lam = _as_vector(lam, "spectrum")
    basis = _as_matrix(basis, "basis", (lam.size + 1, lam.size + 1))
    u = basis[:, 0]
    V = basis[:, 1:]
    sigma = np.outer(u, u) + (V * lam) @ V.T
    sigma.setflags(write=False)
    return sigma


def _frozen(value):
    """``value`` made read-only: an array as a read-only copy (a read-only one that owns
    its memory, which no other array can write, as it is), a list as a tuple, a mapping as
    a read-only mapping over a copy with every value frozen, and a tuple with its arrays
    made read-only in place; any other value as it is."""
    if isinstance(value, np.ndarray):
        if value.flags.writeable or not value.flags.owndata:
            value = value.copy()
            value.setflags(write=False)
    elif isinstance(value, list):
        value = tuple(value)
    elif isinstance(value, Mapping):
        value = MappingProxyType({k: _frozen(v) for k, v in value.items()})
    elif isinstance(value, tuple):
        for a in value:
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
    return value


class _Record:
    """Base of the frozen result records: every field is stored through :func:`_frozen`, the
    checked values a subclass passes to ``__post_init__`` in place of the given ones.  Pickle
    and ``copy.deepcopy`` take a read-only mapping as a plain dict and freeze every value
    again on load, so a copy is as read-only as the record."""

    def __post_init__(self, **checked):
        self.__setstate__({**vars(self), **checked})

    def __getstate__(self):
        return {k: dict(v) if isinstance(v, MappingProxyType) else v for k, v in vars(self).items()}

    def __setstate__(self, state):
        vars(self).update({k: _frozen(v) for k, v in state.items()})


@dataclass(frozen=True, eq=False)
class Fit(_Record):
    """A constrained estimate ``mu = c0 u``, ``Sigma = P(u) diag(1, lambda) P(u)^T``.

    Every constrained estimator returns this shape, and construction checks
    it.  ``u`` is the direction as the estimator completed it, unit within
    ``UNIT_TOL``; ``c0 >= 0`` is the radius.  ``basis`` is the ``p x p``
    completion ``P(u)`` that :meth:`covariance` reads, whose column 0 is ``u``
    bit for bit and whose tail is orthonormal and orthogonal to ``u`` within
    ``UNIT_TOL``: :meth:`SampleSet.completion` of ``u``.  ``spectrum`` holds the
    ``p - 1`` free eigenvalues, each > 0 (the leading one is fixed at one).
    ``converged`` and ``outer_iterations`` describe an iterative fit (a
    closed-form fit keeps the defaults); ``diagnostics`` is a mapping of the
    values particular to one estimator.  Every value is stored read-only
    (:class:`_Record`): a fit may share its basis with the data (the MLE's
    basis is the data's kept :attr:`SampleSet.frame`), so none of it can be written.
    """

    u: np.ndarray
    c0: float
    spectrum: np.ndarray
    basis: np.ndarray = field(repr=False)
    converged: bool = True
    outer_iterations: int = 0
    diagnostics: Mapping = field(default_factory=dict)

    def __post_init__(self):
        u = _as_vector(self.u, "u")
        p = u.size
        basis = _as_matrix(self.basis, "basis", (p, p))
        u = _direction(u)
        if not np.array_equal(basis[:, 0], u):
            raise DimensionMismatchError("the basis's first column is not u")
        V = basis[:, 1:]  # orthonormal and orthogonal to u, else Sigma u != u; NaN fails
        if not np.abs(np.vstack([V.T @ V - np.eye(p - 1), u @ V])).max() <= UNIT_TOL:
            raise DimensionMismatchError("the basis's tail is not an orthonormal completion of u")
        c0 = float(self.c0)
        if not c0 >= 0.0:
            raise NegativeRadiusError(f"radius c0 must be >= 0, got {c0}")
        lam = _as_vector(self.spectrum, "spectrum", p - 1)
        if not np.all(lam > 0.0):
            raise NonPositiveEigenvalueError(f"eigenvalues must be > 0, got {lam}")
        super().__post_init__(u=u, c0=c0, spectrum=lam, basis=basis)

    @property
    def mu(self) -> np.ndarray:
        """The mean vector ``c0 * u``."""
        return self.c0 * self.u

    def covariance(self) -> np.ndarray:
        """The read-only matrix ``Sigma`` of :func:`structured_covariance`."""
        return structured_covariance(self.basis, self.spectrum)


@dataclass(frozen=True, eq=False)
class SampleSet(_Record):
    """The sufficient statistics of an n x p data matrix ``X``: ``n``, ``xbar`` and ``a0``.

    Every estimator reads the data only through the row count, the sample
    mean ``xbar`` and the scatter about the origin ``a0 = sum_j x_j x_j^T``,
    both read-only; ``X`` is reduced to them and not kept.  ``X`` needs at
    least one row, and it, its mean and its scatter must be finite
    (``DegenerateDataError`` otherwise); it is read as a C-ordered float
    array, copied only when it is not one.  The largest eigenvalue of
    ``a0``, the scatter about the mean, the :attr:`frame` and its statistics
    are computed on first use and kept; no fit is.  Instances compare and hash
    by identity, since their fields are arrays, and an unpickled one, with
    every kept value, is read-only like the original.
    """

    X: InitVar[np.ndarray]
    n: int = field(init=False)
    xbar: np.ndarray = field(init=False)
    a0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, X):
        X = np.ascontiguousarray(_as_matrix(X, "data"))
        if X.shape[1] < 2:
            raise DimensionMismatchError("need dimension p >= 2")
        if X.shape[0] < 1:
            raise DegenerateDataError(f"data has {X.shape[0]} rows; need at least one")
        if not np.isfinite(X).all():
            raise DegenerateDataError("data must be finite, got a NaN or an infinity")
        with np.errstate(over="ignore", invalid="ignore"):
            xbar = X.mean(axis=0)
            a0 = X.T @ X
        if not (np.isfinite(xbar).all() and np.isfinite(a0).all()):
            raise DegenerateDataError("data overflow: the mean or the scatter is not finite")
        xbar.setflags(write=False)
        a0.setflags(write=False)
        super().__post_init__(n=X.shape[0], xbar=xbar, a0=a0)

    @property
    def p(self) -> int:
        return self.xbar.size

    @cached_property
    def a0_lambda_max(self) -> float:
        """Largest eigenvalue of ``A(0)``."""
        return float(np.linalg.eigvalsh(self.a0)[-1])

    def scatter(self, mu) -> np.ndarray:
        """Scatter about ``mu``: ``A(mu) = sum_j (x_j - mu)(x_j - mu)^T``.

        Evaluated through the rank-one update
        ``A(0) - n xbar mu^T - n mu xbar^T + n mu mu^T``.
        """
        mu = _as_vector(mu, "mu", self.p)
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

    @property
    def frame(self) -> np.ndarray:
        """The anchor basis ``P(u_hat) = build_orthobasis(u_hat)`` (read-only).

        ``u_hat`` is the eigenvector of the smallest eigenvalue of ``A(xbar)``,
        signed so that ``u_hat^T xbar >= 0``: the MLE's direction, taken here
        without the MLE's rank test.  The MLE's basis is this frame, and
        :meth:`completion` carries it to any other direction, so the
        completion of a direction depends on the data through ``u_hat``.
        """
        return self._frame.basis

    def completion(self, u) -> np.ndarray:
        """The basis ``P(u)`` of a unit direction for these data: the :attr:`frame`
        carried to ``u`` by :func:`transport_frame` (read-only).

        The one completion of the model on a data set, at ``u_hat`` the
        frame itself.  The estimators read the data in it through
        :meth:`scatter_diagonal` and form it only for the basis of a fit.
        """
        return transport_frame(self.frame, u)

    def scatter_diagonal(self, u, c0: float) -> np.ndarray:
        """``diag(P^T A(c0 u) P)``, ``H_N``'s diagonal under a flat prior, in the
        completion ``P`` of the mean's direction: ``u`` where ``c0 >= 0`` (``0``
        included), ``-u`` where ``c0 < 0``.  Its tail is the tail forms of
        ``A(0)``, read off the frame's statistics with one product ``F^T u``,
        in O(p^2); at the frame's own direction, the frame's tail forms.
        """
        frame = self._frame
        hn0, tail = frame.diagonal(*frame.geometry(u, c0))
        return np.concatenate(([hn0], tail))

    @cached_property
    def _frame(self) -> _Frame:
        """The :attr:`frame` and its statistics, read-only, built on first read from one
        ``eigh`` of ``A(xbar)``, one completion and one ``F^T A(0) F``."""
        evals, evecs = np.linalg.eigh(self.scatter_about_mean())
        u = evecs[:, 0] / _norm(evecs[:, 0])
        if u @ self.xbar < 0.0:
            u = -u
        F = build_orthobasis(u)
        At, xt = F.T.dot(self.a0).dot(F), F.T.dot(self.xbar)
        return _frozen(_Frame(
            evals, F, F[:, 0].copy(), np.ascontiguousarray(F[:, 1:]), self.n, float(At[0, 0]),
            At[1:, 0].copy(), np.vstack([At[:, 1:], xt[1:]]),
            tail_quadratic_forms(self.a0, F[:, 1:]), float(xt[0]), xt[1:].copy()))
