"""Tests for the structured-covariance core: basis construction, assembly,
scatter algebra, the value types they rest on, and the input checks every
entry point shares."""

import ast
import copy
import dataclasses
import math
import pickle
import warnings
import weakref
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from meancov import (
    DegenerateDataError,
    DimensionMismatchError,
    Fit,
    GibbsRun,
    NegativeRadiusError,
    NiwParams,
    NonPositiveEigenvalueError,
    NonUnitVectorError,
    PriorConfig,
    SampleSet,
    TruthSpec,
    ZeroVectorError,
    build_orthobasis,
    draw_lambda_conditional,
    estimate_c0,
    estimate_lambdas,
    fit_map_newton,
    fit_mle,
    generate_truth,
    h_gradient,
    h_hessian,
    h_value,
    hn_diagonal,
    log_posterior,
    lower_bound_h,
    map_c0_update,
    map_from_chain,
    map_lambda_update,
    niw_map,
    niw_posterior,
    profile_loglik,
    run_experiment,
    run_gibbs,
    sample_data,
    structured_covariance,
    transport_frame,
)
from meancov import model as model_module
from meancov.cli import latlong_to_sphere
from meancov.gibbs import lambda_conditional_params
from conftest import build_orthobasis_reference, random_unit, simulated_data, simulated_rows

EPS = np.finfo(float).eps


def assert_matches_oracle(P: np.ndarray, u) -> None:
    """``P`` is the MGS oracle's completion of ``u`` to rounding, with its column signs.

    The kernel runs one MGS pass where the oracle runs two, so the two agree
    entrywise within ``16 p eps`` (they differ by at most ``0.5 p eps`` at
    p = 2 ... 200); a flipped column would differ by twice its own-axis
    entry, at least ``2 / sqrt(p)``, and its dot with the oracle's column
    would be negative.
    """
    expected = build_orthobasis_reference(u)
    p = expected.shape[0]
    assert np.array_equal(P[:, 0], expected[:, 0])
    assert np.abs(P - expected).max() <= 16 * p * EPS
    assert np.all((P * expected).sum(axis=0) > 0.0)


def b_matrix(data: SampleSet, u, c0: float) -> np.ndarray:
    """The scatter about the mean rotated into its basis, ``P(u)^T A(c0 u) P(u)``.

    Its trailing diagonal entries ``V_i^T A(0) V_i`` do not depend on
    ``c0``, and the leading entry equals
    ``u^T A(xbar) u + n (c0 - u^T xbar)^2``.
    """
    P = build_orthobasis(u)
    return P.T @ data.scatter(c0 * u) @ P


def repeated_tail_eigenvectors(mu) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form orthocomplement directions for a mean ``(m1, m2, m3, ..., m3)``.

    For mean vectors whose entries from the third position on are all equal,
    the first two directions orthogonal to the mean have the explicit form

        w1 = (m0^2, -m1 m2, -m1 m3, ..., -m1 m3) / (m0 ||mu||)
        w2 = (0, (p-2) m3, -m2, ..., -m2) / ((p-2) m0)

    with ``m0^2 = m2^2 + (p-2) m3^2``.  An independent oracle for
    :func:`build_orthobasis`; note ``w2`` as displayed is unit length only at
    p = 3 and is returned unnormalized-as-written.
    """
    mu = np.asarray(mu, dtype=float)
    p = mu.size
    if p < 3:
        raise DimensionMismatchError("the closed form needs p >= 3")
    m1, m2, m3 = mu[0], mu[1], mu[2]
    if p > 3 and not np.allclose(mu[2:], m3):
        raise ValueError("entries from the third position on must be equal")
    m0 = np.sqrt(m2**2 + (p - 2) * m3**2)
    w1 = np.concatenate(([m0**2], [-m1 * m2], np.full(p - 2, -m1 * m3)))
    w1 = w1 / (m0 * np.linalg.norm(mu))
    w2 = np.concatenate(([0.0], [(p - 2) * m3], np.full(p - 2, -m2)))
    w2 = w2 / ((p - 2) * m0)
    return w1, w2


def closed_form_tail(u) -> tuple[np.ndarray, list[int]]:
    """The tail columns of ``build_orthobasis(u)`` in closed form, and their axes.

    Tail column j is built from ``e_k`` with ``k = k_j``, the j-th index
    other than ``drop`` (the largest ``|u_i|``, last index on ties).  With
    ``S_j`` the indices not yet eliminated (``S_1`` all of them,
    ``S_{j+1} = S_j \\ {k_j}``) and ``T_j = sum_{i in S_j} u_i^2``, it is
    ``(e_k T_{j+1} - u_k u|S_{j+1}) / sqrt(T_j T_{j+1})``, where ``u|S`` is
    ``u`` with the entries outside ``S`` set to zero.  Its own-axis entry
    ``sqrt(T_{j+1} / T_j)`` is positive, at least ``1 / sqrt(p)``.
    """
    u = np.asarray(u, dtype=float)
    p = u.size
    drop = p - 1 - int(np.argmax(np.abs(u)[::-1]))
    axes = [k for k in range(p) if k != drop]
    V = np.zeros((p, p - 1))
    for j, k in enumerate(axes):
        rest = axes[j + 1:] + [drop]  # S_{j+1}
        t_next = np.sum(u[rest] ** 2)
        t = t_next + u[k] ** 2
        V[k, j] = t_next
        V[rest, j] = -u[k] * u[rest]
        V[:, j] /= np.sqrt(t * t_next)
    return V, axes


def _fit(u, lam, c0=1.0) -> Fit:
    return Fit(u=u, c0=c0, spectrum=lam, basis=build_orthobasis(u))


class TestFitMean:
    def test_mu_assembly(self):
        fit = _fit(np.array([0.6, 0.8]), np.ones(1), c0=2.5)
        assert np.allclose(fit.mu, [1.5, 2.0])

    def test_keeps_direction_within_tolerance_bitwise(self):
        u = np.array([1.0, 0.0]) * (1.0 + 5e-9)
        fit = _fit(u, np.ones(1))
        assert np.array_equal(fit.u, u)
        with pytest.raises(ValueError):
            fit.u[0] = 0.5

    def test_rejects_non_unit_direction(self):
        with pytest.raises(NonUnitVectorError):
            Fit(u=np.array([1.0, 1.0]), c0=1.0, spectrum=np.ones(1), basis=np.eye(2))
        with pytest.raises(NonUnitVectorError):
            Fit(u=np.array([np.nan, 0.0]), c0=1.0, spectrum=np.ones(1), basis=np.eye(2))

    def test_rejects_zero_direction(self):
        with pytest.raises(ZeroVectorError):
            Fit(u=np.zeros(3), c0=1.0, spectrum=np.ones(2), basis=np.eye(3))

    def test_rejects_matrix_direction(self):
        with pytest.raises(DimensionMismatchError):
            Fit(u=np.eye(2), c0=1.0, spectrum=np.ones(1), basis=np.eye(2))

    def test_rejects_direction_of_other_length(self):
        with pytest.raises(DimensionMismatchError):
            Fit(u=np.array([0.0, 1.0]), c0=1.0, spectrum=np.ones(2), basis=np.eye(3))

    @pytest.mark.parametrize("c0", [-3.0, -1e-300, np.nan])
    def test_rejects_negative_or_nan_radius(self, c0):
        with pytest.raises(NegativeRadiusError):
            _fit(np.array([0.0, 1.0]), np.ones(1), c0=c0)

    def test_accepts_zero_radius(self):
        assert _fit(np.array([0.0, 1.0]), np.ones(1), c0=0.0).c0 == 0.0


class TestFitSpectrum:
    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveEigenvalueError):
            _fit(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(NonPositiveEigenvalueError):
            _fit(np.array([0.0, 1.0]), np.array([-1.0]))

    def test_rejects_nan(self):
        with pytest.raises(NonPositiveEigenvalueError):
            _fit(np.array([0.0, 0.0, 1.0]), np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            _fit(np.array([0.0, 0.0, 1.0]), np.array([]))

    def test_dimension_mismatch(self, rng):
        # A length-1 spectrum would broadcast over all three tail columns.
        u = random_unit(4, rng)
        for lam in (np.ones(1), np.ones(2), np.ones((3, 1))):
            with pytest.raises(DimensionMismatchError):
                _fit(u, lam)

    def test_immutable_copy(self):
        lam = np.array([1.0, 2.0])
        fit = _fit(np.array([0.0, 0.0, 1.0]), lam)
        lam[0] = 5.0
        assert fit.spectrum[0] == 1.0
        with pytest.raises(ValueError):
            fit.spectrum[0] = 5.0
        with pytest.raises(ValueError):
            fit.covariance()[0, 0] = 5.0


class TestFitDiagnostics:
    def test_read_only_copy(self):
        given = {"profile_loglik": -3.5, "h_trace": [1.0, 2.0]}
        u = np.array([0.0, 1.0])
        fit = Fit(u=u, c0=1.0, spectrum=np.ones(1), basis=build_orthobasis(u), diagnostics=given)
        with pytest.raises(TypeError):
            fit.diagnostics["profile_loglik"] = 0.0
        with pytest.raises(TypeError):
            fit.diagnostics["new"] = 1.0
        given["profile_loglik"] = 7.0
        assert dict(fit.diagnostics) == {"profile_loglik": -3.5, "h_trace": (1.0, 2.0)}

    def test_list_and_array_values_are_frozen(self):
        given = {"h": [1.0], "a": np.ones(2)}
        u = np.array([0.0, 1.0])
        fit = Fit(u=u, c0=1.0, spectrum=np.ones(1), basis=build_orthobasis(u), diagnostics=given)
        given["h"].append(9.0)
        given["a"][1] = 7.0
        assert fit.diagnostics["h"] == (1.0,)
        with pytest.raises(AttributeError):
            fit.diagnostics["h"].append(9.0)
        with pytest.raises(ValueError):
            fit.diagnostics["a"][0] = 5.0
        assert np.array_equal(fit.diagnostics["a"], np.ones(2))

    def test_pickles_and_deep_copies(self):
        u = np.array([0.6, 0.8])
        fit = Fit(u=u, c0=2.0, spectrum=np.full(1, 3.0), basis=build_orthobasis(u),
                  converged=False, outer_iterations=4, diagnostics={"h_trace": [1.0, 2.0]})
        for other in (pickle.loads(pickle.dumps(fit)), copy.deepcopy(fit)):
            for a, b in ((other.u, fit.u), (other.spectrum, fit.spectrum), (other.basis, fit.basis)):
                assert np.array_equal(a, b)
            assert (other.c0, other.converged, other.outer_iterations) == (2.0, False, 4)
            assert dict(other.diagnostics) == {"h_trace": (1.0, 2.0)}
            with pytest.raises(TypeError):
                other.diagnostics["h_trace"] = []

    def test_default_is_empty(self):
        with pytest.raises(TypeError):
            _fit(np.array([0.0, 1.0]), np.ones(1)).diagnostics["x"] = 1.0

    def test_basis_read_only_after_pickling(self):
        # Pickle restores arrays writable; the fit freezes its basis again.
        fit = fit_mle(simulated_data(30, 4, seed=3))
        other = pickle.loads(pickle.dumps(fit))
        assert np.array_equal(other.basis, fit.basis)
        for a in (other.u, other.spectrum, other.basis):
            assert not a.flags.writeable

    def test_writable_basis_is_copied(self):
        basis = np.eye(2)
        fit = Fit(u=np.array([1.0, 0.0]), c0=1.0, spectrum=np.ones(1), basis=basis)
        assert not fit.basis.flags.writeable and basis.flags.writeable
        basis[0, 0] = 5.0
        assert fit.basis[0, 0] == 1.0


def _broken_estimator(data, rng):
    raise DegenerateDataError("always fails")


# A record of each read-only type but Fit and SampleSet, which their own
# tests cover, from the function that returns it, given a data set.
RECORDS = {
    "PriorConfig": PriorConfig.default,
    "GibbsRun": lambda data: run_gibbs(data, PriorConfig.default(data), s=3, l=2,
                                       rng=np.random.default_rng(0)),
    "NiwParams": lambda data: niw_posterior(data, np.zeros(3), 1.5, 4.0, np.eye(3)),
    "TruthSpec": lambda data: generate_truth(3, np.random.default_rng(0)),
    "RiskReport": lambda data: run_experiment([(20, 3)], {"broken": _broken_estimator}, reps=2)[0],
}


def _same(a, b) -> bool:
    """``a == b`` for a record's field: arrays entrywise, NaN equal to NaN."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


class TestRecords:
    @pytest.mark.parametrize("name", RECORDS)
    def test_read_only_when_built_pickled_and_deep_copied(self, name):
        record = RECORDS[name](simulated_data(20, 3, seed=50))
        names = [f.name for f in dataclasses.fields(record)]
        copies = (pickle.loads(pickle.dumps(record)), copy.deepcopy(record))
        for other in copies:
            assert type(other) is type(record)
            assert all(_same(getattr(other, k), getattr(record, k)) for k in names)
        frozen = [v for v in (getattr(record, k) for k in names)
                  if isinstance(v, (np.ndarray, Mapping))]
        assert frozen  # each record has an array or a mapping to check
        for rec in (record, *copies):
            for value in (getattr(rec, k) for k in names):
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable
                    with pytest.raises(ValueError):
                        value.flat[0] = 0.0
                elif isinstance(value, Mapping):
                    with pytest.raises(TypeError):
                        value["x"] = 1


class TestBuildOrthobasis:
    def test_equal_means_closed_form(self):
        # For the equal-entries direction at p=3 the completion has a known
        # closed form: (2, -1, -1)/sqrt(6) and (0, 1, -1)/sqrt(2).
        u = np.full(3, 1.0 / np.sqrt(3.0))
        P = build_orthobasis(u)
        expected1 = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)
        expected2 = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(P[:, 0], u, atol=1e-14)
        assert np.allclose(P[:, 1], expected1, atol=1e-12)
        assert np.allclose(P[:, 2], expected2, atol=1e-12)

    def test_canonical_axis(self):
        P = build_orthobasis(np.array([0.0, 0.0, 1.0]))
        # Gram-Schmidt leaves the remaining canonical vectors intact, each
        # positive on its own axis.
        assert np.allclose(np.abs(P), np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        assert np.allclose(P[:, 0], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("p", [3, 5, 10])
    def test_orthogonality_random(self, p, rng):
        for _ in range(100):
            u = random_unit(p, rng)
            P = build_orthobasis(u)
            assert np.linalg.norm(P.T @ P - np.eye(p)) < 1e-10
            assert np.linalg.norm(P[:, 0] - u) < 1e-14

    def test_read_only(self):
        P = build_orthobasis(np.array([0.6, 0.8]))
        assert not P.flags.writeable
        with pytest.raises(ValueError):
            P[0, 0] = 1.0

    def test_deterministic(self, rng):
        u = random_unit(6, rng)
        P1 = build_orthobasis(u)
        P2 = build_orthobasis(u.copy())
        assert np.array_equal(P1, P2)

    def test_rejects_zero_and_non_unit(self):
        with pytest.raises(ZeroVectorError):
            build_orthobasis(np.zeros(3))
        with pytest.raises(NonUnitVectorError):
            build_orthobasis(np.array([2.0, 0.0, 0.0]))

    def test_rejects_scalar_dimension(self):
        with pytest.raises(DimensionMismatchError):
            build_orthobasis(np.array([1.0]))

    @pytest.mark.parametrize("p", [2, 3, 5, 10, 50, 200])
    def test_matches_mgs_oracle_to_rounding(self, p, rng):
        axis = np.zeros(p)
        axis[p // 2] = 1.0
        negative = random_unit(p, rng)
        negative[p // 3] = -2.0  # the dominant entry is negative
        dirs = [axis, np.full(p, 1.0 / np.sqrt(p)), negative / np.linalg.norm(negative)]
        if p <= 10:
            dirs += [-axis] + [random_unit(p, rng) for _ in range(10)]
        for u in dirs:
            assert_matches_oracle(build_orthobasis(u), u)

    @pytest.mark.parametrize("p", [2, 3, 5, 10, 50])
    @pytest.mark.parametrize("scale", [1.0 + 1e-12, 1.0 - 1e-9])
    def test_first_column_is_the_given_unit_vector(self, p, scale, rng):
        # Unit within UNIT_TOL but not to rounding: the completion keeps the
        # input as its first column instead of dividing it by its norm again,
        # and its tail is still orthogonal to that column.
        u = random_unit(p, rng) * scale
        assert np.linalg.norm(u) != 1.0
        P = build_orthobasis(u)
        assert np.array_equal(P[:, 0], u)
        assert_matches_oracle(P, u)

    @pytest.mark.parametrize("p", [50, 200])
    def test_orthonormal_at_equal_entries(self, p):
        # Equal entries give [u | e_k, k != drop] its largest condition
        # number, 2 sqrt(p); one MGS pass loses orthogonality only at about
        # that multiple of eps (measured: 0.22 p eps at p=50, 0.20 p eps at p=200).
        P = build_orthobasis(np.full(p, 1.0 / np.sqrt(p)))
        assert np.abs(P.T @ P - np.eye(p)).max() <= 2 * p * EPS

    @pytest.mark.parametrize("p", [2, 3, 5, 10, 50, 200])
    def test_tail_columns_are_positive_on_their_own_axes(self, p, rng):
        # The sign convention is Gram-Schmidt's own, with no sign step: every
        # tail column is the closed form to rounding, so its entry on the
        # axis of the e_k it is built from is positive and a largest one.
        axis = np.zeros(p)
        axis[p // 2] = 1.0
        negative = random_unit(p, rng)
        negative[p // 3] = -2.0  # the dominant entry is negative
        integers = rng.integers(-3, 4, size=p).astype(float)
        integers[0], integers[-1] = 0.0, 2.0  # at least one zero, never all zero
        dirs = [random_unit(p, rng) for _ in range(5)]
        dirs += [np.full(p, 1.0 / np.sqrt(p)), negative / np.linalg.norm(negative),
                 axis, -axis, integers / np.linalg.norm(integers)]
        tol = 16 * p * EPS
        for u in dirs:
            V = build_orthobasis(u)[:, 1:]
            expected, axes = closed_form_tail(u)
            assert np.abs(V - expected).max() <= tol
            own = V[axes, np.arange(p - 1)]
            assert np.all(own >= 1.0 / np.sqrt(p) - tol)
            assert np.all(np.abs(V).max(axis=0) <= own + tol)

    def test_near_tie_keeps_the_own_axis_sign(self):
        # u ~ (1, 1 - 1e-13, 0) pivots on entry 0, so column 1 is built from
        # e_1 and is positive there; the exact tie pivots on entry 1 (last
        # index on ties), and its column 1, built from e_0, is the negative
        # of that.  The pivot switch flips the column, and Sigma, which does
        # not see column signs, does not move.
        near = np.array([1.0, 1.0 - 1e-13, 0.0])
        tie = np.array([1.0, 1.0, 0.0])
        P = build_orthobasis(near / np.linalg.norm(near))
        Q = build_orthobasis(tie / np.linalg.norm(tie))
        assert np.allclose(P[:, 1], np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0), atol=1e-12)
        assert not np.signbit(P[2, 1])
        assert np.allclose(Q[:, 1], -P[:, 1], atol=1e-12)
        assert np.array_equal(P[:, 2], [0.0, 0.0, 1.0])
        lam = np.array([2.0, 0.5])
        assert np.allclose(structured_covariance(P, lam), structured_covariance(Q, lam),
                           atol=1e-12)

    @pytest.mark.parametrize("p", [3, 10])
    def test_column_signs_stable_at_ties(self, p):
        # The tail columns of the equal-entries direction have entries of
        # equal magnitude; a relative change of 1e-12 in u moves them by
        # rounding only, and must not flip any column's sign.
        u = np.full(p, 1.0 / np.sqrt(p))
        P = build_orthobasis(u)
        Q = build_orthobasis(u * (1.0 + 1e-12))
        assert np.all((P * Q).sum(axis=0) > 0.0)
        assert np.abs(P - Q).max() <= 1e-11

    def test_closed_form_oracle(self):
        # Independent closed-form completion for means (m1, m2, m3, ..., m3).
        mu = np.array([1.3, -0.7, 0.4])
        w1, w2 = repeated_tail_eigenvectors(mu)
        assert abs(mu @ w1) < 1e-12
        assert abs(mu @ w2) < 1e-12
        assert abs(w1 @ w2) < 1e-12
        assert np.linalg.norm(w1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(w2) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_oracle_matches_basis_at_equal_means(self):
        mu = np.full(3, 1.0)
        w1, w2 = repeated_tail_eigenvectors(mu)
        V = build_orthobasis(mu / np.linalg.norm(mu))[:, 1:]
        # Same orthocomplement plane; compare up to the deterministic signs.
        assert np.allclose(np.abs(V[:, 0] @ w1), 1.0, atol=1e-12) or np.allclose(
            np.abs(V[:, 0] @ w2), 1.0, atol=1e-12
        )

    def test_closed_form_higher_dimension(self):
        mu = np.array([0.9, -1.1, 0.5, 0.5, 0.5])
        w1, w2 = repeated_tail_eigenvectors(mu)
        assert abs(mu @ w1) < 1e-12
        assert abs(mu @ w2) < 1e-12

    def test_closed_form_rejects_unequal_tail(self):
        with pytest.raises(ValueError):
            repeated_tail_eigenvectors(np.array([1.0, 2.0, 3.0, 4.0]))


class TestTransportFrame:
    """``transport_frame(F, u)``: the frame ``F = P(r)`` carried to ``u`` by the
    rotation in ``span{r, u}``."""

    @staticmethod
    def rotation_oracle(frame, u):
        """The ambient rotation ``I + (c-1)(r r^T + w w^T) + s (w r^T - r w^T)`` applied
        to the frame's tail, with ``w`` orthonormalised against ``r`` twice."""
        r = frame[:, 0]
        c = float(r @ u)
        w = u - c * r
        w -= (r @ w) * r
        s = np.linalg.norm(w)
        w /= s
        R = (np.eye(r.size) + (c - 1.0) * (np.outer(r, r) + np.outer(w, w))
             + s * (np.outer(w, r) - np.outer(r, w)))
        return R @ frame[:, 1:]

    @pytest.mark.parametrize("p", [2, 3, 5, 10, 50])
    def test_is_the_rotation_of_the_frame(self, p, rng):
        for _ in range(10):
            frame = build_orthobasis(random_unit(p, rng))
            u = random_unit(p, rng)
            P = transport_frame(frame, u)
            assert np.array_equal(P[:, 0], u)
            np.testing.assert_allclose(P[:, 1:], self.rotation_oracle(frame, u), atol=64 * EPS)
            assert not P.flags.writeable

    def test_at_the_anchor_is_the_frame_itself(self, rng):
        for p in (2, 3, 10):
            r = random_unit(p, rng)
            frame = build_orthobasis(r)
            assert np.array_equal(transport_frame(frame, r.copy()), frame)

    def test_data_frame_is_the_completion_of_the_mle_direction(self):
        # The frame is build_orthobasis at the smallest eigenvector of
        # A(xbar) signed toward xbar, bit for bit, and it is the MLE's basis.
        data = simulated_data(60, 5, seed=20)
        evals, evecs = np.linalg.eigh(data.scatter_about_mean())
        u = evecs[:, 0] / np.linalg.norm(evecs[:, 0])
        u = u if u @ data.xbar >= 0.0 else -u
        assert np.array_equal(data.frame, build_orthobasis(u))
        assert not data.frame.flags.writeable
        assert fit_mle(data).basis is data.frame

    def test_frame_needs_no_rank(self):
        # Rank-deficient data have a frame, though the MLE raises.
        data = SampleSet(np.outer(np.arange(1.0, 6.0), [1.0, 2.0, 2.0]))
        assert np.abs(data.frame.T @ data.frame - np.eye(3)).max() <= 8 * 3 * EPS
        with pytest.raises(DegenerateDataError):
            fit_mle(data)

    @pytest.mark.parametrize("p", [2, 3, 5, 10, 50, 200])
    def test_orthonormal_everywhere(self, p, rng):
        # |P^T P - I| <= 8 p eps at random directions, near the anchor, at its
        # antipode -r (the seam) and within 1e-6 of it: measured at most
        # 3.0 p eps (p = 3) and 0.05 p eps at p = 200.
        for _ in range(5):
            r = random_unit(p, rng)
            frame = build_orthobasis(r)
            d = rng.standard_normal(p)
            d -= (d @ r) * r
            d /= np.linalg.norm(d)
            directions = [random_unit(p, rng), -r]
            for h in (1e-6, 1e-9, 1e-12):
                directions += [r + h * d, -r + h * d]
            for u in directions:
                u = u / np.linalg.norm(u)
                P = transport_frame(frame, u)
                assert np.array_equal(P[:, 0], u)
                assert np.abs(P.T @ P - np.eye(p)).max() <= 8 * p * EPS

    @pytest.mark.parametrize("p", [2, 3, 10, 50])
    def test_orthonormal_for_a_direction_unit_within_tolerance(self, p, rng):
        # A u of norm 1 -+ 1e-9 passes the unit check.  The rotation is taken
        # for u / ||u||, so the tail is orthonormal and orthogonal to u to
        # rounding; with c^2 + s^2 = ||u||^2 instead, V^T V - I would be
        # (||u||^2 - 1) b b^T, about 2e-9.
        for _ in range(5):
            frame = build_orthobasis(random_unit(p, rng))
            for scale in (1.0 - 1e-9, 1.0 + 1e-9):
                u = scale * random_unit(p, rng)
                P = transport_frame(frame, u)
                V = P[:, 1:]
                assert np.array_equal(P[:, 0], u)
                assert np.abs(V.T @ V - np.eye(p - 1)).max() <= 8 * p * EPS
                assert np.abs(u @ V).max() <= 8 * p * EPS

    def test_continuous_but_at_the_antipode(self, rng):
        # A step of 1e-9 moves the carried basis by about as much; at the
        # antipode -r the tail depends on the side it is approached from.
        p = 5
        r = random_unit(p, rng)
        frame = build_orthobasis(r)
        d, e = frame[:, 1], frame[:, 2]
        for u in (random_unit(p, rng), r):
            v = u + 1e-9 * d
            step = np.abs(transport_frame(frame, v / np.linalg.norm(v)) - transport_frame(frame, u))
            assert step.max() < 1e-8
        P, Q = (transport_frame(frame, x / np.linalg.norm(x)) for x in (-r + 1e-9 * d, -r + 1e-9 * e))
        assert np.abs(P[:, 1:] - Q[:, 1:]).max() > 0.5

    @pytest.mark.parametrize("p", [3, 5, 10])
    def test_antipode_keeps_the_frames_tail(self, p):
        # At u = -r the tail of F^T u is rounding noise, which counts as
        # zero: the tail is V_r, not V_r reflected along a direction the
        # noise sets (|P[:, 1:] - V_r| was 1.2-1.6 at p = 5).
        for seed in (1, 2, 3):
            frame = simulated_data(50, p, seed=seed).frame
            P = transport_frame(frame, -frame[:, 0])
            assert np.array_equal(P[:, 0], -frame[:, 0])
            assert np.array_equal(P[:, 1:], frame[:, 1:])

    def test_rejects_bad_directions(self):
        frame = build_orthobasis(np.array([0.6, 0.8, 0.0]))
        with pytest.raises(DimensionMismatchError):
            transport_frame(frame, np.array([1.0, 0.0]))
        with pytest.raises(NonUnitVectorError):
            transport_frame(frame, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ZeroVectorError):
            transport_frame(frame, np.zeros(3))


class TestAssembleSigma:
    def test_unit_spectrum_gives_identity(self, rng):
        u = random_unit(4, rng)
        sigma = structured_covariance(build_orthobasis(u), np.ones(3))
        assert np.allclose(sigma, np.eye(4), atol=1e-12)

    def test_canonical_diagonal(self):
        basis = build_orthobasis(np.array([0.0, 0.0, 1.0]))
        sigma = structured_covariance(basis, np.array([2.0, 3.0]))
        assert np.allclose(sigma, np.diag([2.0, 3.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_eigenvector_constraint_and_determinant(self, p, rng):
        for _ in range(20):
            u = random_unit(p, rng)
            lam = rng.uniform(0.2, 8.0, size=p - 1)
            S = structured_covariance(build_orthobasis(u), lam)
            assert np.linalg.norm(S @ u - u) < 1e-10
            assert np.linalg.det(S) == pytest.approx(np.prod(lam), rel=1e-8)
            assert np.linalg.norm(S - S.T) < 1e-12

    def test_scale_free_constraint(self, rng):
        u = random_unit(5, rng)
        S = structured_covariance(build_orthobasis(u), rng.uniform(1, 4, 4))
        for c0 in (0.5, 3.0, 100.0):
            assert np.linalg.norm(S @ (c0 * u) - c0 * u) < 1e-8 * c0

    def test_dimension_mismatch(self, rng):
        basis = build_orthobasis(random_unit(4, rng))
        # A length-1 spectrum would broadcast over all three tail columns.
        for lam in (np.ones(1), np.ones(2)):
            with pytest.raises(DimensionMismatchError):
                structured_covariance(basis, lam)

    def test_continuity_probe(self, rng):
        # Nearby directions with the same pivot give nearby covariances.
        u = random_unit(4, rng)
        du = rng.standard_normal(4) * 1e-7
        u2 = (u + du) / np.linalg.norm(u + du)
        lam = rng.uniform(0.5, 5.0, 3)
        s1 = structured_covariance(build_orthobasis(u), lam)
        s2 = structured_covariance(build_orthobasis(u2), lam)
        assert np.linalg.norm(s1 - s2) < 1e-4 * (1.0 + lam.max())


class TestSampleSet:
    def test_caches(self, rng):
        X = rng.standard_normal((6, 3))
        data = SampleSet(X)
        assert data.n == 6 and data.p == 3
        assert np.allclose(data.xbar, X.mean(axis=0))
        assert np.allclose(data.a0, X.T @ X)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatchError, match=r"got shape \(\)$"):
            SampleSet(np.array(3.0))
        with pytest.raises(DimensionMismatchError):
            SampleSet(np.zeros(5))
        with pytest.raises(DimensionMismatchError):
            SampleSet(np.zeros((4, 1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        # Typed and raised up front, before a NaN reaches eigh as LinAlgError.
        X = np.ones((4, 3))
        X[2, 1] = value
        with pytest.raises(DegenerateDataError, match="must be finite"):
            SampleSet(X)

    @pytest.mark.parametrize("X", [
        np.linspace(1e200, 5e200, 15).reshape(5, 3),  # the scatter overflows
        np.array([[1.7e308, 1.0], [1.7e308, 2.0], [0.0, 3.0]]),  # and the mean's sum too
    ])
    def test_rejects_overflowing_data(self, X):
        # Finite data whose mean or scatter is not: raised with no RuntimeWarning.
        with pytest.raises(DegenerateDataError, match="overflow"):
            SampleSet(X)

    @pytest.mark.parametrize("p", [2, 3])
    def test_rejects_empty_data(self, p):
        # A row-count error, with no empty-mean RuntimeWarning before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="has 0 rows; need at least one"):
                SampleSet(np.empty((0, p)))

    def test_read_only_after_pickling(self):
        # Pickle restores arrays writable; the statistics and every kept
        # array (the frame, the scatter about the mean) are frozen again,
        # with their values, and so is the basis of a fit taken after.
        data = simulated_data(40, 4, seed=8)
        fit = fit_mle(data)
        for other in (pickle.loads(pickle.dumps(data)), copy.deepcopy(data)):
            assert other.n == data.n
            assert "_frame" in vars(other)  # the kept record, not one built again
            arrays = [(a, b) for a, b in zip(other._frame, data._frame)
                      if isinstance(a, np.ndarray)]
            assert len(arrays) == 8
            for a, b in arrays:
                assert np.array_equal(a, b)
                assert not a.flags.writeable
            for a, b in ((other.xbar, data.xbar), (other.a0, data.a0),
                         (other.frame, data.frame),
                         (other.scatter_about_mean(), data.scatter_about_mean()),
                         (fit_mle(other).basis, fit.basis)):
                assert np.array_equal(a, b)
                assert not a.flags.writeable
        fresh = pickle.loads(pickle.dumps(SampleSet(np.eye(3))))
        assert not (fresh.xbar.flags.writeable or fresh.a0.flags.writeable)
        assert not fresh.frame.flags.writeable

    def test_frame_record_is_built_on_first_read_and_once(self, monkeypatch):
        # The NIW baseline reads no frame.  Every other estimator on one data
        # set reads the one record, from one eigh and one completion.
        X = simulated_rows(60, 4, seed=9)
        calls = []
        eigh, build = np.linalg.eigh, model_module.build_orthobasis
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or eigh(a))
        monkeypatch.setattr(model_module, "build_orthobasis",
                            lambda u: calls.append("basis") or build(u))
        data = SampleSet(X)
        niw_map(niw_posterior(data, np.zeros(4), 1.5, 6.0, np.eye(4)))
        assert calls == []
        prior = PriorConfig.default(data)
        fit_mle(data)
        fit_map_newton(data, prior)
        map_from_chain(run_gibbs(data, prior, s=5, l=2, rng=np.random.default_rng(0)), data, prior)
        assert sorted(calls) == ["basis", "eigh"]

    def test_model_imports_no_estimator_module(self):
        # The data set keeps its frame, not a fit, so the model module
        # imports nothing from the package but its exceptions.
        tree = ast.parse(Path(model_module.__file__).read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)]
        local = [name for name in names if name.startswith((".", "meancov"))]
        assert local == [".exceptions"]

    @pytest.mark.parametrize("build", [
        SampleSet,
        lambda X: fit_mle(SampleSet(X)),
        lambda X: PriorConfig.default(SampleSet(X)),
        lambda X: run_gibbs(SampleSet(X), PriorConfig.default(SampleSet(X)), s=2, l=1,
                            rng=np.random.default_rng(0)),
        lambda X: niw_posterior(SampleSet(X), np.zeros(3), 1.5, 4.0, np.eye(3)),
        lambda X: generate_truth(3, np.random.default_rng(0)),
    ], ids=["SampleSet", "Fit", "PriorConfig", "GibbsRun", "NiwParams", "TruthSpec"])
    def test_hash_and_equality_are_identity(self, rng, build):
        X = rng.standard_normal((6, 3))
        a, b = build(X), build(X)
        assert a == a and a != b
        assert len({a: 1, b: 2}) == 2
        assert hash(a) == hash(a)

    def test_keeps_no_reference_to_the_input(self, rng):
        X = rng.standard_normal((7, 3))
        ref = weakref.ref(X)
        data = SampleSet(X)
        del X
        assert ref() is None
        assert data.n == 7 and data.p == 3

    def test_later_writes_to_the_input_change_no_statistic(self, rng):
        X = rng.standard_normal((5, 3))
        data = SampleSet(X)
        xbar, a0 = data.xbar.copy(), data.a0.copy()
        X[...] = 99.0
        assert np.array_equal(data.xbar, xbar) and np.array_equal(data.a0, a0)
        assert not (data.xbar.flags.writeable or data.a0.flags.writeable)

    @pytest.mark.parametrize("layout", ["C", "fortran", "strided", "integer"])
    def test_statistics_are_those_of_a_c_ordered_float_copy(self, rng, layout):
        base = rng.standard_normal((40, 12)) * 10.0 ** rng.integers(-3, 4, 12)
        X = {
            "C": base[:, :6].copy(),
            "fortran": np.asfortranarray(base[:, :6]),
            "strided": base[::2, ::2],
            "integer": rng.integers(-1000, 1000, (40, 6)),
        }[layout]
        C = np.array(X, dtype=float, order="C")
        data = SampleSet(X)
        assert data.n == C.shape[0] and data.p == C.shape[1]
        assert np.array_equal(data.xbar, C.mean(axis=0))
        assert np.array_equal(data.a0, C.T @ C)


class TestScatterMatrix:
    def test_at_zero_is_a0(self, rng):
        data = SampleSet(rng.standard_normal((5, 3)))
        assert np.allclose(data.scatter(np.zeros(3)), data.a0)

    def test_single_row_at_its_own_value(self):
        x = np.array([[1.0, -2.0, 0.5]])
        data = SampleSet(x)
        assert np.allclose(data.scatter(x[0]), np.zeros((3, 3)), atol=1e-14)

    def test_rank_one_update_matches_direct_sum(self, rng):
        X = rng.standard_normal((8, 4))
        data = SampleSet(X)
        mu = rng.standard_normal(4)
        direct = sum(np.outer(x - mu, x - mu) for x in X)
        assert np.linalg.norm(data.scatter(mu) - direct) < 1e-10

    def test_dimension_check(self, rng):
        data = SampleSet(rng.standard_normal((4, 3)))
        with pytest.raises(DimensionMismatchError):
            data.scatter(np.zeros(2))

    def test_scatter_about_mean_is_formed_once(self, rng, monkeypatch):
        data = SampleSet(rng.standard_normal((6, 3)))
        calls = []
        scatter = SampleSet.scatter

        def counted(self, mu):
            calls.append(mu)
            return scatter(self, mu)

        monkeypatch.setattr(SampleSet, "scatter", counted)
        A = data.scatter_about_mean()
        assert data.scatter_about_mean() is A
        assert len(calls) == 1
        assert not A.flags.writeable
        assert np.array_equal(A, scatter(data, data.xbar))


class TestBMatrix:
    def test_leading_entry_at_mle_radius(self, rng):
        data = simulated_data(20, 3, seed=7)
        u = random_unit(3, rng)
        B = b_matrix(data, u, float(u @ data.xbar))
        expected = float(u @ data.scatter_about_mean() @ u)
        assert B[0, 0] == pytest.approx(expected, abs=1e-10)

    def test_single_row_equal_to_mean(self):
        u = np.array([0.0, 1.0])
        data = SampleSet(np.array([[0.0, 2.0]]))
        B = b_matrix(data, u, 2.0)
        assert np.allclose(B, np.zeros((2, 2)), atol=1e-14)

    def test_diagonal_closed_forms(self, rng):
        data = simulated_data(15, 4, seed=3)
        u = random_unit(4, rng)
        c0 = 1.7
        B = b_matrix(data, u, c0)
        V = build_orthobasis(u)[:, 1:]
        lead = float(u @ data.scatter_about_mean() @ u) + data.n * (c0 - u @ data.xbar) ** 2
        assert B[0, 0] == pytest.approx(lead, abs=1e-9)
        for i in range(3):
            assert B[i + 1, i + 1] == pytest.approx(float(V[:, i] @ data.a0 @ V[:, i]), abs=1e-9)

    def test_tail_diagonal_independent_of_radius(self, rng):
        data = simulated_data(12, 3, seed=11)
        u = random_unit(3, rng)
        B1 = b_matrix(data, u, 0.3)
        B2 = b_matrix(data, u, 4.0)
        assert np.allclose(np.diag(B1)[1:], np.diag(B2)[1:], atol=1e-9)


# Every public entry point that takes a vector, a prior or a chain: (the
# arguments of it that a data set of dimension p fixes, the call on a dict of
# arguments).
ENTRY_POINTS = {
    "transport_frame": ("u", lambda a: transport_frame(a["data"].frame, a["u"])),
    "Fit": ("u lam", lambda a: Fit(u=a["u"], c0=1.0, spectrum=a["lam"], basis=a["data"].frame)),
    "structured_covariance": ("lam", lambda a: structured_covariance(a["data"].frame, a["lam"])),
    "SampleSet.scatter": ("mu", lambda a: a["data"].scatter(a["mu"])),
    "SampleSet.completion": ("u", lambda a: a["data"].completion(a["u"])),
    "SampleSet.scatter_diagonal": ("u", lambda a: a["data"].scatter_diagonal(a["u"], 1.0)),
    "estimate_c0": ("u", lambda a: estimate_c0(a["data"], a["u"])),
    "estimate_lambdas": ("u", lambda a: estimate_lambdas(a["data"], a["u"])),
    "profile_loglik": ("u", lambda a: profile_loglik(a["data"], a["u"])),
    "lower_bound_h": ("u", lambda a: lower_bound_h(a["data"], a["u"])),
    "hn_diagonal": ("mu prior", lambda a: hn_diagonal(a["data"], a["mu"], a["prior"])),
    "log_posterior": ("mu lam prior",
                      lambda a: log_posterior(a["data"], a["mu"], a["lam"], a["prior"])),
    "lambda_conditional_params": ("mu prior", lambda a: lambda_conditional_params(
        a["data"], a["mu"], a["prior"])),
    "draw_lambda_conditional": ("mu prior", lambda a: draw_lambda_conditional(
        a["data"], a["mu"], a["prior"], np.random.default_rng(0))),
    "run_gibbs": ("prior", lambda a: run_gibbs(a["data"], a["prior"], s=2, l=1,
                                               rng=np.random.default_rng(0))),
    "map_from_chain": ("run prior", lambda a: map_from_chain(a["run"], a["data"], a["prior"])),
    "map_c0_update": ("u lam prior",
                      lambda a: map_c0_update(a["data"], a["u"], a["lam"], a["prior"])),
    "map_lambda_update": ("u prior",
                          lambda a: map_lambda_update(a["data"], a["u"], 1.0, a["prior"])),
    "h_value": ("u prior", lambda a: h_value(a["data"], a["u"], 1.0, a["prior"])),
    "h_gradient": ("u prior", lambda a: h_gradient(a["data"], a["u"], 1.0, a["prior"])),
    "h_hessian": ("u prior", lambda a: h_hessian(a["data"], a["u"], 1.0, a["prior"])),
    "fit_map_newton": ("init_mu prior",
                       lambda a: fit_map_newton(a["data"], a["prior"], init_mu=a["init_mu"])),
    "niw_posterior": ("mu", lambda a: niw_posterior(a["data"], a["mu"], 1.5, 4.0, np.eye(3))),
}


# Every public matrix argument, the two records' included: (a call on the
# matrix, which returns one array, a valid matrix, the names of MISSHAPES that
# must raise DimensionMismatchError).  The vector arguments of each call are
# lists, so the list-of-lists case reads every argument as a list.
_FRAME = build_orthobasis([0.6, 0.8, 0.0])
_SQUARE = "0-d 1-d 3-d one-column-less one-row-and-column-less one-row-and-column-more"
MATRIX_ENTRY_POINTS = {
    "SampleSet": (lambda m: SampleSet(m).a0, np.arange(15.0).reshape(5, 3) % 4, "0-d 1-d 3-d"),
    "Fit": (lambda m: Fit(u=[1.0, 0.0, 0.0], c0=2.0, spectrum=[4.0, 9.0], basis=m).covariance(),
            np.eye(3), _SQUARE),
    "niw_posterior": (lambda m: niw_posterior(simulated_data(6, 3, seed=55), [0.0, 1.0, 0.0], 1.5,
                                              4.0, m).Lambda_n, 2.0 * np.eye(3), _SQUARE),
    "latlong_to_sphere": (latlong_to_sphere, np.array([[10.0, 20.0], [-45.0, 300.0]]),
                          "0-d 1-d 3-d one-column-less one-row-and-column-more"),
    "transport_frame": (lambda m: transport_frame(m, [0.0, 0.6, 0.8]), _FRAME, _SQUARE),
    "structured_covariance": (lambda m: structured_covariance(m, [2.0, 3.0]), _FRAME, _SQUARE),
    "TruthSpec": (lambda m: sample_data(TruthSpec(mu_true=[1.0, 0.0, 0.0], sigma_true=m), 5,
                                        np.random.default_rng(0)), np.diag([1.0, 2.0, 3.0]),
                  _SQUARE),
    "NiwParams": (lambda m: niw_map(NiwParams(mu_n=[0.0, 1.0, 0.0], kappa_n=2.0, nu_n=5.0,
                                              Lambda_n=m))[1], 2.0 * np.eye(3), _SQUARE),
}
MISSHAPES = {
    "0-d": lambda m: m[0, 0],
    "1-d": lambda m: m[0],
    "3-d": lambda m: m[None],
    "one-column-less": lambda m: m[:, :-1],
    "one-row-and-column-less": lambda m: m[:-1, :-1],
    "one-row-and-column-more": lambda m: np.pad(m, ((0, 1), (0, 1))),
}

def _resized(x, delta: int):
    """``x`` one entry longer (a zero appended, so a unit ``u`` stays unit) or
    shorter; a prior with both its vectors, and a chain with its means, so resized."""
    if isinstance(x, GibbsRun):
        return dataclasses.replace(x, mu=np.array([_resized(mu, delta) for mu in x.mu]))
    if isinstance(x, PriorConfig):
        return PriorConfig(mu0=_resized(x.mu0, delta), kappa0=x.kappa0, a=x.a,
                           h0_diag=_resized(x.h0_diag, delta))
    return np.append(x, 0.0) if delta > 0 else x[:-1]


class TestInputChecks:
    @pytest.fixture(scope="class")
    def args(self):
        data = simulated_data(30, 3, seed=40)
        prior = PriorConfig.default(data)
        fit = fit_mle(data)
        run = run_gibbs(data, prior, s=3, l=1, rng=np.random.default_rng(0))
        return {"data": data, "prior": prior, "u": fit.u, "mu": fit.mu, "init_mu": fit.mu,
                "lam": fit.spectrum, "run": run}

    @pytest.mark.parametrize("name, arg, delta", [
        (name, arg, delta)
        for name, (takes, _) in ENTRY_POINTS.items() for arg in takes.split() for delta in (1, -1)
    ])
    def test_a_length_that_misfits_the_data_is_a_dimension_mismatch(self, args, name, arg, delta):
        # A vector of length p + 1 or p - 1, or a prior or a chain of that
        # dimension, at an entry point that accepts the data's shapes.
        call = ENTRY_POINTS[name][1]
        call(args)
        with pytest.raises(DimensionMismatchError):
            call(dict(args, **{arg: _resized(args[arg], delta)}))

    @pytest.mark.parametrize("name", MATRIX_ENTRY_POINTS)
    def test_a_list_of_lists_reads_as_the_array(self, name):
        call, m, _ = MATRIX_ENTRY_POINTS[name]
        want = call(m)
        assert want.dtype == float
        assert np.array_equal(call(m.tolist()), want)

    @pytest.mark.parametrize("name, misshape", [
        (name, misshape)
        for name, (_, _, misshapes) in MATRIX_ENTRY_POINTS.items() for misshape in misshapes.split()
    ])
    def test_a_misshapen_matrix_is_a_dimension_mismatch(self, name, misshape):
        call, m, _ = MATRIX_ENTRY_POINTS[name]
        with pytest.raises(DimensionMismatchError, match=r"got shape \(.*\)$"):
            call(MISSHAPES[misshape](m))

    def test_a_basis_that_is_not_p_by_p_is_a_dimension_mismatch(self):
        # A p x (p - 1) basis would fail only in covariance(), on NumPy's matmul.
        with pytest.raises(DimensionMismatchError,
                           match=r"basis must have shape \(3, 3\), got shape \(3, 2\)$"):
            Fit(u=np.array([1.0, 0.0, 0.0]), c0=1.0, spectrum=np.ones(2), basis=np.eye(3)[:, :2])

    @pytest.mark.parametrize("u, lam, basis", [
        # Sigma mu = (5, 4) for mu = (1, 0): a tail not orthogonal to u.
        ([1.0, 0.0], [4.0], [[1.0, 1.0], [0.0, 1.0]]),
        # Sigma has eigenvalues (0, 1, 6), not positive definite: a tail
        # orthogonal to u but not orthonormal.
        ([1.0, 0.0, 0.0], [4.0, 2.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
        ([1.0, 0.0], [4.0], [[1.0, 0.0], [0.0, np.nan]]),
    ], ids=["not-orthogonal-to-u", "not-orthonormal", "nan"])
    def test_a_tail_that_is_not_an_orthonormal_completion_is_a_dimension_mismatch(
            self, u, lam, basis):
        with pytest.raises(DimensionMismatchError, match="not an orthonormal completion"):
            Fit(u=np.array(u), c0=1.0, spectrum=np.array(lam), basis=np.array(basis))

    def test_a_basis_that_does_not_complete_u_is_a_dimension_mismatch(self):
        # Sigma u = u holds only if the basis's first column is u: here
        # covariance() @ u would be (0, 4).
        with pytest.raises(DimensionMismatchError, match="first column is not u"):
            Fit(u=np.array([0.0, 1.0]), c0=1.0, spectrum=np.array([4.0]), basis=np.eye(2))

    @pytest.mark.parametrize("closed_form", [estimate_c0, estimate_lambdas, profile_loglik,
                                             lower_bound_h])
    def test_the_mles_closed_forms_take_a_unit_direction(self, args, closed_form):
        with pytest.raises(NonUnitVectorError):
            closed_form(args["data"], np.ones(3))
