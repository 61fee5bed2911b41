"""Tests for the structured-covariance core: basis construction, assembly,
scatter algebra, and the value types they rest on."""

import copy
import pickle

import numpy as np
import pytest

from meancov import (
    DegenerateDataError,
    DimensionMismatchError,
    Fit,
    NegativeRadiusError,
    NonPositiveEigenvalueError,
    NonUnitVectorError,
    SampleSet,
    ZeroVectorError,
    build_orthobasis,
    structured_covariance,
)
from conftest import build_orthobasis_reference, random_unit, simulated_data

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
        assert dict(fit.diagnostics) == {"profile_loglik": -3.5, "h_trace": [1.0, 2.0]}

    def test_pickles_and_deep_copies(self):
        u = np.array([0.6, 0.8])
        fit = Fit(u=u, c0=2.0, spectrum=np.full(1, 3.0), basis=build_orthobasis(u),
                  converged=False, outer_iterations=4, diagnostics={"h_trace": [1.0, 2.0]})
        for other in (pickle.loads(pickle.dumps(fit)), copy.deepcopy(fit)):
            for a, b in ((other.u, fit.u), (other.spectrum, fit.spectrum), (other.basis, fit.basis)):
                assert np.array_equal(a, b)
            assert (other.c0, other.converged, other.outer_iterations) == (2.0, False, 4)
            assert dict(other.diagnostics) == {"h_trace": [1.0, 2.0]}
            with pytest.raises(TypeError):
                other.diagnostics["h_trace"] = []

    def test_default_is_empty(self):
        with pytest.raises(TypeError):
            _fit(np.array([0.0, 1.0]), np.ones(1)).diagnostics["x"] = 1.0


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
        with pytest.raises(DimensionMismatchError):
            SampleSet(np.zeros(5))
        with pytest.raises(DimensionMismatchError):
            SampleSet(np.zeros((4, 1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        # Typed and raised up front, before a NaN reaches eigh as LinAlgError.
        X = np.ones((4, 3))
        X[2, 1] = value
        for make in (SampleSet, SampleSet._owning):
            with pytest.raises(DegenerateDataError, match="must be finite"):
                make(X)

    @pytest.mark.parametrize("X", [
        np.linspace(1e200, 5e200, 15).reshape(5, 3),  # the scatter overflows
        np.array([[1.7e308, 1.0], [1.7e308, 2.0], [0.0, 3.0]]),  # and the mean's sum too
    ])
    def test_rejects_overflowing_data(self, X):
        # Finite data whose mean or scatter is not: raised with no RuntimeWarning.
        for make in (SampleSet, SampleSet._owning):
            with pytest.raises(DegenerateDataError, match="overflow"):
                make(X.copy())

    def test_input_is_copied(self, rng):
        X = rng.standard_normal((3, 2))
        data = SampleSet(X)
        X[0, 0] = 99.0
        assert data.X[0, 0] != 99.0

    def test_owning_keeps_the_array_and_its_values(self, rng):
        X = rng.standard_normal((7, 3))
        owned = SampleSet._owning(X)
        copied = SampleSet(X)
        assert owned.X is X and not X.flags.writeable
        assert copied.X is not X
        for a, b in ((owned.X, copied.X), (owned.xbar, copied.xbar), (owned.a0, copied.a0)):
            assert np.array_equal(a, b)
        with pytest.raises(DimensionMismatchError):
            SampleSet._owning(np.zeros((4, 1)))


class TestScatterMatrix:
    def test_at_zero_is_a0(self, rng):
        data = SampleSet(rng.standard_normal((5, 3)))
        assert np.allclose(data.scatter(np.zeros(3)), data.a0)

    def test_single_row_at_its_own_value(self):
        x = np.array([[1.0, -2.0, 0.5]])
        data = SampleSet(x)
        assert np.allclose(data.scatter(x[0]), np.zeros((3, 3)), atol=1e-14)

    def test_rank_one_update_matches_direct_sum(self, rng):
        data = SampleSet(rng.standard_normal((8, 4)))
        mu = rng.standard_normal(4)
        direct = sum(np.outer(x - mu, x - mu) for x in data.X)
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
