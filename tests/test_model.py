"""Tests for the structured-covariance core: basis construction, assembly,
scatter algebra, and the value types they rest on."""

import numpy as np
import pytest

from meancov import (
    DimensionMismatchError,
    EigenSpectrum,
    MeanState,
    NonPositiveEigenvalueError,
    NonUnitVectorError,
    SampleSet,
    StructuredCovariance,
    ZeroVectorError,
    build_orthobasis,
)
from conftest import random_unit, simulated_data


def b_matrix(data: SampleSet, mean: MeanState) -> np.ndarray:
    """The scatter about the mean rotated into its basis, ``P(u)^T A(c0 u) P(u)``.

    Its trailing diagonal entries ``V_i^T A(0) V_i`` do not depend on
    ``c0``, and the leading entry equals
    ``u^T A(xbar) u + n (c0 - u^T xbar)^2``.
    """
    P = build_orthobasis(mean.u).matrix
    return P.T @ data.scatter(mean.mu) @ P


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


class TestMeanState:
    def test_mu_assembly(self):
        m = MeanState(u=np.array([0.6, 0.8]), c0=2.5)
        assert np.allclose(m.mu, [1.5, 2.0])

    def test_negative_radius_absorbed_into_direction(self):
        m = MeanState(u=np.array([0.0, 1.0]), c0=-3.0)
        assert m.c0 == 3.0
        assert np.allclose(m.u, [0.0, -1.0])

    def test_renormalizes_within_tolerance(self):
        u = np.array([1.0, 0.0]) * (1.0 + 5e-9)
        m = MeanState(u=u, c0=1.0)
        assert np.linalg.norm(m.u) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(NonUnitVectorError):
            MeanState(u=np.array([1.0, 1.0]), c0=1.0)

    def test_rejects_zero_direction(self):
        with pytest.raises(ZeroVectorError):
            MeanState(u=np.zeros(3), c0=1.0)

    def test_from_vector_round_trip(self, rng):
        mu = rng.standard_normal(4)
        m = MeanState.from_vector(mu)
        assert np.allclose(m.mu, mu)
        assert m.c0 == pytest.approx(np.linalg.norm(mu))

    def test_from_vector_rejects_zero(self):
        with pytest.raises(ZeroVectorError):
            MeanState.from_vector(np.zeros(2))


class TestEigenSpectrum:
    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveEigenvalueError):
            EigenSpectrum(np.array([1.0, 0.0]))
        with pytest.raises(NonPositiveEigenvalueError):
            EigenSpectrum(np.array([-1.0]))

    def test_len(self):
        assert len(EigenSpectrum(np.array([2.0, 3.0, 4.0]))) == 3

    def test_immutable(self):
        s = EigenSpectrum(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestBuildOrthobasis:
    def test_equal_means_closed_form(self):
        # For the equal-entries direction at p=3 the completion has a known
        # closed form: (2, -1, -1)/sqrt(6) and (0, 1, -1)/sqrt(2).
        u = np.full(3, 1.0 / np.sqrt(3.0))
        P = build_orthobasis(u).matrix
        expected1 = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)
        expected2 = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(P[:, 0], u, atol=1e-14)
        assert np.allclose(P[:, 1], expected1, atol=1e-12)
        assert np.allclose(P[:, 2], expected2, atol=1e-12)

    def test_canonical_axis(self):
        P = build_orthobasis(np.array([0.0, 0.0, 1.0])).matrix
        # Gram-Schmidt leaves the remaining canonical vectors intact
        # (column signs fixed by the largest-entry-positive convention).
        assert np.allclose(np.abs(P), np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        assert np.allclose(P[:, 0], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("p", [3, 5, 10])
    def test_orthogonality_random(self, p, rng):
        for _ in range(100):
            u = random_unit(p, rng)
            P = build_orthobasis(u).matrix
            assert np.linalg.norm(P.T @ P - np.eye(p)) < 1e-10
            assert np.linalg.norm(P[:, 0] - u) < 1e-14

    def test_deterministic(self, rng):
        u = random_unit(6, rng)
        P1 = build_orthobasis(u).matrix
        P2 = build_orthobasis(u.copy()).matrix
        assert np.array_equal(P1, P2)

    def test_rejects_zero_and_non_unit(self):
        with pytest.raises(ZeroVectorError):
            build_orthobasis(np.zeros(3))
        with pytest.raises(NonUnitVectorError):
            build_orthobasis(np.array([2.0, 0.0, 0.0]))

    def test_rejects_scalar_dimension(self):
        with pytest.raises(DimensionMismatchError):
            build_orthobasis(np.array([1.0]))

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
        V = build_orthobasis(mu / np.linalg.norm(mu)).tail
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
        sigma = StructuredCovariance(build_orthobasis(u), EigenSpectrum(np.ones(3)))
        assert np.allclose(sigma.matrix, np.eye(4), atol=1e-12)

    def test_canonical_diagonal(self):
        basis = build_orthobasis(np.array([0.0, 0.0, 1.0]))
        sigma = StructuredCovariance(basis, EigenSpectrum(np.array([2.0, 3.0])))
        assert np.allclose(sigma.matrix, np.diag([2.0, 3.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_eigenvector_constraint_and_determinant(self, p, rng):
        for _ in range(20):
            u = random_unit(p, rng)
            lam = rng.uniform(0.2, 8.0, size=p - 1)
            sigma = StructuredCovariance(build_orthobasis(u), EigenSpectrum(lam))
            S = sigma.matrix
            assert np.linalg.norm(S @ u - u) < 1e-10
            assert np.linalg.det(S) == pytest.approx(np.prod(lam), rel=1e-8)
            assert np.linalg.norm(S - S.T) < 1e-12

    def test_scale_free_constraint(self, rng):
        u = random_unit(5, rng)
        S = StructuredCovariance(build_orthobasis(u), EigenSpectrum(rng.uniform(1, 4, 4))).matrix
        for c0 in (0.5, 3.0, 100.0):
            assert np.linalg.norm(S @ (c0 * u) - c0 * u) < 1e-8 * c0

    def test_dimension_mismatch(self, rng):
        basis = build_orthobasis(random_unit(4, rng))
        with pytest.raises(DimensionMismatchError):
            StructuredCovariance(basis=basis, spectrum=EigenSpectrum(np.ones(2)))

    def test_continuity_probe(self, rng):
        # Nearby directions with the same pivot give nearby covariances.
        u = random_unit(4, rng)
        du = rng.standard_normal(4) * 1e-7
        u2 = (u + du) / np.linalg.norm(u + du)
        lam = rng.uniform(0.5, 5.0, 3)
        s1 = StructuredCovariance(build_orthobasis(u), EigenSpectrum(lam)).matrix
        s2 = StructuredCovariance(build_orthobasis(u2), EigenSpectrum(lam)).matrix
        assert np.linalg.norm(s1 - s2) < 1e-4 * (1.0 + lam.max())

    def test_log_det(self):
        basis = build_orthobasis(np.array([0.0, 1.0, 0.0]))
        sigma = StructuredCovariance(basis, EigenSpectrum(np.array([2.0, 5.0])))
        assert sigma.log_det == pytest.approx(np.log(10.0))


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

    def test_input_is_copied(self, rng):
        X = rng.standard_normal((3, 2))
        data = SampleSet(X)
        X[0, 0] = 99.0
        assert data.X[0, 0] != 99.0


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
        mean = MeanState(u=u, c0=float(u @ data.xbar))
        B = b_matrix(data, mean)
        expected = float(u @ data.scatter_about_mean() @ u)
        assert B[0, 0] == pytest.approx(expected, abs=1e-10)

    def test_single_row_equal_to_mean(self):
        u = np.array([0.0, 1.0])
        data = SampleSet(np.array([[0.0, 2.0]]))
        B = b_matrix(data, MeanState(u=u, c0=2.0))
        assert np.allclose(B, np.zeros((2, 2)), atol=1e-14)

    def test_diagonal_closed_forms(self, rng):
        data = simulated_data(15, 4, seed=3)
        u = random_unit(4, rng)
        c0 = 1.7
        mean = MeanState(u=u, c0=c0)
        B = b_matrix(data, mean)
        V = build_orthobasis(u).tail
        lead = float(u @ data.scatter_about_mean() @ u) + data.n * (c0 - u @ data.xbar) ** 2
        assert B[0, 0] == pytest.approx(lead, abs=1e-9)
        for i in range(3):
            assert B[i + 1, i + 1] == pytest.approx(float(V[:, i] @ data.a0 @ V[:, i]), abs=1e-9)

    def test_tail_diagonal_independent_of_radius(self, rng):
        data = simulated_data(12, 3, seed=11)
        u = random_unit(3, rng)
        B1 = b_matrix(data, MeanState(u=u, c0=0.3))
        B2 = b_matrix(data, MeanState(u=u, c0=4.0))
        assert np.allclose(np.diag(B1)[1:], np.diag(B2)[1:], atol=1e-9)
