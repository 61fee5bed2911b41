"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from meancov import SampleSet, build_orthobasis, generate_truth, sample_data


def random_unit(p: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(p)
    return v / np.linalg.norm(v)


def simulated_data(n: int, p: int, seed: int) -> SampleSet:
    """A data set drawn from a random constrained truth."""
    rng = np.random.default_rng(seed)
    return sample_data(generate_truth(p, rng), n, rng)


def estimate_c0_general(data: SampleSet, u, lam) -> float:
    """Radius estimate in its unsimplified ratio-of-quadratic-forms form.

    Evaluates ``(u^T P D^{-1} P^T xbar) / (u^T P D^{-1} P^T u)`` with
    ``D = diag(1, lam)``.  Algebraically equal to ``estimate_c0`` for every
    positive ``lam``; an equivalence oracle for it.
    """
    lam = np.asarray(lam, dtype=float)
    u = np.asarray(u, dtype=float)
    P = build_orthobasis(u).matrix
    dinv = 1.0 / np.concatenate(([1.0], lam))
    M = (P * dinv) @ P.T
    return float((u @ M @ data.xbar) / (u @ M @ u))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
