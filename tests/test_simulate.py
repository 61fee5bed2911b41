"""Tests for the Monte-Carlo risk harness."""

from dataclasses import fields

import numpy as np
import pytest

from meancov import (
    DegenerateDataError,
    NonPositiveEigenvalueError,
    RiskReport,
    SampleSet,
    build_orthobasis,
    format_table,
    generate_truth,
    run_experiment,
    sample_data,
)
from meancov import model as model_module
from meancov import simulate
from meancov.simulate import ESTIMATORS, reports_to_records

# The battery without the Gibbs MAP, for tests that need no sampler.
NO_GIBBS = {name: fn for name, fn in ESTIMATORS.items() if name != "gibbs"}


class TestGenerateTruth:
    def test_constraint_satisfied(self, rng):
        for p in (2, 3, 5, 10):
            truth = generate_truth(p, rng)
            S = truth.sigma_true
            assert np.linalg.norm(S @ truth.mu_true - truth.mu_true) < 1e-10 * max(
                1.0, np.linalg.norm(truth.mu_true)
            )

    def test_diagonal_scale_sanity(self):
        # E[(L L^T)_jj] = 26 + (p - 1); the average over draws should land
        # near it.
        rng = np.random.default_rng(61)
        p = 3
        diags = []
        for _ in range(100):
            truth = generate_truth(p, rng)
            diags.append(np.diag(truth.sigma_true).mean())
        avg = np.mean(diags)
        assert 15.0 < avg < 40.0

    def test_seeded_determinism(self):
        t1 = generate_truth(4, np.random.default_rng(62))
        t2 = generate_truth(4, np.random.default_rng(62))
        assert np.array_equal(t1.mu_true, t2.mu_true)
        assert np.array_equal(t1.sigma_true, t2.sigma_true)

    def test_rejects_p1(self):
        with pytest.raises(ValueError):
            generate_truth(1, np.random.default_rng(0))

    def test_singular_factor_raises(self):
        # The factor draw -5 I cancels the added diagonal, so L and Psi are
        # zero; the check must hold under ``python -O`` too.
        class ZeroFactor:
            def standard_normal(self, size):
                if isinstance(size, tuple):
                    return -5.0 * np.eye(size[0])
                return np.ones(size)

        with pytest.raises(NonPositiveEigenvalueError):
            generate_truth(3, ZeroFactor())

    def test_singular_factor_with_positive_tail_forms_is_accepted(self):
        # L = w e_1^T makes Psi = w w^T of rank one, but no tail column of
        # P(u) is orthogonal to w, so every kept form (V_i^T w)^2 is > 0.
        w = np.array([1.0, 2.0, 4.0])

        class RankOneFactor:
            def standard_normal(self, size):
                if isinstance(size, tuple):
                    draw = -5.0 * np.eye(size[0])
                    draw[:, 0] += w
                    return draw
                return np.ones(size)

        truth = generate_truth(3, RankOneFactor())
        V = build_orthobasis(truth.mu_true / np.linalg.norm(truth.mu_true))[:, 1:]
        np.testing.assert_allclose(np.diag(V.T @ truth.sigma_true @ V), (V.T @ w) ** 2)
        np.linalg.cholesky(truth.sigma_true)  # positive definite


class TestSampleData:
    def test_clt_mean(self):
        rng = np.random.default_rng(63)
        truth = generate_truth(3, rng)
        data = SampleSet(sample_data(truth, 100_000, rng))
        lam_max = np.linalg.eigvalsh(truth.sigma_true)[-1]
        bound = 4.0 * np.sqrt(lam_max / data.n)
        assert np.all(np.abs(data.xbar - truth.mu_true) < bound)

    def test_lln_scatter(self):
        rng = np.random.default_rng(64)
        truth = generate_truth(3, rng)
        data = SampleSet(sample_data(truth, 100_000, rng))
        S_hat = data.scatter_about_mean() / data.n
        err = np.sum((S_hat - truth.sigma_true) ** 2) / 3.0
        assert err < 0.1

    def test_seeded_determinism(self):
        truth = generate_truth(3, np.random.default_rng(65))
        d1 = sample_data(truth, 10, np.random.default_rng(66))
        d2 = sample_data(truth, 10, np.random.default_rng(66))
        assert np.array_equal(d1, d2)

    def test_rejects_n1(self):
        truth = generate_truth(3, np.random.default_rng(67))
        with pytest.raises(ValueError):
            sample_data(truth, 1, np.random.default_rng(0))


def harness_risks(monkeypatch, truth, estimates):
    """Mean and covariance risks of ``run_experiment`` against a fixed truth.

    The cell's truth is ``truth``; replication ``r`` returns ``estimates[r]``.
    """
    monkeypatch.setattr(simulate, "generate_truth", lambda p, rng: truth)
    replies = iter(estimates)

    def stub(data, rng):
        mu_hat, sigma_hat = next(replies)
        return mu_hat, sigma_hat, {}

    (report,) = run_experiment([(10, truth.p)], estimators={"stub": stub}, reps=len(estimates))
    return report.mean_risk, report.sigma_risk


class TestFrobeniusRisk:
    def test_perfect_estimates(self, monkeypatch):
        truth = generate_truth(3, np.random.default_rng(68))
        m, s = harness_risks(monkeypatch, truth, [(truth.mu_true, truth.sigma_true)])
        assert m == 0.0 and s == 0.0

    def test_unit_coordinate_error(self, monkeypatch):
        truth = generate_truth(4, np.random.default_rng(69))
        mu_hat = truth.mu_true + np.array([1.0, 0.0, 0.0, 0.0])
        m, _ = harness_risks(monkeypatch, truth, [(mu_hat, truth.sigma_true)])
        assert m == pytest.approx(0.25)

    def test_matches_naive_average(self, rng, monkeypatch):
        truth = generate_truth(3, np.random.default_rng(70))
        estimates = [
            (rng.standard_normal(3), truth.sigma_true + rng.standard_normal((3, 3)) * 0.1)
            for _ in range(7)
        ]
        m, s = harness_risks(monkeypatch, truth, estimates)
        m_naive = np.mean(
            [np.sum((mu - truth.mu_true) ** 2) / 3.0 for mu, _ in estimates]
        )
        s_naive = np.mean(
            [np.sum((S - truth.sigma_true) ** 2) / 3.0 for _, S in estimates]
        )
        assert m == pytest.approx(m_naive, abs=1e-12)
        assert s == pytest.approx(s_naive, abs=1e-12)


class TestEstimatorBattery:
    def test_every_cell_runs_the_whole_battery(self):
        reports = run_experiment([(30, 6)], reps=1)
        assert list(ESTIMATORS) == ["niw", "mle", "map-newton", "gibbs"]
        assert [r.estimator for r in reports] == list(ESTIMATORS)
        rec = {r.estimator: r for r in reports}
        assert rec["gibbs"].acceptance_rate is not None
        assert 0.0 <= rec["gibbs"].acceptance_rate <= 1.0

    def test_estimator_table_is_read_only(self):
        with pytest.raises(TypeError):
            ESTIMATORS["other"] = ESTIMATORS["mle"]


class TestRunExperiment:
    def test_smoke_single_replication(self):
        reports = run_experiment([(50, 3), (30, 4)], NO_GIBBS, reps=1, seed=1)
        assert len(reports) == 6  # 2 cells x 3 estimators
        for r in reports:
            assert np.isfinite(r.mean_risk) and np.isfinite(r.sigma_risk)
            assert r.replications == 1 and r.failures == 0

    def test_seed_determinism(self):
        kw = dict(grid=[(20, 3)], estimators=NO_GIBBS, reps=3, seed=9)
        r1 = run_experiment(**kw)
        r2 = run_experiment(**kw)
        for a, b in zip(r1, r2):
            assert a.estimator == b.estimator
            assert a.mean_risk == b.mean_risk
            assert a.sigma_risk == b.sigma_risk

    def test_estimator_order_invariance(self):
        ests = NO_GIBBS
        reversed_ests = dict(reversed(list(ests.items())))
        r1 = run_experiment([(20, 3)], estimators=ests, reps=3, seed=4)
        r2 = run_experiment([(20, 3)], estimators=reversed_ests, reps=3, seed=4)
        by_name_1 = {r.estimator: r for r in r1}
        by_name_2 = {r.estimator: r for r in r2}
        for name in ests:
            assert by_name_1[name].mean_risk == by_name_2[name].mean_risk
            assert by_name_1[name].sigma_risk == by_name_2[name].sigma_risk

    def test_failures_counted_and_excluded(self):
        def broken(data, rng):
            raise DegenerateDataError("boom")

        ests = dict(NO_GIBBS)
        ests["broken"] = broken
        reports = run_experiment([(20, 3)], estimators=ests, reps=2, seed=5)
        rec = {r.estimator: r for r in reports}["broken"]
        assert rec.failures == 2
        assert rec.replications == 0
        assert np.isnan(rec.mean_risk)
        # The records carry None, JSON's null, where the report has NaN.
        row = reports_to_records(reports)[-1]
        assert row["estimator"] == "broken"
        assert [row[k] for k in ("mean_risk", "sigma_risk", "ratio_vs_niw_mean",
                                 "ratio_vs_niw_sigma")] == [None] * 4

    def test_failures_counted_by_type(self):
        outcomes = iter([DegenerateDataError, None, np.linalg.LinAlgError, DegenerateDataError])

        def flaky(data, rng):
            error = next(outcomes)
            if error is not None:
                raise error("numeric")
            return data.xbar, np.eye(data.p), {}

        (rec,) = run_experiment([(20, 3)], estimators={"flaky": flaky}, reps=4, seed=5)
        assert rec.failure_types == {"DegenerateDataError": 2, "LinAlgError": 1}
        assert rec.failures == 3 and rec.replications == 1

    def test_programming_errors_propagate(self):
        def buggy(data, rng):
            raise TypeError("not a numeric failure")

        ests = dict(NO_GIBBS)
        ests["buggy"] = buggy
        with pytest.raises(TypeError, match="not a numeric failure"):
            run_experiment([(20, 3)], estimators=ests, reps=2, seed=5)

    def test_newton_map_tracks_mle_risk(self):
        # The harness runs the fast MAP under the flat prior, where its
        # fixed point is the MLE, so the two risk columns nearly coincide.
        reports = run_experiment([(50, 3)], NO_GIBBS, reps=30, seed=7)
        rec = {r.estimator: r for r in reports}
        mle, newton = rec["mle"], rec["map-newton"]
        assert abs(newton.mean_risk - mle.mean_risk) / mle.mean_risk < 0.05
        assert abs(newton.sigma_risk - mle.sigma_risk) / mle.sigma_risk < 0.05

    def test_frame_completed_once_per_replication(self, monkeypatch):
        # One frame, the MLE's basis, per replication: the Newton cold start
        # fits the MLE again from it, with no completion.
        calls = []
        build = model_module.build_orthobasis

        def counted(u):
            calls.append(1)
            return build(u)

        monkeypatch.setattr(model_module, "build_orthobasis", counted)
        ests = {k: v for k, v in ESTIMATORS.items() if k in ("mle", "map-newton")}
        run_experiment([(60, 5)], estimators=ests, reps=3, seed=4)
        assert len(calls) == 3

    def test_shared_frame_leaves_risks_unchanged(self, monkeypatch):
        # Each estimator on its own statistics of the data completes its own frame.
        ests = {k: v for k, v in ESTIMATORS.items() if k in ("mle", "map-newton")}
        shared = run_experiment([(60, 5)], estimators=ests, reps=3, seed=4)
        drawn = []

        def recorded(*args):
            drawn.append(sample_data(*args))
            return drawn[-1]

        monkeypatch.setattr(simulate, "sample_data", recorded)
        fresh = {name: (lambda data, rng, fn=fn: fn(SampleSet(drawn[-1]), rng))
                 for name, fn in ests.items()}
        apart = run_experiment([(60, 5)], estimators=fresh, reps=3, seed=4)
        for a, b in zip(shared, apart):
            assert (a.estimator, a.mean_risk, a.sigma_risk) == (
                b.estimator, b.mean_risk, b.sigma_risk)
            assert a.failures == b.failures == 0

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            run_experiment([(20, 3)], reps=0)


class TestReporting:
    def test_records_and_table(self):
        reports = run_experiment([(20, 3)], NO_GIBBS, reps=1, seed=8)
        records = reports_to_records(reports)
        assert len(records) == len(reports)
        for rec in records:
            assert set(rec) >= {"n", "p", "estimator", "mean_risk", "sigma_risk",
                                "ratio_vs_niw_mean", "ratio_vs_niw_sigma", "failures"}

    def test_report_is_frozen_and_equal_only_to_itself(self):
        # A report hashes and its failure counts are read-only; it compares by
        # identity, since two runs of one cell differ in elapsed_seconds.
        def broken(data, rng):
            raise DegenerateDataError("boom")

        kw = dict(grid=[(20, 3)], estimators={"mle": NO_GIBBS["mle"], "broken": broken},
                  reps=2, seed=8)
        first, second = run_experiment(**kw), run_experiment(**kw)
        for report in first:
            assert {report: None}
            with pytest.raises(TypeError):
                report.failure_types["X"] = 1
        assert first[0] == first[0] and first[0] != second[0]
        assert first[1].failure_types == {"DegenerateDataError": 2}
        # The records hold a plain dict, which the CLI's JSON encoder writes.
        rows = reports_to_records(first)
        assert [type(row["failure_types"]) for row in rows] == [dict, dict]
        assert rows[1]["failure_types"] == {"DegenerateDataError": 2}

    def test_record_keys_are_report_fields(self):
        reports = run_experiment([(20, 3)], NO_GIBBS, reps=1, seed=8)
        report_fields = {f.name for f in fields(RiskReport)}
        assert all(set(rec) == report_fields for rec in reports_to_records(reports))
        table = format_table(reports)
        lines = table.splitlines()
        assert len(lines) == len(reports) + 1
        assert lines[0].startswith("n")
