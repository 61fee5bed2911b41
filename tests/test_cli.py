"""Tests for the command-line interface: ingestion, transforms, dispatch,
exit codes, and output determinism."""

import json
import math
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest

from meancov import cli, fit_mle
from meancov.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    build_parser,
    config_from_args,
    ingest_csv,
    latlong_to_sphere,
    main,
    run,
)
from meancov.exceptions import ParseError, RangeError, TooFewRowsError
from meancov.gibbs import run_gibbs
from meancov.simulate import ESTIMATORS, GIBBS_MAX_P, RiskReport
from conftest import ingest_csv_reference, simulated_data


def write_csv(path, rows, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


COMMANDS = ("fit-mle", "fit-niw", "fit-map-newton", "fit-map-gibbs", "simulate",
            "transform-sphere")


@pytest.fixture
def data_csv(tmp_path):
    data = simulated_data(40, 3, seed=81)
    path = tmp_path / "data.csv"
    write_csv(path, data.X)
    return str(path)


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """A 20000 x 10 CSV with a header, cells written with ``%.17g``."""
    X = np.random.default_rng(90).standard_normal((20000, 10)) * 10.0 ** np.arange(-4, 6)
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    header = ",".join(f"x{j}" for j in range(1, 11))
    np.savetxt(path, X, delimiter=",", fmt="%.17g", header=header, comments="")
    return str(path)


@pytest.fixture
def latlong_csv(tmp_path):
    path = tmp_path / "latlong.csv"
    write_csv(path, [[45.0, 30.0], [-10.0, 200.0]], header=["lat", "lon"])
    return str(path)


class TestIngestCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        data = ingest_csv(str(path))
        assert data.n == 3 and data.p == 2

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        write_csv(path, [[1.0, 2.0], [3.0, 4.0]], header=["x", "y"])
        data = ingest_csv(str(path))
        assert data.n == 2
        assert np.allclose(data.X[0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "text, match",
        [("1,inf\n2,3\n4,5\n", "row 1, column 2: non-finite"),
         ("1,,2\n3,4,5\n6,7,8\n", "row 1, column 2: not a number")],
    )
    def test_first_row_with_a_number_is_data(self, tmp_path, text, match):
        # A first line with any numeric cell is a data row, so its bad cell
        # is reported instead of the row being dropped as a header.
        path = tmp_path / "first.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=match):
            ingest_csv(str(path))

    def test_nan_token_names_cell(self, tmp_path):
        path = tmp_path / "c.csv"
        with open(path, "w") as fh:
            fh.write("1.0,2.0\n3.0,NaN\n5.0,6.0\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            ingest_csv(str(path))

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w") as fh:
            fh.write("1.0,2.0\n3.0,abc\n")
        with pytest.raises(ParseError, match="column 2"):
            ingest_csv(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "e.csv"
        with open(path, "w") as fh:
            fh.write("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 2"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("text", ["1\n2\n3\n", "x\n1_000\n2\n"])  # C reader, fallback
    def test_one_column(self, tmp_path, text):
        path = tmp_path / "one.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="need at least 2 columns, got 1"):
            ingest_csv(str(path))

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "f.csv"
        write_csv(path, [[1.0, 2.0]])
        with pytest.raises(TooFewRowsError):
            ingest_csv(str(path))
        empty = tmp_path / "g.csv"
        empty.write_text("")
        with pytest.raises(TooFewRowsError):
            ingest_csv(str(empty))

    def test_round_trip(self, tmp_path, rng):
        X = rng.standard_normal((5, 3))
        path = tmp_path / "h.csv"
        write_csv(path, X)
        back = ingest_csv(str(path)).X
        assert np.all(np.abs(back - X) < 1e-15)


def _outcome(read, path):
    """What ``read(path)`` does: ("array", X) or (exception type, message)."""
    try:
        return "array", read(path).X
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


# Raw file contents on which ingest_csv must agree with its row-by-row oracle.
ORACLE_CASES = {
    "header": b"x,y\n1,2\n3,4\n",
    "blank-lines": b"\n1,2\n\n   \n3,4\n\n",
    "spaces-around-cells": b" 1 , 2 \n3 ,\t4\n\t5,  6\n",
    "crlf": b"x,y\r\n1,2\r\n3,4\r\n",
    "underscore-digits": b"1_000,2\n3,4_5.5\n",
    "non-ascii-digits-and-space": "\u0661\u0662,\u00a02\n3,4\n".encode(),
    "separator-chars-around-cells": b"\x1c1\x1d,2\x1e\n3,\x1f4\n",
    "separator-chars-around-bad-cell": b"1\x1c,2\n3,\x1fx\n",
    "nan": b"1,2\n3,nan\n5,6\n",
    "inf": b"1,2\n-inf,4\n5,6\n",
    "overflow": b"1,2\n3,1e999\n5,6\n",
    "first-line-with-number-is-data": b"x,1\n2,3\n4,5\n",
    "empty-cell": b"1,2\n3,\n5,6\n",
    "trailing-comma": b"1,2,\n3,4,\n",
    "ragged-before-bad-token": b"1,2\n3\n4,abc\n",
    "ragged-longer-row": b"1,2\n3,4,5\n6,7\n",
    "ragged-rows-filling-a-rectangle": b"1,2\n3\n4,5,6\n",
    "ragged-row-with-bad-token": b"1,2\n3,abc,5\n",
    "bad-token-before-ragged": b"1,2\n3,abc\n4\n",
    "non-finite-before-unparsable": b"1,2\n3,inf\n4,abc\n",
    "unparsable-before-non-finite": b"1,2\nabc,inf\n4,5\n",
    "fault-deep-in-file": b"x,y\n" + b"1,2\n" * 15000 + b"3,1e999\n4,abc\n",
    "header-only": b"x,y\n",
    "header-then-blank-lines": b"x,y\n\n  \n",
    "header-then-bad-row": b"x,y\n1,\n2,3\n",
    "single-data-row": b"1,2\n",
    "underscore-single-row": b"x,y\n1_000,2\n",
    "empty": b"",
    "only-blank-lines": b"\n  \n\n",
    "invalid-utf8": b"1,2\n3,\xff\n",
    "invalid-utf8-after-bad-token": b"1,2\n3,abc\n" + b"4,5\n" * 5000 + b"\xff\n",
    "hash-inside-cell": b"1,2#3\n4,5\n",
    "quoted-first-line": b'"1","2"\n3,4\n',
    "quoted-cells": b'1,2\n"3","4"\n5,6\n',
}


class TestIngestCsvOracle:
    @pytest.mark.parametrize("content", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_agrees_with_row_by_row_reader(self, tmp_path, content):
        path = tmp_path / "in.csv"
        path.write_bytes(content)
        got, want = _outcome(ingest_csv, str(path)), _outcome(ingest_csv_reference, str(path))
        assert got[0] == want[0]
        if got[0] == "array":
            assert got[1].shape == want[1].shape
            assert np.array_equal(got[1], want[1])
        else:
            assert got[1] == want[1]

    def test_agrees_on_large_file(self, wide_csv):
        got = ingest_csv(wide_csv).X
        assert got.shape == (20000, 10)
        assert np.array_equal(got, ingest_csv_reference(wide_csv).X)

    def test_peak_memory_scales_with_result(self, wide_csv):
        # The text is streamed into the array: no list of lines or of rows
        # is held, and SampleSet keeps that array without a copy, so the
        # peak is the array while it grows (1.18x its final size measured).
        ingest_csv(wide_csv)
        tracemalloc.start()
        try:
            data = ingest_csv(wide_csv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * data.X.nbytes


def latlong_to_sphere_reference(rows) -> np.ndarray:
    """Row-by-row ``math`` transform: the oracle of ``cli.latlong_to_sphere``."""
    out = []
    for i, (lat, lon) in enumerate(rows, start=1):
        if not -90.0 <= lat <= 90.0:
            raise RangeError(f"row {i}: latitude {lat} outside [-90, 90]")
        if not -180.0 <= lon < 360.0:
            raise RangeError(f"row {i}: longitude {lon} outside [-180, 360)")
        la, lo = math.radians(lat), math.radians(lon)
        out.append([math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la)])
    return np.asarray(out)


class TestLatLongTransform:
    def test_north_pole(self):
        data = latlong_to_sphere([(90.0, 123.0), (90.0, -17.0)])
        assert np.allclose(data.X, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], atol=1e-12)

    def test_equator_prime_meridian(self):
        data = latlong_to_sphere([(0.0, 0.0), (0.0, 90.0)])
        assert np.allclose(data.X[0], [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(data.X[1], [0.0, 1.0, 0.0], atol=1e-12)

    def test_unit_norm(self, rng):
        rows = [(float(lat), float(lon))
                for lat, lon in zip(rng.uniform(-90, 90, 50), rng.uniform(-180, 360, 50))]
        data = latlong_to_sphere(rows)
        assert np.allclose(np.linalg.norm(data.X, axis=1), 1.0, atol=1e-12)

    def test_range_errors(self):
        with pytest.raises(RangeError, match=r"^row 1: latitude 91.0 outside \[-90, 90\]$"):
            latlong_to_sphere([(91.0, 0.0), (0.0, 0.0)])
        with pytest.raises(RangeError, match=r"^row 1: longitude 360.0 outside \[-180, 360\)$"):
            latlong_to_sphere([(0.0, 360.0), (0.0, 0.0)])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(0.0, 0.0), (10.0, -180.5), (-90.5, 0.0)], "row 2: longitude -180.5 outside"),
            ([(0.0, 0.0), (0.0, 1.0), (-95.0, 400.0), (0.0, 400.0)], "row 3: latitude -95.0"),
            ([(0.0, 359.5), (90.0, 0.0), (float("nan"), 0.0)], "row 3: latitude nan"),
        ],
    )
    def test_range_error_names_first_offending_row(self, rows, message):
        # Rows are checked in order, and within a row latitude comes first.
        with pytest.raises(RangeError) as got:
            latlong_to_sphere(np.array(rows))
        with pytest.raises(RangeError) as want:
            latlong_to_sphere_reference(rows)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(message)

    def test_matches_scalar_math_oracle(self, rng):
        # Same formula in the same order, and NumPy's float64 radians, sin
        # and cos round as math's do, so the points (and the CLI's JSON) are
        # bitwise those of the scalar loop.
        latlong = np.column_stack([rng.uniform(-90, 90, 5000), rng.uniform(-180, 360, 5000)])
        latlong = np.vstack([latlong, [[90, 0], [-90, 359.999999], [0, -180], [45.0, 30.0]]])
        got = latlong_to_sphere(latlong).X
        assert np.array_equal(got, latlong_to_sphere_reference(latlong.tolist()))

    def test_accepts_array_and_list_of_pairs(self, rng):
        latlong = np.column_stack([rng.uniform(-90, 90, 20), rng.uniform(-180, 360, 20)])
        from_array = latlong_to_sphere(latlong).X
        assert from_array.shape == (20, 3)
        assert np.array_equal(from_array, latlong_to_sphere([tuple(r) for r in latlong]).X)
        assert np.array_equal(from_array, latlong_to_sphere(latlong.tolist()).X)


class TestDispatch:
    def test_fit_mle_document(self, data_csv):
        status, doc = run(RunConfig(command="fit-mle", input_path=data_csv))
        assert status == EXIT_OK
        res = doc["results"]
        assert len(res["u"]) == 3
        assert len(res["lambda"]) == 2
        S = np.asarray(res["sigma"])
        mu = np.asarray(res["mu"])
        assert np.linalg.norm(S @ mu - mu) < 1e-8

    def test_fit_niw_document(self, data_csv):
        status, doc = run(RunConfig(command="fit-niw", input_path=data_csv))
        assert status == EXIT_OK
        assert np.linalg.eigvalsh(np.asarray(doc["results"]["sigma"]))[0] > 0.0

    def test_fit_map_newton_document(self, data_csv):
        status, doc = run(RunConfig(command="fit-map-newton", input_path=data_csv))
        assert status == EXIT_OK
        trace = doc["results"]["h_trace"]
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_fit_map_gibbs_document(self, data_csv, tmp_path):
        chain_path = str(tmp_path / "chain.jsonl")
        cfg = RunConfig(command="fit-map-gibbs", input_path=data_csv, gibbs_s=10, gibbs_l=2,
                        chain_out=chain_path)
        status, doc = run(cfg)
        assert status == EXIT_OK
        assert doc["results"]["samples"] == 10
        with open(chain_path) as fh:
            lines = fh.read().splitlines()
        # Line j is sweep j of the same-seed chain, bit for bit.
        data = ingest_csv(data_csv)
        chain = run_gibbs(data, cli._prior_from_config(cfg, data), s=10, l=2,
                          rng=np.random.default_rng(cfg.seed))
        assert len(lines) == len(chain.mu) == 10
        for j, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["iteration"] == j + 1
            assert rec["mu"] == chain.mu[j].tolist()
            assert rec["lambda"] == chain.lam[j].tolist()
            assert rec["log_posterior"] == chain.log_posterior[j]
            assert rec["accepted_count"] == chain.accepted_count[j]

    @pytest.mark.parametrize(
        "command, own_keys",
        [
            ("fit-mle", {"profile_loglik", "lower_bound", "smallest_eig_of_A_xbar",
                         "degenerate_direction", "zero_radius"}),
            ("fit-map-newton", {"h_trace"}),
            ("fit-map-gibbs", {"acceptance_rate", "samples"}),
        ],
    )
    def test_constrained_fits_share_result_keys(self, data_csv, command, own_keys):
        cfg = RunConfig(command=command, input_path=data_csv, gibbs_s=10, gibbs_l=2)
        status, doc = run(cfg)
        assert status == EXIT_OK
        common = {"u", "c0", "mu", "lambda", "sigma", "converged", "outer_iterations"}
        assert set(doc["results"]) == common | own_keys

    def test_simulate_document(self):
        cfg = RunConfig(command="simulate", grid=[(30, 3)], reps=1)
        status, doc = run(cfg)
        assert status == EXIT_OK
        assert [row["estimator"] for row in doc["results"]["table"]] == list(ESTIMATORS)
        report_fields = {f.name for f in fields(RiskReport)}
        assert all(set(row) == report_fields for row in doc["results"]["table"])
        assert "summary_text" in doc

    @pytest.mark.parametrize("include_gibbs", [False, True])
    def test_include_gibbs_runs_gibbs_on_every_cell(self, include_gibbs):
        grid = [(30, 3), (30, GIBBS_MAX_P + 1)]
        cfg = RunConfig(command="simulate", grid=grid, reps=1, include_gibbs=include_gibbs)
        status, doc = run(cfg)
        assert status == EXIT_OK
        gibbs_cells = [row["p"] for row in doc["results"]["table"] if row["estimator"] == "gibbs"]
        assert gibbs_cells == ([3, GIBBS_MAX_P + 1] if include_gibbs else [3])

    def test_transform_sphere(self, tmp_path):
        path = tmp_path / "latlon.csv"
        write_csv(path, [[45.0, 30.0], [-10.0, 200.0]], header=["lat", "lon"])
        status, doc = run(RunConfig(command="transform-sphere", input_path=str(path)))
        assert status == EXIT_OK
        pts = np.asarray(doc["results"]["points"])
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_transform_sphere_rejects_three_columns(self, tmp_path):
        path = tmp_path / "latlonz.csv"
        write_csv(path, [[45.0, 30.0, 1.0], [-10.0, 200.0, 2.0]])
        status, doc = run(RunConfig(command="transform-sphere", input_path=str(path)))
        assert status == EXIT_CONFIG
        assert "expects two columns" in doc["error"]["message"]

    def test_missing_input_is_config_error(self):
        status, doc = run(RunConfig(command="fit-mle", input_path=None))
        assert status == EXIT_CONFIG
        assert doc["error"]["category"] == "config-or-parse"

    def test_unreadable_input_is_config_error(self, tmp_path, capsys):
        status = main(["fit-mle", str(tmp_path / "missing.csv")])
        doc = json.loads(capsys.readouterr().out)
        assert status == EXIT_CONFIG
        assert doc["error"]["category"] == "config-or-parse"

    def test_unwritable_chain_out_is_config_error(self, data_csv, tmp_path, capsys):
        chain_out = str(tmp_path / "no-such-dir" / "chain.jsonl")
        status = main(["fit-map-gibbs", data_csv, "--gibbs-s", "2", "--chain-out", chain_out])
        doc = json.loads(capsys.readouterr().out)
        assert status == EXIT_CONFIG
        assert doc["error"]["category"] == "config-or-parse"

    def test_unwritable_out_is_config_error(self, data_csv, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "out.json")
        status = main(["fit-mle", data_csv, "--out", out])
        doc = json.loads(capsys.readouterr().out)
        assert status == EXIT_CONFIG
        assert doc["error"]["category"] == "config-or-parse"
        assert "no-such-dir" in doc["error"]["message"]
        assert "results" not in doc

    @pytest.mark.parametrize("max_iter", ["0", "-2"])
    def test_newton_max_iter_below_one_is_config_error(self, data_csv, capsys, max_iter):
        status = main(["fit-map-newton", data_csv, "--newton-max-iter", max_iter])
        doc = json.loads(capsys.readouterr().out)
        assert status == EXIT_CONFIG
        assert doc["error"]["category"] == "config-or-parse"
        assert "max_outer" in doc["error"]["message"]

    @pytest.mark.parametrize("command, option, value", [
        ("fit-niw", "--prior-kappa0", "nan"),
        ("fit-niw", "--prior-kappa0", "inf"),
        ("fit-map-newton", "--prior-kappa0", "nan"),
        ("fit-map-newton", "--prior-a", "nan"),
        ("fit-map-newton", "--prior-h0", "nan"),
        ("fit-map-newton", "--newton-eps", "nan"),
        ("fit-map-newton", "--newton-eps", "inf"),
        ("fit-map-gibbs", "--prior-h0", "inf"),
    ])
    def test_non_finite_option_is_config_error(self, data_csv, capsys, command, option, value):
        status = main([command, data_csv, option, value])
        doc = json.loads(capsys.readouterr().out)
        assert status == EXIT_CONFIG
        assert doc["error"]["category"] == "config-or-parse"
        assert "must be finite" in doc["error"]["message"]
        assert "results" not in doc

    @pytest.mark.parametrize("command, option, value, message", [
        ("fit-map-newton", "--prior-a", "-20.5", "n + 1 + 2a must be > 0"),  # n = 40
        ("fit-map-newton", "--prior-a", "-30", "n + 1 + 2a must be > 0"),
        ("fit-map-gibbs", "--prior-a", "-30", "must be positive"),
        ("fit-niw", "--prior-kappa0", "1e308", "overflows"),
    ])
    def test_out_of_range_prior_is_config_error(
        self, data_csv, capsys, command, option, value, message
    ):
        # Raised before a logarithm or an overflow could warn.
        status = main([command, data_csv, option, value])
        doc = json.loads(capsys.readouterr().out)
        assert status == EXIT_CONFIG
        assert doc["error"]["category"] == "config-or-parse"
        assert message in doc["error"]["message"]

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "simulate"])
    def test_one_column_csv_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "one.csv"
        write_csv(path, [[1.0], [2.0], [3.0]])
        status = main([command, str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert status == EXIT_CONFIG
        assert doc["error"]["category"] == "config-or-parse"
        assert "need at least 2 columns, got 1" in doc["error"]["message"]

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("1.0,xyz\n2.0,3.0\n")
        status, doc = run(RunConfig(command="fit-mle", input_path=str(path)))
        assert status == EXIT_CONFIG

    def test_no_mode_on_five_rows_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "five.csv"
        write_csv(path, simulated_data(5, 3, seed=81).X)
        status = main(["fit-map-newton", str(path), "--prior-a", "-10"])
        doc = json.loads(capsys.readouterr().out)
        assert status == EXIT_CONFIG
        assert doc["error"]["category"] == "config-or-parse"
        assert "n + 1 + 2a must be > 0" in doc["error"]["message"]

    def test_linalg_error_is_numeric(self, data_csv, monkeypatch):
        # LinAlgError subclasses ValueError, yet it is a numeric failure.
        def eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        status, doc = run(RunConfig(command="fit-mle", input_path=data_csv))
        assert status == EXIT_NUMERIC
        assert doc["error"] == {"category": "numeric", "message": "Eigenvalues did not converge"}

    @pytest.mark.parametrize("command", ["fit-mle", "fit-niw", "fit-map-newton", "fit-map-gibbs"])
    def test_overflowing_data_is_numeric(self, tmp_path, capsys, command):
        # Finite cells whose scatter overflows: rejected before any RuntimeWarning.
        path = tmp_path / "huge.csv"
        write_csv(path, np.linspace(1e200, 5e200, 15).reshape(5, 3))
        status = main([command, str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert status == EXIT_NUMERIC
        assert doc["error"]["category"] == "numeric"
        assert "overflow" in doc["error"]["message"]

    def test_degenerate_data_exit_code(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_csv(path, np.outer([1.0, 2.0, 3.0], [1.0, 1.0]))
        status, doc = run(RunConfig(command="fit-mle", input_path=str(path)))
        assert status == EXIT_NUMERIC
        assert doc["error"]["category"] == "numeric"

    def test_non_convergence_exit_code(self, data_csv):
        cfg = RunConfig(command="fit-map-newton", input_path=data_csv,
                        newton_eps=1e-300, newton_max_iter=1)
        status, doc = run(cfg)
        if not doc["results"]["converged"]:
            assert status == EXIT_NO_CONVERGENCE
        else:
            assert status == EXIT_OK

    def test_non_convergence_exits_4(self, data_csv, monkeypatch):
        # Warm-started far from the optimum with one outer pass and an
        # unattainable tolerance, Newton is still moving when it stops.
        fit_map_newton = cli.fit_map_newton

        def far_start(data, prior, config):
            return fit_map_newton(data, prior, config, init_mu=np.array([0.0, 0.0, 1.0]))

        monkeypatch.setattr(cli, "fit_map_newton", far_start)
        cfg = RunConfig(command="fit-map-newton", input_path=data_csv,
                        newton_eps=1e-300, newton_max_iter=1)
        status, doc = run(cfg)
        assert status == EXIT_NO_CONVERGENCE
        assert doc["results"]["converged"] is False


class TestMainEntry:
    def test_fit_mle_via_argv(self, data_csv, tmp_path, capsys):
        out = str(tmp_path / "result.json")
        status = main(["fit-mle", data_csv, "--out", out])
        assert status == EXIT_OK
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["command"] == "fit-mle"
        capsys.readouterr()

    def test_byte_identical_determinism(self, data_csv, tmp_path, capsys):
        out = str(tmp_path / "result.json")
        args = ["fit-map-gibbs", data_csv, "--seed", "7", "--gibbs-s", "10", "--out", out]
        assert main(args) == EXIT_OK
        with open(out, "rb") as fh:
            b1 = fh.read()
        assert main(args) == EXIT_OK
        capsys.readouterr()
        with open(out, "rb") as fh:
            b2 = fh.read()
        assert b1 == b2

    def test_simulate_via_argv(self, capsys):
        status = main(["simulate", "--grid", "30x3", "--reps", "1", "--format", "table"])
        assert status == EXIT_OK
        out = capsys.readouterr().out
        assert "estimator" in out

    def test_bad_grid_is_config_error(self, capsys):
        status = main(["simulate", "--grid", "bogus"])
        capsys.readouterr()
        assert status == EXIT_CONFIG

    def test_unknown_command_rejected(self, capsys):
        status = main(["explode"])
        capsys.readouterr()
        assert status == EXIT_CONFIG

    def test_config_echo_materializes_defaults(self, data_csv, capsys):
        status = main(["fit-mle", data_csv])
        out = capsys.readouterr().out
        assert status == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["seed"] == 0
        assert doc["config"]["command"] == "fit-mle"


def _jsonable(x):
    """The document with arrays as lists and NumPy scalars as Python ones."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def render_reference(doc) -> str:
    """The stdlib's compact rendering of a document: the oracle of ``cli._dumps``."""
    return json.dumps(_jsonable(doc), sort_keys=True)


class TestRender:
    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("fit-mle", {}),
            ("fit-niw", {}),
            ("fit-map-newton", {}),
            ("fit-map-gibbs", {"gibbs_s": 10, "gibbs_l": 2}),
            ("simulate", {"grid": [(30, 3)], "reps": 2, "include_gibbs": True}),
            ("transform-sphere", {}),
            ("fit-mle", {"input_path": None}),  # config error document
        ],
    )
    def test_command_documents_match_stdlib(self, data_csv, latlong_csv, command, overrides):
        path = {"simulate": None, "transform-sphere": latlong_csv}.get(command, data_csv)
        _, doc = run(RunConfig(command=command, **{"input_path": path, **overrides}))
        assert cli._dumps(doc) == render_reference(doc)

    @pytest.mark.parametrize("text", ["1.0,xyz\n2.0,3.0\n", "1,2\n2,4\n3,6\n"])
    def test_error_documents_match_stdlib(self, tmp_path, text):
        # A parse error and a numeric (degenerate data) error.
        path = tmp_path / "bad.csv"
        path.write_text(text)
        status, doc = run(RunConfig(command="fit-mle", input_path=str(path)))
        assert status in (EXIT_CONFIG, EXIT_NUMERIC) and "error" in doc
        assert cli._dumps(doc) == render_reference(doc)

    def test_edge_values_match_stdlib(self):
        doc = {
            "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300, 0.1],
            "numpy_scalars": [np.float64(-0.0), np.float64("nan"), np.int64(-7), np.float32(0.1)],
            "empty": {"list": [], "dict": {}, "tuple": (), "array": np.zeros((0, 3))},
            "empty_rows": np.zeros((2, 0)),
            "strings": ["caf\u00e9 \u2603 \U0001f600", "tab\tquote\"back\\slash\nnl\x00"],
            "\u00fcber \"key\"": 1,
            "scalars": {"int": 3, "big": 10**30, "true": True, "false": False, "none": None},
            "one_row": np.array([[1.5, -2.25, 1e-300]]),
            "one_dim": np.array([3.0, -0.0, 5e-324, 1e300, 2.0 / 3.0]),
            "three_dim": np.arange(12.0).reshape(2, 3, 2) / 7.0,
            "float32": np.array([0.1, 1e-45, 3.4e38], dtype=np.float32),
            "with_nan": np.array([[1.0, np.nan], [-np.inf, 2.0]]),
            "zero_dim": np.array(2.5),
            "ints": np.array([[1, -2], [3, 4]]),
            "bools": np.array([True, False]),
            "nested": [[np.array([1.0, 2.0]), {"b": (1, 2.5), "a": []}], [[]]],
        }
        assert cli._dumps(doc) == render_reference(doc)
        assert cli._dumps(doc["one_dim"]) == render_reference(doc["one_dim"])
        assert cli._dumps(3.5) == render_reference(3.5)
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            cli._dumps({"set": {1}})

    def test_fit_document_reads_diagnostics_as_plain_values(self, data_csv):
        # Fit.diagnostics is a read-only mapping; the document holds its
        # values as the plain dict it was built from would.
        cfg = RunConfig(command="fit-mle", input_path=data_csv)
        _, doc = run(cfg)
        fit = fit_mle(ingest_csv(data_csv))
        results = {
            "u": fit.u, "c0": fit.c0, "mu": fit.mu, "lambda": fit.spectrum,
            "sigma": fit.covariance(), "converged": True, "outer_iterations": 0,
            **dict(fit.diagnostics),
        }
        expected = {"command": "fit-mle", "config": asdict(cfg), "results": results}
        assert cli._dumps(doc) == render_reference(expected)

    def test_main_writes_the_rendering(self, data_csv, tmp_path, capsys):
        # stdout and --out carry the same bytes, the stdlib's rendering.
        _, doc = run(RunConfig(command="fit-mle", input_path=data_csv))
        out = tmp_path / "out.json"
        assert main(["fit-mle", data_csv, "--out", str(out)]) == EXIT_OK
        doc["config"]["output_path"] = str(out)
        expected = render_reference(doc) + "\n"
        assert capsys.readouterr().out == expected
        assert out.read_text(encoding="utf-8") == expected


def test_seeded_simulate_runs_agree_but_for_elapsed_seconds():
    # The wall-clock elapsed_seconds of each report row is the one field
    # that differs between two runs of one configuration.
    cfg = RunConfig(command="simulate", grid=[(30, 3), (40, 4)], reps=2, seed=5)
    docs = [run(cfg)[1] for _ in range(2)]
    for doc in docs:
        for row in doc["results"]["table"]:
            assert row.pop("elapsed_seconds") >= 0.0
    assert cli._dumps(docs[0]) == cli._dumps(docs[1])


class TestArgumentParsing:
    def test_fit_niw_takes_only_its_own_prior_options(self, data_csv, capsys):
        # The NIW baseline has no eigenvalue prior: --prior-a and --prior-h0
        # are rejected rather than ignored, and the options it keeps act.
        for option in ("--prior-a", "--prior-h0"):
            assert main(["fit-niw", data_csv, option, "30"]) == EXIT_CONFIG
        capsys.readouterr()
        assert main(["fit-niw", data_csv]) == EXIT_OK
        default = json.loads(capsys.readouterr().out)["results"]
        shrink = ["--prior-kappa0", "50", "--prior-mu0", "zero"]
        assert main(["fit-niw", data_csv, *shrink]) == EXIT_OK
        shrunk = json.loads(capsys.readouterr().out)["results"]
        assert default["mu"] != shrunk["mu"]

    # Only fit-map-gibbs and simulate draw random numbers, and only simulate
    # prints anything but JSON.
    @pytest.mark.parametrize(
        "command, option",
        [(command, "--seed=7")
         for command in ("fit-mle", "fit-niw", "fit-map-newton", "transform-sphere")]
        + [(command, "--format=table")
           for command in ("fit-mle", "fit-niw", "fit-map-newton", "fit-map-gibbs",
                           "transform-sphere")],
    )
    def test_commands_reject_options_they_ignore(
        self, data_csv, latlong_csv, capsys, command, option
    ):
        path = latlong_csv if command == "transform-sphere" else data_csv
        assert main([command, path, option]) == EXIT_CONFIG
        capsys.readouterr()

    def test_option_dests_are_config_fields(self):
        names = {f.name for f in fields(RunConfig)}
        subparsers = build_parser()._subparsers._group_actions[0].choices
        for command, sp in subparsers.items():
            dests = {a.dest for a in sp._actions if a.dest != "help"}
            assert dests <= names, command

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_echo_is_config_defaults(self, data_csv, latlong_csv, capsys, command):
        path = {"simulate": None, "transform-sphere": latlong_csv}.get(command, data_csv)
        argv = [command, path] if path else [command, "--reps", "1"]  # a short run
        main(argv)
        echo = json.loads(capsys.readouterr().out)["config"]
        expected = RunConfig(command=command, input_path=path)
        if path is None:
            expected.reps = 1
        assert echo == json.loads(json.dumps(asdict(expected)))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help(self, command, capsys):
        assert main([command, "-h"]) == 0
        assert "usage: meancov " + command in capsys.readouterr().out

    def test_grid_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--grid", "50x3,100x5", "--reps", "2"])
        cfg = config_from_args(args)
        assert cfg.grid == [(50, 3), (100, 5)]
        assert cfg.reps == 2

    def test_prior_overrides(self, data_csv):
        parser = build_parser()
        args = parser.parse_args(
            ["fit-map-newton", data_csv, "--prior-kappa0", "0.5", "--prior-mu0", "zero"]
        )
        cfg = config_from_args(args)
        assert cfg.prior_kappa0 == 0.5
        assert cfg.prior_mu0 == "zero"
