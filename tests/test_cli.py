"""Tests for the command-line interface: ingestion, transforms, dispatch,
exit codes, and output determinism."""

import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from meancov import MeanState, cli
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
from meancov.simulate import RiskReport
from conftest import simulated_data


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
        with pytest.raises(RangeError):
            latlong_to_sphere([(91.0, 0.0), (0.0, 0.0)])
        with pytest.raises(RangeError):
            latlong_to_sphere([(0.0, 360.0), (0.0, 0.0)])


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
        assert len(lines) == 10
        rec = json.loads(lines[0])
        assert set(rec) >= {"iteration", "mu", "lambda", "log_posterior"}

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
        cfg = RunConfig(command="simulate", grid=[(30, 3)], reps=1, include_gibbs=False)
        status, doc = run(cfg)
        assert status == EXIT_OK
        assert len(doc["results"]["table"]) == 3
        report_fields = {f.name for f in fields(RiskReport)}
        assert all(set(row) == report_fields for row in doc["results"]["table"])
        assert "summary_text" in doc

    def test_transform_sphere(self, tmp_path):
        path = tmp_path / "latlon.csv"
        write_csv(path, [[45.0, 30.0], [-10.0, 200.0]], header=["lat", "lon"])
        status, doc = run(RunConfig(command="transform-sphere", input_path=str(path)))
        assert status == EXIT_OK
        pts = np.asarray(doc["results"]["points"])
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

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

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("1.0,xyz\n2.0,3.0\n")
        status, doc = run(RunConfig(command="fit-mle", input_path=str(path)))
        assert status == EXIT_CONFIG

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
            far = MeanState(u=np.array([0.0, 0.0, 1.0]), c0=1.0)
            return fit_map_newton(data, prior, config, init_mean=far)

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
