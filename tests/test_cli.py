"""Command-line pipelines: outputs, records, reproducibility, error paths."""

import json
import math

import numpy as np
import pytest

from routercell import cli, io, model

TWO_PI = 2.0 * math.pi


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_tables_match_model(self, tmp_path):
        record = cli.run_command("simulate", None, out_dir=tmp_path, seed=1)
        run_dir = tmp_path / "runs" / record.run_id
        assert (run_dir / "run.json").exists()
        spectrum = io.ingest_spectrum(run_dir / "spectrum.csv")
        config = io.load_config(None)
        cell = io.cell_params_from_config(config)
        truth = dict(zip(model.CHANNELS, model.cell_coefficients(TWO_PI * spectrum.freqs, cell)))
        for ch in model.CHANNELS:
            assert np.max(np.abs(spectrum.channel(ch) - truth[ch])) < 1e-12

    def test_magphase_table_written(self, tmp_path):
        record = cli.run_command("simulate", None, out_dir=tmp_path, seed=1)
        run_dir = tmp_path / "runs" / record.run_id
        header, rows = read_rows(run_dir / "magphase.csv")
        assert header == ["freq_hz", "channel", "mag", "mag_db", "phase_rad"]
        assert len(rows) == 4 * 401


class TestSynthCalibrateFitChain:
    def test_end_to_end_recovers_configured_parameters(self, tmp_path):
        config = io.load_config(None)
        config["noise"]["sigma"] = 1e-3
        config["model"]["phi_a_rad"] = -0.06 * math.pi
        config["model"]["phi_b_rad"] = 0.05 * math.pi

        rec_synth = cli.run_command("synth", config, out_dir=tmp_path, seed=11)
        synth_dir = tmp_path / "runs" / rec_synth.run_id
        rec_cal = cli.run_command(
            "calibrate", config,
            [synth_dir / "meas.csv", synth_dir / "hd.csv"], out_dir=tmp_path, seed=11)
        cal_dir = tmp_path / "runs" / rec_cal.run_id
        rec_fit = cli.run_command(
            "fit", config, [cal_dir / "calibrated.csv"], out_dir=tmp_path, seed=11)
        fit_dir = tmp_path / "runs" / rec_fit.run_id

        with (fit_dir / "fit.json").open() as fh:
            payload = json.load(fh)
        assert payload["converged"]
        assert payload["params_hz"]["gamma_a_hz"] == pytest.approx(1.82e6, rel=0.01)
        assert payload["params_hz"]["gamma_b_hz"] == pytest.approx(2.31e6, rel=0.01)
        assert payload["params_hz"]["f_ge_hz"] == pytest.approx(6.163e9, abs=1e4)
        assert rec_fit.input_digests  # provenance of the calibrated input

        rec_rep = cli.run_command("report", config, [fit_dir], out_dir=tmp_path, seed=11)
        rep_dir = tmp_path / "runs" / rec_rep.run_id
        text = (rep_dir / "report.txt").read_text()
        assert "gamma_a" in text and "MHz" in text
        assert rec_rep.run_id in text

    def test_calibrate_requires_two_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="two inputs"):
            cli.run_command("calibrate", None, ["only-one.csv"], out_dir=tmp_path)


class TestSweeps:
    def test_bias_sweep_ridge_follows_flux_polynomial(self, tmp_path):
        config = io.load_config(None)
        config["grid"].update(n_points=201, n_bias=9,
                              f_start_hz=6.05e9, f_stop_hz=6.18e9)
        record = cli.run_command("sweep-bias", config, out_dir=tmp_path, seed=2)
        run_dir = tmp_path / "runs" / record.run_id
        _, rows = read_rows(run_dir / "efficiency_map.csv")
        flux = io.flux_model_from_config(config)
        by_bias = {}
        for row in rows:
            by_bias.setdefault(float(row["bias_ma"]), []).append(
                (float(row["freq_hz"]), float(row["abs_e"])))
        df = (6.18e9 - 6.05e9) / 200
        for ib, pairs in by_bias.items():
            freqs, mags = zip(*sorted(pairs))
            ridge = freqs[int(np.argmax(mags))]
            expected = model.omega_ge_of_bias(ib, flux) / TWO_PI
            assert abs(ridge - expected) <= 1.5 * df

        with (run_dir / "bias_fit.json").open() as fh:
            fits = json.load(fh)
        assert fits["flux_noise_hz"]["s_i_a2_per_hz"] == pytest.approx(3e-19, rel=0.02)
        assert fits["flux_noise_hz"]["gamma_phi0_hz"] == pytest.approx(0.2e6, rel=0.02)

    def test_temp_sweep_recovers_thermal_coefficients(self, tmp_path):
        record = cli.run_command("sweep-temp", None, out_dir=tmp_path, seed=3)
        run_dir = tmp_path / "runs" / record.run_id
        with (run_dir / "thermal_fit.json").open() as fh:
            fits = json.load(fh)
        assert fits["fit_hz"]["gamma1_zero_hz"] == pytest.approx(0.26e6, rel=0.01)
        assert fits["fit_hz"]["gamma_phi_zero_hz"] == pytest.approx(10.38e6, rel=0.01)

    def test_power_sweep_saturation_fits(self, tmp_path):
        record = cli.run_command("sweep-power", None, out_dir=tmp_path, seed=4)
        run_dir = tmp_path / "runs" / record.run_id
        with (run_dir / "saturation_fit.json").open() as fh:
            fits = json.load(fh)["fits"]
        assert fits["AA"]["params"]["a"] == pytest.approx(1.0, abs=1e-6)
        assert fits["AB"]["params"]["a"] == pytest.approx(0.0, abs=1e-6)
        assert fits["AA"]["params"]["c"] == pytest.approx(1.0, abs=0.01)

    def test_power_sweep_weak_drive_level_is_the_model_response(self, tmp_path):
        config = io.load_config(None)
        config["model"]["gamma_phi_hz"] = 0.5e6
        config["model"]["phi_a_rad"] = 0.2
        record = cli.run_command("sweep-power", config, out_dir=tmp_path, seed=4)
        _, rows = read_rows(tmp_path / "runs" / record.run_id / "saturation.csv")
        cell = io.cell_params_from_config(config)
        resonant = dict(zip(model.CHANNELS, model.cell_coefficients(cell.omega_ge, cell)))
        for ch in model.CHANNELS:
            first = [r for r in rows if r["channel"] == ch][0]
            n, level = float(first["n_avg"]), float(first["magnitude"])
            high = 1.0 if ch in model.THROUGH_CHANNELS else 0.0
            # invert a - b / (1 + n^c / d) with a = high, c = d = 1
            weak = high - (high - level) * (1.0 + n)
            assert weak == pytest.approx(abs(resonant[ch]), rel=1e-12)

    def test_dressed_lines_table(self, tmp_path):
        record = cli.run_command("dressed", None, out_dir=tmp_path, seed=5)
        run_dir = tmp_path / "runs" / record.run_id
        _, rows = read_rows(run_dir / "dressed_lines.csv")
        at_100 = [r for r in rows if float(r["n_photons"]) == 100.0][0]
        assert float(at_100["f_ge_red_hz"]) == pytest.approx(6.163e9 - 8.1e6, abs=1.0)
        assert float(at_100["f_ge_blue_hz"]) == pytest.approx(6.163e9 + 3.9e6, abs=1.0)


class TestReproducibility:
    def test_pinned_run_id_reproduces_outputs_byte_for_byte(self, tmp_path):
        config = io.load_config(None)
        config["noise"]["sigma"] = 1e-3
        rec = cli.run_command("synth", config, out_dir=tmp_path / "a",
                              seed=9, run_id="fixed-id")
        cli.run_command("synth", config, out_dir=tmp_path / "b",
                        seed=9, run_id="fixed-id")
        for name in ("meas.csv", "hd.csv", "truth.json", "lines.csv"):
            a = (tmp_path / "a" / "runs" / "fixed-id" / name).read_bytes()
            b = (tmp_path / "b" / "runs" / "fixed-id" / name).read_bytes()
            assert a == b
        assert rec.run_id == "fixed-id"

    def test_outputs_reference_run_id(self, tmp_path):
        rec = cli.run_command("synth", None, out_dir=tmp_path, seed=1)
        run_dir = tmp_path / "runs" / rec.run_id
        assert (run_dir / "meas.csv").read_text().startswith(f"# run: {rec.run_id}")
        record = io.load_run_record(run_dir / "run.json")
        assert record.tool_version == io.TOOL_VERSION
        assert set(record.outputs) == {
            str(run_dir / n)
            for n in ("meas.csv", "hd.csv", "truth.json", "lines.csv")}


class TestMainEntry:
    def test_success_exit_code(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path), "--seed", "1", "simulate"])
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_unknown_config_key_gives_machine_readable_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nbogus = 1\n")
        code = cli.main(["--config", str(bad), "--out", str(tmp_path), "simulate"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "bogus" in err["message"]

    @pytest.mark.parametrize("text", [
        "[model]\ngamma_a_hz = 1e6\ngamma_a_hz = 2e6\n",  # duplicate key
        "gamma_a_hz = 1e6\n",  # no section header
        b"[model]\ngamma_a_hz = \xff\xfe\n",  # not UTF-8
        "[noise]\nsigma = nan\n",  # not a finite number
        "[lines]\nripple_db = inf\n",
    ])
    def test_malformed_config_gives_machine_readable_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = cli.main(["--config", str(bad), "--out", str(tmp_path), "simulate"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert str(bad) in err["message"]

    def test_report_on_incomplete_fit_file_names_missing_key(self, tmp_path, capsys):
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps({"converged": True, "n_iter": 5}))
        code = cli.main(["--out", str(tmp_path), "report", str(fit)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert str(fit) in err["message"]
        assert "'params'" in err["message"]

    FIT = {"converged": True, "n_iter": 5, "residual_norm": 1e-3,
           "params": dict.fromkeys(("gamma_a", "gamma_b", "omega_ge", "phi_a", "phi_b"), 1.0),
           "sigma": dict.fromkeys(("gamma_a", "gamma_b", "omega_ge", "phi_a", "phi_b"), 0.1)}

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        json.dumps({**FIT, "params": 3}),
        json.dumps({**FIT, "sigma": "wide"}),
        json.dumps({**FIT, "residual_norm": "small"}),
        '{"converged": tru',
    ], ids=["list", "params-int", "sigma-str", "residual-norm-str", "invalid-json"])
    def test_report_on_malformed_fit_file_gives_parse_error(self, tmp_path, capsys, text):
        fit = tmp_path / "fit.json"
        fit.write_text(text)
        code = cli.main(["--out", str(tmp_path), "report", str(fit)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert str(fit) in err["message"]

    @pytest.mark.parametrize("fmt", ["csv", "s4p"])
    def test_directory_input_gives_machine_readable_error(self, tmp_path, capsys, fmt):
        folder = tmp_path / "spectra"
        folder.mkdir()
        code = cli.main(["--out", str(tmp_path), "--format", fmt,
                         "calibrate", str(folder), str(folder)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IsADirectoryError"
        assert str(folder) in err["message"]

    def test_oversized_csv_field_gives_parse_error(self, tmp_path, capsys):
        # csv.reader refuses fields beyond its 131072-character limit
        big = tmp_path / "big.csv"
        big.write_text("freq_hz,channel,re,im\n1e9,AA," + "1" * 200_000 + ",0.0\n")
        code = cli.main(["--out", str(tmp_path), "fit", str(big)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert str(big) in err["message"]

    def test_fit_error_reported_machine_readably(self, tmp_path, capsys):
        # a power grid narrower than two decades cannot support the
        # saturation fit; the failure must surface as a JSON summary
        conf = tmp_path / "narrow.ini"
        conf.write_text("[grid]\nnavg_min = 1.0\nnavg_max = 10.0\n")
        code = cli.main(["--config", str(conf), "--out", str(tmp_path), "sweep-power"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FitError"

    def test_env_overrides_config_and_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROUTERCELL_SEED", "123")
        monkeypatch.setenv("ROUTERCELL_OUT", str(tmp_path / "envout"))
        assert cli.main(["synth"]) == 0
        runs = list((tmp_path / "envout" / "runs").iterdir())
        assert len(runs) == 1
        record = io.load_run_record(runs[0] / "run.json")
        assert record.seed == 123

        flag_out = tmp_path / "flagout"
        assert cli.main(["--seed", "77", "--out", str(flag_out), "synth"]) == 0
        record = io.load_run_record(next((flag_out / "runs").iterdir()) / "run.json")
        assert record.seed == 77

    def test_all_subcommands_registered(self):
        parser = cli.build_parser()
        for name in cli.SUBCOMMANDS:
            assert name in parser.format_help()
