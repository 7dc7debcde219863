"""Command-line pipelines: outputs, records, reproducibility, error paths."""

import json
import math
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from routercell import calibration, cli, io, model, presets, runs

from touchstone_fixture import spectrum_to_smatrix, write_touchstone

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
        config = runs.load_config(None)
        cell = presets.cell_params_from_config(config)
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
        config = runs.load_config(None)
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

    def test_leakage_in_the_noise_still_recovers_the_model(self, tmp_path):
        # at -40 dB the isolation leakage sinks into sigma = 0.01; a cross scale
        # built on the leakage alone once fitted gamma_a = 2pi * 0.66 MHz here,
        # converged and unflagged
        config = runs.load_config(None)
        config["lines"]["isolation_db"] = -40.0
        config["noise"]["sigma"] = 0.01
        run_root = tmp_path / "runs"
        chain = {"synth": [], "calibrate": [run_root / "synth" / "meas.csv", run_root / "synth" / "hd.csv"],
                 "fit": [run_root / "calibrate" / "calibrated.csv"], "report": [run_root / "fit"]}
        for step, inputs in chain.items():
            cli.run_command(step, config, inputs, out_dir=tmp_path, seed=0, run_id=step)

        payload = json.loads((run_root / "fit" / "fit.json").read_text())
        assert payload["converged"] and payload["flags"] == []
        truth = presets.cell_params_from_config(config)
        for name in ("gamma_a", "gamma_b", "omega_ge", "phi_a", "phi_b"):
            error = payload["params"][name] - getattr(truth, name)
            assert abs(error) < 5 * payload["sigma"][name], name
        assert "converged: True" in (run_root / "report" / "report.txt").read_text()

    def test_calibrate_requires_two_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="two inputs"):
            cli.run_command("calibrate", None, ["only-one.csv"], out_dir=tmp_path)


class TestSweeps:
    def test_bias_sweep_ridge_follows_flux_polynomial(self, tmp_path):
        config = runs.load_config(None)
        config["grid"].update(n_points=201, n_bias=9,
                              f_start_hz=6.05e9, f_stop_hz=6.18e9)
        record = cli.run_command("sweep-bias", config, out_dir=tmp_path, seed=2)
        run_dir = tmp_path / "runs" / record.run_id
        _, rows = read_rows(run_dir / "efficiency_map.csv")
        flux = presets.flux_model_from_config(config)
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
        # gamma_phi_0's column is ~1e-25 of s_i's, yet both are identified
        for fit in ("e_polynomial", "flux_noise"):
            assert fits[fit]["flags"] == []
            assert all(math.isfinite(v) for v in fits[fit]["sigma"].values())

    def test_temp_sweep_recovers_thermal_coefficients(self, tmp_path):
        record = cli.run_command("sweep-temp", None, out_dir=tmp_path, seed=3)
        run_dir = tmp_path / "runs" / record.run_id
        with (run_dir / "thermal_fit.json").open() as fh:
            fits = json.load(fh)
        assert fits["fit_hz"]["gamma1_zero_hz"] == pytest.approx(0.26e6, rel=0.01)
        assert fits["fit_hz"]["gamma_phi_zero_hz"] == pytest.approx(10.38e6, rel=0.01)

    def test_temp_sweep_fits_through_noisy_efficiencies_at_or_below_zero(self, tmp_path):
        # at sigma = 0.05, seed 0 draws an efficiency of -0.0044 at the hot end
        conf = tmp_path / "noisy.ini"
        conf.write_text("[noise]\nsigma = 0.05\n")
        code = cli.main(["--config", str(conf), "--out", str(tmp_path), "--seed", "0",
                         "--run-id", "hot", "sweep-temp"])
        assert code == 0
        fits = json.loads((tmp_path / "runs" / "hot" / "thermal_fit.json").read_text())
        _, rows = read_rows(tmp_path / "runs" / "hot" / "thermal.csv")
        assert min(float(row["e_res"]) for row in rows) < 0
        assert fits["fit"]["converged"] and fits["fit"]["flags"] == []
        assert fits["fit_hz"]["gamma_phi_zero_hz"] == pytest.approx(10.38e6, rel=0.1)

    def test_temp_sweep_fit_stops_on_a_rejected_step_at_its_minimum(self, tmp_path):
        # this noisy config's thermal fit reaches its minimum at evaluation 4; the
        # fifth is a rejected step whose cost change and predicted reduction are both
        # below TOL * cost, which ends the fit (a sixth used to wait for the step rule)
        conf = tmp_path / "noisy.ini"
        conf.write_text("[model]\nphi_a_rad = -0.19\nphi_b_rad = 0.16\n"
                        "gamma_phi_hz = 0.1e6\ngamma_bath_hz = 0.05e6\n"
                        "[flux]\nlinear_hz_per_ma = 20e6\n[noise]\nsigma = 1e-3\n")
        code = cli.main(["--config", str(conf), "--out", str(tmp_path), "--seed", "9",
                         "--run-id", "flat", "sweep-temp"])
        assert code == 0
        fit = json.loads((tmp_path / "runs" / "flat" / "thermal_fit.json").read_text())["fit"]
        assert fit["converged"] and fit["flags"] == []
        assert fit["n_iter"] == 5

    def test_power_sweep_saturation_fits(self, tmp_path):
        record = cli.run_command("sweep-power", None, out_dir=tmp_path, seed=4)
        run_dir = tmp_path / "runs" / record.run_id
        with (run_dir / "saturation_fit.json").open() as fh:
            fits = json.load(fh)["fits"]
        assert fits["AA"]["params"]["a"] == pytest.approx(1.0, abs=1e-6)
        assert fits["AB"]["params"]["a"] == pytest.approx(0.0, abs=1e-6)
        assert fits["AA"]["params"]["c"] == pytest.approx(1.0, abs=0.01)

    def test_power_sweep_weak_drive_level_is_the_model_response(self, tmp_path):
        config = runs.load_config(None)
        config["model"]["gamma_phi_hz"] = 0.5e6
        config["model"]["phi_a_rad"] = 0.2
        record = cli.run_command("sweep-power", config, out_dir=tmp_path, seed=4)
        _, rows = read_rows(tmp_path / "runs" / record.run_id / "saturation.csv")
        cell = presets.cell_params_from_config(config)
        resonant = dict(zip(model.CHANNELS, model.cell_coefficients(cell.omega_ge, cell)))
        for ch in model.CHANNELS:
            first = [r for r in rows if r["channel"] == ch][0]
            n, level = float(first["n_avg"]), float(first["magnitude"])
            high = 1.0 if ch in ("AA", "BB") else 0.0
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


#: Every subcommand's output files, in the order run.json lists them.
OUTPUTS = {
    "simulate": ["spectrum.csv", "magphase.csv"],
    "synth": ["meas.csv", "hd.csv", "truth.json", "lines.csv"],
    "calibrate": ["calibrated.csv"],
    "fit": ["fit.json"],
    "sweep-bias": ["efficiency_map.csv", "resonant_efficiency.csv",
                   "gamma_phi_vs_bias.csv", "bias_fit.json"],
    "sweep-temp": ["thermal.csv", "thermal_fit.json"],
    "sweep-power": ["saturation.csv", "saturation_fit.json"],
    "dressed": ["dressed_lines.csv"],
    "report": ["report.txt"],
}


def noisy_config():
    config = runs.load_config(None)
    config["noise"]["sigma"] = 1e-3
    return config


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory):
    """Inputs of the subcommands that take files, from one synth-calibrate-fit chain."""
    out = tmp_path_factory.mktemp("chain")
    run_root = out / "runs"
    inputs = {
        "calibrate": [run_root / "synth" / "meas.csv", run_root / "synth" / "hd.csv"],
        "fit": [run_root / "calibrate" / "calibrated.csv"],
        "report": [run_root / "fit"],
    }
    for step in ("synth", "calibrate", "fit"):
        cli.run_command(step, noisy_config(), inputs.get(step, []), out_dir=out,
                        seed=9, run_id=step)
    return inputs


class TestReproducibility:
    @pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
    def test_pinned_run_id_reproduces_outputs_byte_for_byte(self, tmp_path, chain_inputs,
                                                            subcommand):
        run_dirs = [tmp_path / side / "runs" / "fixed-id" for side in ("a", "b")]
        for run_dir in run_dirs:
            rec = cli.run_command(subcommand, noisy_config(), chain_inputs.get(subcommand, []),
                                  out_dir=run_dir.parents[1], seed=9, run_id="fixed-id")
            assert rec.run_id == "fixed-id"
            written = [str(run_dir / name) for name in OUTPUTS[subcommand]]
            record = runs.RunRecord(**json.loads((run_dir / "run.json").read_text()))
            assert record.outputs == written
            assert sorted(p.name for p in run_dir.iterdir()) == sorted(
                OUTPUTS[subcommand] + ["run.json"])
        for name in OUTPUTS[subcommand]:
            assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()

    def test_outputs_reference_run_id(self, tmp_path):
        rec = cli.run_command("synth", None, out_dir=tmp_path, seed=1)
        run_dir = tmp_path / "runs" / rec.run_id
        assert (run_dir / "meas.csv").read_text().startswith(f"# run: {rec.run_id}")
        record = runs.RunRecord(**json.loads((run_dir / "run.json").read_text()))
        assert record.tool_version == runs.TOOL_VERSION
        assert set(record.outputs) == {
            str(run_dir / n)
            for n in ("meas.csv", "hd.csv", "truth.json", "lines.csv")}


    @staticmethod
    def same_second(monkeypatch):
        """Give every default run id the same time stamp, as two runs within a second get."""
        monkeypatch.setattr(runs, "time", SimpleNamespace(strftime=lambda fmt: "20260101T000000"))

    def test_default_run_ids_differ_for_different_input_files(self, tmp_path, monkeypatch):
        self.same_second(monkeypatch)
        sources = tmp_path / "sources" / "runs"
        for seed in (1, 2):
            cli.run_command("synth", noisy_config(), out_dir=sources.parent, seed=seed,
                            run_id=f"s{seed}")
        inputs = [[str(sources / f"s{seed}" / name) for name in ("meas.csv", "hd.csv")]
                  for seed in (1, 2)]
        records = [cli.run_command("calibrate", noisy_config(), paths, out_dir=tmp_path, seed=0)
                   for paths in inputs]
        assert records[0].run_id != records[1].run_id
        for record, paths in zip(records, inputs):
            saved = runs.RunRecord(**json.loads(
                (tmp_path / "runs" / record.run_id / "run.json").read_text()))
            assert saved.input_digests == {p: runs.file_digest(p) for p in paths}

    def test_default_run_ids_differ_for_different_input_directories(self, tmp_path, monkeypatch,
                                                                     chain_inputs):
        self.same_second(monkeypatch)
        fit_json = (chain_inputs["report"][0] / "fit.json").read_bytes()
        fit_dirs = [tmp_path / "fits" / side for side in ("a", "b")]
        for fit_dir in fit_dirs:
            fit_dir.mkdir(parents=True)
            (fit_dir / "fit.json").write_bytes(fit_json)
        records = [cli.run_command("report", noisy_config(), [fit_dir], out_dir=tmp_path, seed=0)
                   for fit_dir in fit_dirs]
        assert records[0].run_id != records[1].run_id
        for record in records:
            assert (tmp_path / "runs" / record.run_id / "report.txt").is_file()


class TestMainEntry:
    def test_success_exit_code(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path), "--seed", "1", "simulate"])
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_blas_threads_pinned_unless_set(self, tmp_path, monkeypatch, preset, expected):
        # setenv first, so that teardown restores the variable whatever main does to it
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        (tmp_path / "fit.json").write_text(json.dumps(self.FIT))
        assert cli.main(["--out", str(tmp_path), "report", str(tmp_path / "fit.json")]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == expected

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

    @pytest.mark.parametrize("name", ["spectra", "spectra.s4p"], ids=["csv", "s4p"])
    def test_directory_input_gives_machine_readable_error(self, tmp_path, capsys, name):
        folder = tmp_path / name
        folder.mkdir()
        code = cli.main(["--out", str(tmp_path), "calibrate", str(folder), str(folder)])
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

    def test_fit_of_a_spectrum_without_resonance_fails(self, tmp_path, capsys):
        # ideal flat channels leave the start's pole undetermined
        freqs = np.linspace(6.1e9, 6.2e9, 101)
        flat = tmp_path / "flat.csv"
        io.write_spectrum(calibration.ChannelSpectrum(freqs, np.outer([1, 1, 0, 0], np.ones(101))),
                          flat)
        code = cli.main(["--out", str(tmp_path), "fit", str(flat)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FitError"
        assert "flat" in err["message"]

    @pytest.mark.parametrize("n_temp", [0, 1, 2])
    def test_temp_sweep_with_fewer_than_three_temperatures_fails(self, tmp_path, capsys,
                                                                 n_temp):
        # two rates need three temperatures; fewer once wrote converged fits
        conf = tmp_path / "few.ini"
        conf.write_text(f"[grid]\nn_temp = {n_temp}\n")
        code = cli.main(["--config", str(conf), "--out", str(tmp_path), "sweep-temp"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FitError"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("subcommand", ["sweep-temp", "sweep-power"])
    def test_negative_noise_sigma_is_refused(self, tmp_path, capsys, subcommand):
        conf = tmp_path / "neg.ini"
        conf.write_text("[noise]\nsigma = -1e-3\n")
        code = cli.main(["--config", str(conf), "--out", str(tmp_path), subcommand])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "[noise] sigma" in err["message"] and "-0.001" in err["message"]
        assert not (tmp_path / "runs").exists()

    def test_flag_overrides_config(self, tmp_path):
        conf = tmp_path / "run.ini"
        conf.write_text(f"[run]\nseed = 123\nout = {tmp_path / 'confout'}\n")
        assert cli.main(["--config", str(conf), "synth"]) == 0
        run_dirs = list((tmp_path / "confout" / "runs").iterdir())
        assert len(run_dirs) == 1
        record = runs.RunRecord(**json.loads((run_dirs[0] / "run.json").read_text()))
        assert record.seed == 123

        flag_out = tmp_path / "flagout"
        assert cli.main(["--config", str(conf), "--seed", "77", "--out", str(flag_out),
                         "synth"]) == 0
        run_json = next((flag_out / "runs").iterdir()) / "run.json"
        record = runs.RunRecord(**json.loads(run_json.read_text()))
        assert record.seed == 77
        assert len(list((tmp_path / "confout" / "runs").iterdir())) == 1

    def test_run_command_falls_back_to_run_section(self, tmp_path):
        config = runs.load_config(None)
        config["run"].update(seed=5, out=str(tmp_path / "confout"))
        record = cli.run_command("dressed", config, out_dir=None, run_id="r")
        assert record.seed == 5
        assert record.outputs == [str(tmp_path / "confout" / "runs" / "r" / "dressed_lines.csv")]

    def test_touchstone_and_csv_inputs_mix(self, tmp_path, chain_inputs):
        meas_csv, hd_csv = map(str, chain_inputs["calibrate"])
        meas = io.ingest_spectrum(meas_csv)
        meas_s4p = tmp_path / "meas.s4p"
        write_touchstone(meas_s4p, meas.freqs, spectrum_to_smatrix(meas))
        outputs = []
        for side, meas_path in (("csv", meas_csv), ("mixed", str(meas_s4p))):
            out = tmp_path / side
            assert cli.main(["--out", str(out), "--run-id", "r", "calibrate",
                             meas_path, hd_csv]) == 0
            outputs.append((out / "runs" / "r" / "calibrated.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_readme_usage_lists_the_parser_flags(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        usage = readme.split("## Command line", 1)[1].split("```", 2)[1]
        flags = {opt for action in cli.build_parser()._actions for opt in action.option_strings}
        assert set(re.findall(r"--[a-z-]+", usage)) == flags - {"-h", "--help"}

    @pytest.mark.parametrize("argv", [
        *([name, "stray.csv"] for name in
          ("simulate", "synth", "sweep-bias", "sweep-temp", "sweep-power", "dressed")),
        ["fit", "a.csv", "b.csv"],
    ], ids=lambda argv: " ".join(argv))
    def test_wrong_input_count_is_refused_before_the_run(self, tmp_path, capsys, argv):
        # the files exist, so a run that went ahead would digest them as read
        inputs = [tmp_path / name for name in argv[1:]]
        for path in inputs:
            path.write_text("freq_hz,channel,re,im\n")
        code = cli.main(["--out", str(tmp_path / "out"), argv[0], *map(str, inputs)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{argv[0]} takes ")
        assert err["message"].endswith(f", got {len(inputs)}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["dressed", "synth"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_refused_before_the_run(self, tmp_path, capsys, source,
                                                     subcommand):
        # dressed once ran and recorded seed -1; synth failed inside numpy
        out = tmp_path / "out"
        if source == "flag":
            argv = ["--seed", "-1"]
        else:
            conf = tmp_path / "run.ini"
            conf.write_text("[run]\nseed = -1\n")
            argv = ["--config", str(conf)]
        assert cli.main([*argv, "--out", str(out), subcommand]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "seed -1 is negative; the campaign seed is unsigned"}
        assert not out.exists()

    @pytest.mark.parametrize("run_id, altsep", [
        ("", os.altsep), (".", os.altsep), ("..", os.altsep), ("../../esc", os.altsep),
        ("a/b", os.altsep), (f"a{os.sep}b", os.altsep), ("a\\b", "\\"),
        ("x\nfreq_hz,channel,re,im", os.altsep), ("x\u2028y", os.altsep),
    ], ids=["empty", "dot", "dotdot", "parent-escape", "slash", "sep", "altsep", "newline",
            "line-separator"])
    def test_run_id_outside_one_directory_is_refused(self, tmp_path, capsys, monkeypatch,
                                                     run_id, altsep):
        # os.altsep is None on POSIX, so the backslash case sets one for itself
        monkeypatch.setattr(os, "altsep", altsep)
        out = tmp_path / "o" / "x"
        assert cli.main(["--out", str(out), "--run-id", run_id, "dressed"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"run id {run_id!r} is not a single directory name"}
        assert list(tmp_path.iterdir()) == []

    def test_all_subcommands_registered(self):
        parser = cli.build_parser()
        for name in cli.SUBCOMMANDS:
            assert name in parser.format_help()
