"""File formats: CSV round trips, touchstone ingestion, config validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from routercell import io, model
from routercell.calibration import ChannelSpectrum

TWO_PI = 2.0 * math.pi
FREQS = np.linspace(6.14e9, 6.19e9, 37)


def sample_spectrum(**meta):
    rng = np.random.default_rng(1)
    traces = {
        ch: rng.standard_normal(FREQS.size) + 1j * rng.standard_normal(FREQS.size)
        for ch in model.CHANNELS
    }
    return ChannelSpectrum(FREQS, traces, **meta)


class TestCsvRoundTrip:
    def test_lossless_identity(self, tmp_path):
        spectrum = sample_spectrum()
        path = tmp_path / "spec.csv"
        io.write_spectrum(spectrum, path)
        back = io.ingest_spectrum(path)
        assert np.array_equal(back.freqs, spectrum.freqs)
        for ch in model.CHANNELS:
            assert np.array_equal(back.channel(ch), spectrum.channel(ch))

    def test_metadata_round_trip(self, tmp_path):
        spectrum = sample_spectrum(bias_ma=0.25, power_dbm=-140.0, temp_k=0.01)
        path = tmp_path / "spec.csv"
        io.write_spectrum(spectrum, path, run_id="test-run")
        back = io.ingest_spectrum(path)
        assert back.bias_ma == 0.25
        assert back.power_dbm == -140.0
        assert back.temp_k == 0.01
        assert path.read_text().startswith("# run: test-run\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            io.ingest_spectrum(tmp_path / "nope.csv")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def spectra(draw, with_meta=True):
    """Finite four-channel spectra on strictly increasing grids, metadata optional."""
    freqs = draw(st.lists(FINITE, min_size=1, max_size=12, unique=True).map(sorted))
    traces = draw(arrays(complex, (len(model.CHANNELS), len(freqs)),
                         elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
    meta = {}
    if with_meta:
        meta = {key: draw(st.none() | FINITE) for key in ("bias_ma", "power_dbm", "temp_k")}
    return ChannelSpectrum(np.array(freqs), traces, **meta)


def assert_same_spectrum(back, spectrum):
    assert back.freqs.tobytes() == spectrum.freqs.tobytes()
    assert back.traces.tobytes() == spectrum.traces.tobytes()
    for key in ("bias_ma", "power_dbm", "temp_k"):
        assert getattr(back, key) == getattr(spectrum, key)


class TestRoundTripProperties:
    @ROUND_TRIP_SETTINGS
    @given(spectra())
    def test_csv_round_trip_is_exact(self, tmp_path_factory, spectrum):
        path = tmp_path_factory.mktemp("csv") / "spec.csv"
        io.write_spectrum(spectrum, path)
        assert_same_spectrum(io.ingest_spectrum(path), spectrum)

    @ROUND_TRIP_SETTINGS
    @given(spectra(with_meta=False))
    def test_touchstone_round_trip_is_exact(self, tmp_path_factory, spectrum):
        path = tmp_path_factory.mktemp("s4p") / "spec.s4p"
        io.write_touchstone(path, spectrum.freqs, io.spectrum_to_smatrix(spectrum))
        assert_same_spectrum(io.ingest_spectrum(path, fmt="s4p"), spectrum)

    @ROUND_TRIP_SETTINGS
    @given(spectra())
    def test_mapping_and_array_forms_agree(self, spectrum):
        # stacked by channel name, whatever the mapping's key order
        mapping = dict(reversed(spectrum.channels.items()))
        mapped = ChannelSpectrum(spectrum.freqs, mapping)
        assert mapped.traces.tobytes() == spectrum.traces.tobytes()


class TestCsvErrors:
    HEADER = "freq_hz,channel,re,im\n"

    def write(self, tmp_path, body, header=None):
        path = tmp_path / "bad.csv"
        path.write_text((self.HEADER if header is None else header) + body)
        return path

    def test_malformed_header(self, tmp_path):
        path = self.write(tmp_path, "", header="frequency,ch,re,im\n")
        with pytest.raises(io.ParseError, match="header"):
            io.ingest_spectrum(path)

    def test_duplicate_frequency_names_line(self, tmp_path):
        rows = "".join(
            f"{f},{ch},1.0,0.0\n"
            for ch in model.CHANNELS
            for f in (1e9, 1e9, 2e9)
        )
        path = self.write(tmp_path, rows)
        with pytest.raises(io.ParseError, match="line 3"):
            io.ingest_spectrum(path)

    def test_non_monotone_frequency(self, tmp_path):
        rows = "".join(
            f"{f},{ch},1.0,0.0\n"
            for ch in model.CHANNELS
            for f in (2e9, 1e9)
        )
        path = self.write(tmp_path, rows)
        with pytest.raises(io.ParseError, match="non-monotone"):
            io.ingest_spectrum(path)

    def test_channel_count_mismatch(self, tmp_path):
        rows = "1e9,AA,1.0,0.0\n2e9,AA,1.0,0.0\n1e9,BB,1.0,0.0\n"
        rows += "1e9,AB,1.0,0.0\n2e9,AB,1.0,0.0\n1e9,BA,1.0,0.0\n2e9,BA,1.0,0.0\n"
        path = self.write(tmp_path, rows)
        with pytest.raises(io.ParseError, match="row counts"):
            io.ingest_spectrum(path)

    def test_unknown_channel_names_line(self, tmp_path):
        path = self.write(tmp_path, "1e9,XX,1.0,0.0\n")
        with pytest.raises(io.ParseError, match="line 2"):
            io.ingest_spectrum(path)

    def test_non_finite_rows_dropped_with_warning(self, tmp_path):
        rows = []
        for ch in model.CHANNELS:
            rows.append(f"1e9,{ch},1.0,0.0")
            rows.append(f"2e9,{ch},{'nan' if ch == 'BB' else '1.0'},0.0")
            rows.append(f"3e9,{ch},1.0,0.0")
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match="dropped 1"):
            back = io.ingest_spectrum(path)
        assert len(back) == 2
        assert np.array_equal(back.freqs, [1e9, 3e9])


class TestTouchstone:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        freqs = np.linspace(1e9, 2e9, 5)
        path = tmp_path / "cell.s4p"
        io.write_touchstone(path, freqs, s)
        freqs2, s2 = io.read_touchstone(path)
        assert np.array_equal(freqs2, freqs)
        assert np.array_equal(s2, s)

    def test_channel_port_map(self, tmp_path):
        # ports: 1=A-in, 2=A-out, 3=B-in, 4=B-out; channels are
        # output<-input entries of the matrix
        spectrum = sample_spectrum()
        s = io.spectrum_to_smatrix(spectrum)
        path = tmp_path / "cell.s4p"
        io.write_touchstone(path, spectrum.freqs, s)
        back = io.ingest_spectrum(path, fmt="s4p")
        for ch in model.CHANNELS:
            assert np.array_equal(back.channel(ch), spectrum.channel(ch))

    def test_ma_format_and_units(self, tmp_path):
        path = tmp_path / "ma.s4p"
        entries = []
        for f_ghz in (1.0, 2.0):
            vals = " ".join("0.5 45.0" for _ in range(16))
            entries.append(f"{f_ghz} {vals}")
        path.write_text("# GHz S MA R 50\n" + "\n".join(entries) + "\n")
        freqs, s = io.read_touchstone(path)
        assert np.array_equal(freqs, [1e9, 2e9])
        assert s[0, 0, 0] == pytest.approx(0.5 * np.exp(1j * np.pi / 4))

    def test_malformed_data_raises(self, tmp_path):
        path = tmp_path / "bad.s4p"
        path.write_text("# HZ S RI R 50\n1e9 0.1 0.2 0.3\n")
        with pytest.raises(io.ParseError):
            io.read_touchstone(path)


class TestConfig:
    def test_defaults_build_valid_models(self):
        config = io.load_config(None)
        cell = io.cell_params_from_config(config)
        assert cell.gamma_a == pytest.approx(TWO_PI * 1.82e6)
        flux = io.flux_model_from_config(config)
        assert flux.curvature == pytest.approx(-TWO_PI * 352e6)

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[model]\ngamma_a_hz = 2.0e6\n\n[run]\nseed = 42\n")
        config = io.load_config(path)
        assert config["model"]["gamma_a_hz"] == 2.0e6
        assert config["model"]["gamma_b_hz"] == 2.31e6
        assert config["run"]["seed"] == 42

    def test_unknown_key_is_fatal(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[model]\ngamma_c_hz = 1e6\n")
        with pytest.raises(io.ConfigError, match="gamma_c_hz"):
            io.load_config(path)

    def test_unknown_section_is_fatal(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(io.ConfigError, match="mystery"):
            io.load_config(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[grid]\nn_points = many\n")
        with pytest.raises(io.ConfigError, match="integer"):
            io.load_config(path)


class TestRunRecord:
    def test_save_and_load(self, tmp_path):
        record = io.RunRecord(
            run_id="20260101T000000-abcd1234", subcommand="simulate",
            tool_version=io.TOOL_VERSION, seed=7, config={"run": {"seed": 7}},
            input_digests={}, outputs=["spectrum.csv"],
        )
        io.save_run_record(record, tmp_path)
        back = io.load_run_record(tmp_path / "run.json")
        assert back == record

    def test_run_id_depends_on_config_and_seed(self):
        base = io.load_config(None)
        a = io.new_run_id(base, 1, "simulate").split("-")[1]
        b = io.new_run_id(base, 2, "simulate").split("-")[1]
        c = io.new_run_id(base, 1, "synth").split("-")[1]
        assert a != b and a != c

    def test_file_digest_changes_with_content(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("one")
        d1 = io.file_digest(p)
        p.write_text("two")
        assert io.file_digest(p) != d1


class TestLineModelFile:
    def test_constant_lines_round_trip(self, tmp_path):
        from routercell import synth
        lines = synth.gen_lines(synth.LineSpec(jitter_db=0.7), seed=6)
        path = tmp_path / "lines.csv"
        io.write_line_model(lines, path)
        back, freqs = io.read_line_model(path)
        assert freqs is None
        for a, b in zip(back.matrices, lines.matrices):
            assert np.array_equal(a, b)
        assert back.isolation == lines.isolation

    def test_per_frequency_lines_round_trip(self, tmp_path):
        from routercell import synth
        freqs = np.linspace(6.1e9, 6.2e9, 9)
        lines = synth.gen_lines(synth.LineSpec(ripple_db=0.4), seed=7, freqs=freqs)
        path = tmp_path / "lines.csv"
        io.write_line_model(lines, path, freqs=freqs)
        back, freqs2 = io.read_line_model(path)
        assert np.array_equal(freqs2, freqs)
        assert back.n_points == 9
        for a, b in zip(back.matrices, lines.matrices):
            assert np.array_equal(np.broadcast_to(a, b.shape), np.broadcast_to(b, a.shape))

    def test_malformed_element_rejected(self, tmp_path):
        path = tmp_path / "lines.csv"
        header = ",".join(["freq_hz", "element"] + [f"s{i}{j}_{p}" for i in (1, 2)
                          for j in (1, 2) for p in ("re", "im")] + ["iso_re", "iso_im"])
        path.write_text(header + "\n" + ",bogus" + ",0.0" * 10 + "\n")
        with pytest.raises(io.ParseError, match="bogus"):
            io.read_line_model(path)
