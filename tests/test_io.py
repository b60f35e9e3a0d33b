"""File formats: recording container, hypnograms, trigger logs, config
files. Round-trips and rejection of malformed input."""
import functools
import math
import struct
from dataclasses import astuple, fields

import numpy as np
import pytest

from swphase.dsp import PreprocessChain
from swphase.errors import ConfigurationError, FileFormatError
from swphase.gate import GateConfig
from swphase.io import (
    MAGIC,
    TRIGGER_COLUMNS,
    apply_config,
    config_echo,
    hash_file,
    parse_config_echo,
    parse_stage_runs,
    read_config,
    read_hypnogram,
    read_recording,
    read_recording_binary,
    read_recording_csv,
    read_trigger_log,
    write_hypnogram,
    write_recording,
    write_recording_binary,
    write_recording_csv,
    write_trigger_log,
)
from swphase.pipeline import LoggedTrigger, run_session
from swphase.recording import EegRecording
from swphase.synth import SynthSpec, generate
from swphase.trackers import ALGORITHMS, TrackerConfig, TriggerEvent, make_tracker


def sample_recording(n=1000, label="EEG Fpz-Cz", start=12.5):
    rng = np.random.default_rng(3)
    samples = np.asarray(rng.normal(0.0, 40.0, n), dtype=np.float32).astype(float)
    return EegRecording(samples=samples, fs=250.0, label=label, start_time=start)


class TestRecordingBinary:
    def test_header_bytes(self, tmp_path):
        path = tmp_path / "rec.swp"
        write_recording_binary(path, EegRecording(samples=np.array([1.0]), fs=250.0,
                                                  label="C3", start_time=2.5))
        assert path.read_bytes() == bytes.fromhex(
            "53575048" "0100" "0000000000406f40" "0200" "4333"
            "0100000000000000" "0000000000000440" "0000803f")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rec.swp"
        rec = sample_recording()
        write_recording_binary(path, rec)
        back = read_recording_binary(path)
        assert back.fs == rec.fs
        assert back.label == rec.label
        assert back.start_time == rec.start_time
        np.testing.assert_array_equal(back.samples, rec.samples)

    def test_body_is_float32(self, tmp_path):
        path = tmp_path / "rec.swp"
        rec = EegRecording(samples=np.array([1.0 / 3.0]), fs=250.0)
        write_recording_binary(path, rec)
        back = read_recording_binary(path)
        assert back.samples[0] == np.float32(1.0 / 3.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "rec.swp"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FileFormatError, match="magic"):
            read_recording_binary(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "rec.swp"
        rec = sample_recording(10)
        write_recording_binary(path, rec)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="version"):
            read_recording_binary(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "rec.swp"
        write_recording_binary(path, sample_recording(100))
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(FileFormatError, match="truncated"):
            read_recording_binary(path)

    @pytest.mark.parametrize("size", [3, 17, 25])
    def test_truncated_header_names_the_file(self, tmp_path, size):
        path = tmp_path / "rec.swp"
        write_recording_binary(path, sample_recording(10, label="C3"))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(FileFormatError, match=r"rec\.swp: truncated"):
            read_recording_binary(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "rec.swp"
        write_recording_binary(path, sample_recording(100))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FileFormatError, match="trailing"):
            read_recording_binary(path)


    def test_count_past_the_file_is_refused_before_reading(self, tmp_path):
        path = tmp_path / "rec.swp"
        write_recording_binary(path, sample_recording(10, label=""))
        raw = bytearray(path.read_bytes())
        raw[16:24] = struct.pack("<Q", 2 ** 62)   # count follows the empty label
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="truncated"):
            read_recording_binary(path)

    @pytest.mark.parametrize("fs", [-250.0, 0.0, math.nan, math.inf])
    def test_bad_sampling_rate_in_header(self, tmp_path, fs):
        path = tmp_path / "rec.swp"
        write_recording_binary(path, sample_recording(10))
        raw = bytearray(path.read_bytes())
        raw[6:14] = struct.pack("<d", fs)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="sampling rate"):
            read_recording(path)


class TestRecordingValidation:
    @pytest.mark.parametrize("fs", [-250.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_sampling_rate(self, fs):
        with pytest.raises(ConfigurationError, match="sampling rate"):
            EegRecording(samples=np.zeros(10), fs=fs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        samples = np.zeros(10)
        samples[7] = bad
        with pytest.raises(ConfigurationError, match="non-finite sample at index 7"):
            EegRecording(samples=samples, fs=250.0)

    def test_rejects_samples_that_are_not_1d(self):
        with pytest.raises(ConfigurationError, match="1-D"):
            EegRecording(samples=np.zeros((2, 10)), fs=250.0)

    def test_csv_rate_is_checked_too(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("# fs=-250\n1.0\n")
        with pytest.raises(FileFormatError, match="rec.csv: sampling rate"):
            read_recording(path)


class TestRecordingCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rec.csv"
        rec = sample_recording(200)
        write_recording_csv(path, rec)
        back = read_recording_csv(path)
        assert back.fs == rec.fs
        assert back.label == rec.label
        np.testing.assert_allclose(back.samples, rec.samples, atol=1e-6)

    def test_missing_rate_header(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(FileFormatError, match="fs"):
            read_recording_csv(path)

    def test_non_numeric_sample(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("# fs=250.0\n1.0\nbogus\n")
        with pytest.raises(FileFormatError, match="rec.csv:3"):
            read_recording_csv(path)

    @pytest.mark.parametrize("text,line,match", [
        ("# fs=250.0\n1.0\n# fs=500.0\n2.0\n", 3, "header key 'fs' after the data"),
        ("# fs=250.0\n1.0\n2.0\n# label=late\n", 4, "header key 'label' after the data"),
        ("# fs=250.0\n# fs=500.0\n1.0\n", 2, "header key 'fs' given twice"),
    ], ids=["rate_after_samples", "label_at_the_end", "rate_twice"])
    def test_header_lines_come_first_and_once(self, tmp_path, text, line, match):
        path = tmp_path / "rec.csv"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=rf"rec\.csv:{line}: {match}"):
            read_recording_csv(path)

    def test_sniffing_dispatch(self, tmp_path):
        rec = sample_recording(50)
        bin_path = tmp_path / "as_binary.dat"
        csv_path = tmp_path / "as_text.csv"
        write_recording(bin_path, rec)
        write_recording(csv_path, rec)
        assert bin_path.read_bytes()[:4] == MAGIC
        assert csv_path.read_text().startswith("# fs=")
        for p in (bin_path, csv_path):
            back = read_recording(p)
            np.testing.assert_allclose(back.samples, rec.samples, atol=1e-6)


class TestHypnogram:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "h.csv"
        stages = ["W", "N1", "N2", "N3", "REM", "N2"]
        write_hypnogram(path, stages)
        assert read_hypnogram(path) == stages

    def test_rejects_gap(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("epoch_index,stage\n0,W\n2,N2\n")
        with pytest.raises(FileFormatError, match="contiguous"):
            read_hypnogram(path)

    def test_rejects_unknown_stage(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("epoch_index,stage\n0,DEEP\n")
        with pytest.raises(FileFormatError, match="stage"):
            read_hypnogram(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("epoch_index,stage\n")
        with pytest.raises(FileFormatError, match="empty"):
            read_hypnogram(path)

    @pytest.mark.parametrize("lead", ["# scored by hand\n", "\n"], ids=["comment", "blank"])
    def test_header_is_the_first_data_line(self, tmp_path, lead):
        path = tmp_path / "h.csv"
        path.write_text(lead + "epoch_index,stage\n0,W\n1,N2\n")
        assert read_hypnogram(path) == ["W", "N2"]

    def test_header_after_a_row_is_refused(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("0,W\nepoch_index,stage\n1,N2\n")
        with pytest.raises(FileFormatError, match=":2: bad epoch index"):
            read_hypnogram(path)


class TestStageRuns:
    def test_expansion(self):
        assert parse_stage_runs("W*2 N1 N2*3") == ["W", "W", "N1", "N2", "N2", "N2"]

    @pytest.mark.parametrize("text", ["X*3", "N2*zero", "N2*0", "", "  "])
    def test_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_stage_runs(text)


def sample_log():
    return [
        LoggedTrigger(1000, 4.0, "pv", 44.931, 55.2, True, "", True),
        LoggedTrigger(1300, 5.2, "pv", None, 12.0, False, "swa", True),
        LoggedTrigger(1700, 6.8, "pv", 46.5, 60.1, False, "onoff", False),
    ]


@functools.cache
def night():
    """The 760 s night 0 of CI's "Installed command" step."""
    return generate(SynthSpec(hypnogram=parse_stage_runs("W*4 N2*10 N3*20 N2*4"),
                              seed=0)).recording


class TestTriggerRow:
    """A trigger-log row is the tracker's event plus the gate's verdict."""

    def test_row_is_an_event_then_the_gate_columns(self):
        assert issubclass(LoggedTrigger, TriggerEvent)
        assert TRIGGER_COLUMNS[:5] == tuple(f.name for f in fields(TriggerEvent))
        assert TRIGGER_COLUMNS[5:] == ("delivered", "suppression_reason", "on_window")

    @pytest.mark.parametrize("streaming", [False, True], ids=["batch", "streaming"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_event_part_of_each_row_is_the_trackers_event(self, algorithm, streaming):
        rec = night()
        cfg = TrackerConfig(algorithm=algorithm, sample_rate_hz=rec.fs)
        events = make_tracker(cfg).run(PreprocessChain(rec.fs).run(rec.samples))
        log = run_session(rec, cfg, streaming=streaming).log
        assert events
        assert [astuple(row)[:5] for row in log] == [astuple(ev) for ev in events]


class TestTriggerLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trig.csv"
        write_trigger_log(path, sample_log(), {"input_sha256": "ab" * 32})
        provenance, rows = read_trigger_log(path)
        assert provenance["input_sha256"] == "ab" * 32
        assert "swphase" in provenance
        assert len(rows) == 3
        assert rows[0].sample_index == 1000
        assert rows[0].delivered is True
        assert rows[1].tracker_phase_deg is None
        assert rows[1].suppression_reason == "swa"
        assert rows[2].on_window is False
        assert rows[2].tracker_phase_deg == pytest.approx(46.5)

    def test_provenance_after_the_rows_is_refused(self, tmp_path):
        # it would otherwise replace the header's hash
        path = tmp_path / "trig.csv"
        write_trigger_log(path, sample_log(), {"input_sha256": "ab" * 32})
        n = len(path.read_text().splitlines())
        with open(path, "a", encoding="utf-8") as f:
            f.write(f"# input_sha256={'cd' * 32}\n")
        with pytest.raises(FileFormatError,
                           match=rf"trig\.csv:{n + 1}: header key 'input_sha256' after the data"):
            read_trigger_log(path)

    def test_provenance_key_given_twice_is_refused(self, tmp_path):
        path = tmp_path / "trig.csv"
        write_trigger_log(path, sample_log(), {"input_sha256": "ab" * 32})
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + [f"# input_sha256={'cd' * 32}\n"] + lines[2:]))
        with pytest.raises(FileFormatError,
                           match=r"trig\.csv:3: header key 'input_sha256' given twice"):
            read_trigger_log(path)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trigger_log(a, sample_log(), {"config": "x=1"})
        write_trigger_log(b, sample_log(), {"config": "x=1"})
        assert a.read_bytes() == b.read_bytes()
        assert hash_file(a) == hash_file(b)

    def test_rejects_header_drift(self, tmp_path):
        path = tmp_path / "trig.csv"
        path.write_text("sample_index,time_s\n1,0.004\n")
        with pytest.raises(FileFormatError, match="header"):
            read_trigger_log(path)

    def test_rejects_short_rows(self, tmp_path):
        path = tmp_path / "trig.csv"
        write_trigger_log(path, sample_log())
        path.write_text(path.read_text() + "5,0.02,pv\n")
        with pytest.raises(FileFormatError, match="fields"):
            read_trigger_log(path)

    def test_rejects_unknown_suppression_reason(self, tmp_path):
        path = tmp_path / "trig.csv"
        write_trigger_log(path, sample_log())
        path.write_text(path.read_text().replace(",swa,", ",bogus,"))
        with pytest.raises(FileFormatError, match="suppression_reason 'bogus'"):
            read_trigger_log(path)

    @pytest.mark.parametrize("row,match", [
        ("1000,4.000000,pv,44.931000,55.200000,2,,1", "delivered must be 0 or 1"),
        ("1000,4.000000,pv,44.931000,55.200000,1,,-1", "on_window must be 0 or 1"),
        ("1000,4.000000,pv,44.931000,55.200000,01,,1", "delivered must be 0 or 1"),
        ("1000,4.000000,pv,44.931000,55.200000,1,nrem,1", "disagrees"),
        ("1000,4.000000,pv,44.931000,55.200000,0,,1", "disagrees"),
        ("1000,4.000000,foo,44.931000,55.200000,1,,1", "unknown algorithm 'foo'"),
        # no tracker fires on a non-finite sample, so no log holds such a number
        ("1000,nan,pv,44.931000,55.200000,1,,1", "time_s must be finite"),
        ("1000,inf,pv,44.931000,55.200000,1,,1", "time_s must be finite"),
        ("1000,1e999,pv,44.931000,55.200000,1,,1", "time_s must be finite"),
        ("1000,4.000000,pv,44.931000,-inf,1,,1", "amplitude_uv must be finite"),
        ("1000,4.000000,pv,nan,55.200000,1,,1", "tracker_phase_deg must be finite"),
    ], ids=["delivered_2", "on_window_-1", "delivered_01", "delivered_with_reason",
            "suppressed_without_reason", "unknown_algorithm", "time_nan", "time_inf",
            "time_1e999", "amplitude_-inf", "phase_nan"])
    def test_rejects_rows_the_writer_never_produces(self, tmp_path, row, match):
        path = tmp_path / "trig.csv"
        write_trigger_log(path, sample_log())
        lines = path.read_text().splitlines()
        assert lines[2].startswith("1000,")
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=rf"trig\.csv:3: .*{match}"):
            read_trigger_log(path)


class TestBom:
    """A file that starts with a UTF-8 byte-order mark, as spreadsheet
    "CSV UTF-8" exports do, reads as the same file without it."""

    def write_both(self, tmp_path, write):
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        write(plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        return plain, bom

    def test_hypnogram(self, tmp_path):
        plain, bom = self.write_both(tmp_path, lambda p: write_hypnogram(p, ["W", "N2"]))
        assert read_hypnogram(bom) == read_hypnogram(plain)

    def test_recording_csv(self, tmp_path):
        plain, bom = self.write_both(
            tmp_path, lambda p: write_recording_csv(p, sample_recording(20)))
        a, b = read_recording(plain), read_recording(bom)
        assert (b.fs, b.label, b.start_time) == (a.fs, a.label, a.start_time)
        np.testing.assert_array_equal(b.samples, a.samples)

    def test_trigger_log(self, tmp_path):
        plain, bom = self.write_both(
            tmp_path, lambda p: write_trigger_log(p, sample_log(), {"input_sha256": "ab"}))
        assert read_trigger_log(bom) == read_trigger_log(plain)

    def test_grid_file(self, tmp_path):
        plain, bom = self.write_both(
            tmp_path, lambda p: p.write_text("at_threshold_uv = 20,30\n"))
        assert read_config(bom) == read_config(plain) == {"at_threshold_uv": "20,30"}


class TestConfigFiles:
    def test_parse_key_values(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("# comment\nat_threshold_uv = 40\n\nmaf_span=50\n")
        assert read_config(path) == {"at_threshold_uv": "40", "maf_span": "50"}

    def test_rejects_bare_words(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("fast\n")
        with pytest.raises(FileFormatError, match=r"g\.grid:1: expected key = value"):
            read_config(path)

    def test_rejects_a_key_given_twice(self, tmp_path):
        path = tmp_path / "g.grid"
        path.write_text("at_threshold_uv = 20,30\nat_threshold_uv = 40\n")
        with pytest.raises(FileFormatError,
                           match=r"g\.grid:2: key 'at_threshold_uv' given twice"):
            read_config(path)

    def test_tracker_overrides_coerced(self):
        cfg = apply_config(TrackerConfig(), {"algorithm": "pll", "k_pll": "2e-4",
                                             "phi_target_deg": "120"})
        assert cfg.algorithm == "pll"
        assert cfg.k_pll == pytest.approx(2e-4)
        assert cfg.phi_target_deg == pytest.approx(120.0)
        assert isinstance(cfg.phi_target_deg, float)

    def test_gate_overrides_coerced(self):
        cfg = apply_config(GateConfig(), {"onoff_enabled": "true",
                                          "swa_threshold_uv2": "90"})
        assert cfg.onoff_enabled is True
        assert cfg.swa_threshold_uv2 == pytest.approx(90.0)

    def test_int_fields_stay_int(self):
        cfg = apply_config(TrackerConfig(), {"maf_span": "125"})
        assert cfg.maf_span == 125
        assert isinstance(cfg.maf_span, int)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            apply_config(TrackerConfig(), {"threshold": "40"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            apply_config(TrackerConfig(), {"at_threshold_uv": "forty"})
        with pytest.raises(ConfigurationError,
                           match="bad value for onoff_enabled: 'maybe'"):
            apply_config(GateConfig(), {"onoff_enabled": "maybe"})

    def test_echo_is_sorted_and_flat(self):
        echo = config_echo(GateConfig())
        keys = [part.split("=")[0] for part in echo.split(";")]
        assert keys == sorted(keys)
        assert "\n" not in echo

    def test_apply_config_returns_new_instance(self):
        base = GateConfig()
        out = apply_config(base, {"swa_threshold_uv2": "50"})
        assert out is not base
        assert base.swa_threshold_uv2 != 50.0
