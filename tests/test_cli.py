"""Command line driving: file flows, provenance, exit codes, truncation."""
import json
import warnings

import numpy as np
import pytest

import swphase.cli as cli
from swphase.cli import main
from swphase.gate import GateConfig
from swphase.io import (read_hypnogram, read_recording, read_trigger_log,
                        write_recording)
from swphase.pipeline import evaluate_session, run_session
from swphase.recording import EegRecording
from swphase.trackers import TrackerConfig


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two deep-sleep recordings with hypnogram sidecars, plus one tracked."""
    root = tmp_path_factory.mktemp("corpus")
    for i, seed in enumerate((5, 6)):
        assert main(["simulate", "--out", str(root / f"r{i}.swp"),
                     "--hypnogram-out", str(root / f"r{i}.hyp.csv"),
                     "--stages", "N3*40", "--seed", str(seed)]) == 0
    trig = root / "r0.trig.csv"
    assert main(["track", "--input", str(root / "r0.swp"),
                 "--out", str(trig), "--algorithm", "pv"]) == 0
    return root


class TestSimulate:
    def test_writes_requested_artifacts(self, tmp_path, capsys):
        out = tmp_path / "rec.swp"
        hyp = tmp_path / "rec.hyp.csv"
        rc = main(["simulate", "--out", str(out), "--hypnogram-out", str(hyp),
                   "--stages", "W*6 N2*30", "--seed", "1"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        rec = read_recording(out)
        assert rec.fs == 250.0
        assert len(rec.samples) == 36 * 20 * 250
        assert hyp.read_text().splitlines()[1] == "0,W"

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.swp", tmp_path / "b.swp"
        for p in (a, b):
            main(["simulate", "--out", str(p), "--stages", "N2*36", "--seed", "7"])
        assert a.read_bytes() == b.read_bytes()

    # --stages states the night; without it, the night is four default cycles
    @pytest.mark.parametrize("extra, epochs", [([], 4 * 133), (["--stages", "N2*133"], 133)])
    def test_cycles_without_stages_set_the_night(self, tmp_path, monkeypatch,
                                                 extra, epochs):
        specs = []

        def stop(spec):   # the hypnogram is all this test needs
            specs.append(spec)
            raise OSError("stop")
        monkeypatch.setattr(cli, "generate", stop)
        assert main(["simulate", "--out", str(tmp_path / "n.swp"), *extra]) == 4
        assert len(specs[0].hypnogram) == epochs

    def test_synth_overrides(self, tmp_path):
        out = tmp_path / "slow.csv"
        rc = main(["simulate", "--out", str(out), "--stages", "N2*36",
                   "--synth-set", "fs=125"])
        assert rc == 0
        assert read_recording(out).fs == 125.0


class TestTrack:
    def test_provenance_and_determinism(self, corpus, tmp_path, capsys):
        out = tmp_path / "again.csv"
        rc = main(["track", "--input", str(corpus / "r0.swp"),
                   "--out", str(out), "--algorithm", "pv"])
        assert rc == 0
        assert "delivered" in capsys.readouterr().out
        provenance, rows = read_trigger_log(out)
        assert len(provenance["input_sha256"]) == 64
        assert "algorithm=pv" in provenance["tracker_config"]
        assert "swa_threshold_uv2" in provenance["gate_config"]
        assert rows, "no candidates on a deep-sleep recording"
        # same input, same flags: byte-identical log
        assert out.read_bytes() == (corpus / "r0.trig.csv").read_bytes()

    def test_truncated_input_yields_prefix_rows(self, corpus, tmp_path):
        _, full_rows = read_trigger_log(corpus / "r0.trig.csv")
        rec = read_recording(corpus / "r0.swp")
        rng = np.random.default_rng(17)
        for cut in sorted(rng.integers(len(rec.samples) // 4,
                                       len(rec.samples), 2)):
            head = type(rec)(samples=rec.samples[:cut], fs=rec.fs,
                             label=rec.label, start_time=rec.start_time)
            head_path = tmp_path / f"head{cut}.swp"
            write_recording(head_path, head)
            out = tmp_path / f"head{cut}.trig.csv"
            assert main(["track", "--input", str(head_path),
                         "--out", str(out), "--algorithm", "pv"]) == 0
            _, rows = read_trigger_log(out)
            assert rows == [e for e in full_rows if e.sample_index < cut]


class TestEvaluate:
    def test_report_and_json(self, corpus, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--input", str(corpus / "r0.swp"),
                   "--triggers", str(corpus / "r0.trig.csv"),
                   "--hypnogram", str(corpus / "r0.hyp.csv"),
                   "--json", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "circular mean" in text
        assert "pas (all)" in text
        payload = json.loads(out.read_text())
        assert payload["algorithm"] == "pv"
        assert payload["n_delivered"] > 0
        assert payload["up_phase_pct"] > 70.0
        assert payload["pas_all"] == pytest.approx(
            payload["pas_in_up"] + payload["pas_not_up"])

    def test_empty_amplitude_class_is_left_out_of_strict_json(self, tmp_path, capsys):
        # a night of 20-40 uV waves, the paper's low-amplitude population,
        # holds no "high" wave, so that class has no capacity
        night, hyp = tmp_path / "n.swp", tmp_path / "n.hyp.csv"
        log, out = tmp_path / "n.trig.csv", tmp_path / "n.json"
        assert main(["simulate", "--out", str(night), "--hypnogram-out", str(hyp),
                     "--stages", "W*4 N2*10 N3*20 N2*4",
                     "--synth-set", "sw_pp_range_uv=20,40"]) == 0
        assert main(["track", "--input", str(night), "--out", str(log)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--input", str(night), "--triggers", str(log),
                     "--hypnogram", str(hyp), "--json", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")
        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload["n_high_waves"] == 0
        assert payload["n_low_waves"] > 0
        assert "high_capacity_pct" not in payload
        assert "high undefined (0 waves)" in capsys.readouterr().out

    @pytest.fixture
    def empty_log(self, corpus, tmp_path):
        """An AT log whose threshold no wave reaches: no rows."""
        path = tmp_path / "at.trig.csv"
        assert main(["track", "--input", str(corpus / "r0.swp"), "--out", str(path),
                     "--algorithm", "at", "--set", "at_threshold_uv=100000"]) == 0
        assert read_trigger_log(path)[1] == []
        return path

    def test_log_without_rows_takes_its_provenance_algorithm(
            self, corpus, empty_log, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--input", str(corpus / "r0.swp"),
                   "--triggers", str(empty_log),
                   "--hypnogram", str(corpus / "r0.hyp.csv"), "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["algorithm"] == "at"
        assert payload["n_candidates"] == payload["n_delivered"] == 0

    def test_log_without_rows_or_provenance_is_refused(
            self, corpus, empty_log, tmp_path, capsys):
        # a malformed log, like every other provenance fault: exit 3
        bare = tmp_path / "bare.trig.csv"
        bare.write_text("".join(ln for ln in empty_log.read_text().splitlines(True)
                                if not ln.startswith("# tracker_config=")))
        rc = main(["evaluate", "--input", str(corpus / "r0.swp"),
                   "--triggers", str(bare), "--hypnogram", str(corpus / "r0.hyp.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "FileFormatError" in err and "trigger log is empty" in err


    def test_log_is_scored_under_the_gate_that_made_it(self, tmp_path):
        night, hyp = tmp_path / "n.swp", tmp_path / "n.hyp.csv"
        assert main(["simulate", "--out", str(night), "--hypnogram-out", str(hyp),
                     "--stages", "W*5 N2*30 N3*10", "--seed", "3"]) == 0
        log, out = tmp_path / "g50.trig.csv", tmp_path / "g50.json"
        assert main(["track", "--input", str(night), "--out", str(log),
                     "--gate-set", "swa_threshold_uv2=50"]) == 0
        assert main(["evaluate", "--input", str(night), "--triggers", str(log),
                     "--hypnogram", str(hyp), "--json", str(out)]) == 0
        rec = read_recording(night)
        rec.hypnogram = read_hypnogram(hyp)
        windows = {swa: evaluate_session(rec, run_session(
            rec, TrackerConfig(), GateConfig(swa_threshold_uv2=swa))
        ).qualifying_windows for swa in (50.0, GateConfig().swa_threshold_uv2)}
        assert windows[50.0] != windows[GateConfig().swa_threshold_uv2]
        assert json.loads(out.read_text())["qualifying_windows"] == windows[50.0]


class TestOptimize:
    def test_tiny_grid_search(self, corpus, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("phi_target_deg = 45, 90\n")
        out = tmp_path / "cv.json"
        rc = main(["optimize", str(corpus / "r0.swp"), str(corpus / "r1.swp"),
                   "--algorithm", "pv", "-k", "2", "--seed", "3",
                   "--grid", str(grid), "--json", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "best combo" in text
        payload = json.loads(out.read_text())
        assert len(payload["results"]) == 2
        assert payload["best"]["combo"]["phi_target_deg"] in (45.0, 90.0)
        # the tuned target must beat the quadrature one
        assert payload["best"]["combo"]["phi_target_deg"] == 45.0

    @pytest.mark.parametrize("line", [
        "no_such_knob = 1,2",
        "algorithm = pv",
        "maf_span = 2.5",
        # the vocoder always triggers on its estimate: the old mode key is unknown
        "pv_trigger_on_nco = maybe",
    ])
    def test_bad_grid_is_a_configuration_error(self, corpus, tmp_path, capsys,
                                               line):
        grid = tmp_path / "grid.txt"
        grid.write_text(line + "\n")
        rc = main(["optimize", str(corpus / "r0.swp"), str(corpus / "r1.swp"),
                   "--algorithm", "pv", "-k", "2", "--grid", str(grid)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ConfigurationError" in err and err.count("\n") == 1

    @pytest.mark.parametrize("data, message", [
        (b"at_threshold_uv = 20,30\nat_threshold_uv = 40\n",
         "g.grid:2: key 'at_threshold_uv' given twice"),
        (b"at_threshold_uv = 20,\xff30\n", "g.grid: not UTF-8 text"),
        (b"fast\n", "g.grid:1: expected key = value"),
    ], ids=["repeated_key", "not_utf8", "bare_word"])
    def test_bad_grid_file_is_3(self, corpus, tmp_path, capsys, data, message):
        grid = tmp_path / "g.grid"
        grid.write_bytes(data)
        rc = main(["optimize", str(corpus / "r0.swp"), str(corpus / "r1.swp"),
                   "--algorithm", "at", "-k", "2", "--grid", str(grid)])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "FileFormatError" in err and message in err


class TestBenchCommand:
    def test_every_figure_comes_from_one_run(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--reps", "3", "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rcr=" in printed and "efficiency=" in printed
        report = json.loads(out.read_text())
        assert set(report) == {"at", "pll", "pv"}
        for stage in ("preprocess", "gate"):
            assert len({r["stages"][stage] for r in report.values()}) == 1
        for r in report.values():
            assert r["rcr"] == pytest.approx(sum(r["stages"].values()) * 250.0 / 1e9)
        ratio = report["pv"]["stages"]["tracker"] / report["pll"]["stages"]["tracker"]
        assert f"pv/pll tracker cost ratio: {ratio:.2f}\n" in printed
        sweep = printed.split("pv tracker cost vs fs (span scaled): ")[1]
        assert f"250 Hz: {report['pv']['stages']['tracker']:.0f}ns," in sweep

    def test_takes_no_algorithm(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert "--algorithm" not in capsys.readouterr().out

    def test_sweep_has_no_switch_of_its_own(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert "sweep" not in capsys.readouterr().out


class TestCalibrateCommand:
    def test_prints_thresholds(self, tmp_path, capsys):
        rec = tmp_path / "cal.swp"
        hyp = tmp_path / "cal.hyp.csv"
        assert main(["simulate", "--out", str(rec), "--hypnogram-out", str(hyp),
                     "--stages", "W*18 N3*18", "--seed", "2"]) == 0
        rc = main(["calibrate", "--input", str(rec), "--hypnogram", str(hyp)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "swa_threshold_uv2" in out
        assert "nrem_low_threshold_uv2" in out


class TestExitCodes:
    def test_configuration_errors_are_2(self, corpus, tmp_path, capsys):
        rc = main(["track", "--input", str(corpus / "r0.swp"),
                   "--out", str(tmp_path / "x.csv"),
                   "--set", "no_such_knob=1"])
        assert rc == 2
        assert "ConfigurationError" in capsys.readouterr().err

    def test_bad_file_format_is_3(self, corpus, tmp_path, capsys):
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("not,a,trigger,log\n")
        rc = main(["evaluate", "--input", str(corpus / "r0.swp"),
                   "--triggers", str(bogus),
                   "--hypnogram", str(corpus / "r0.hyp.csv")])
        assert rc == 3
        assert "FileFormatError" in capsys.readouterr().err

    def test_trigger_past_the_recording_is_3(self, corpus, tmp_path, capsys):
        n = len(read_recording(corpus / "r0.swp").samples)
        lines = (corpus / "r0.trig.csv").read_text().splitlines(keepends=True)
        first_row = next(i for i, ln in enumerate(lines)
                         if ln[0].isdigit())
        fields = lines[first_row].split(",")
        fields[0] = str(n)
        lines[first_row] = ",".join(fields)
        bad = tmp_path / "past.trig.csv"
        bad.write_text("".join(lines))
        rc = main(["evaluate", "--input", str(corpus / "r0.swp"),
                   "--triggers", str(bad),
                   "--hypnogram", str(corpus / "r0.hyp.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "FileFormatError" in err
        assert f"past.trig.csv:{first_row + 1}:" in err
        assert f"sample_index {n}" in err

    def test_log_of_another_recording_is_3(self, corpus, capsys):
        rc = main(["evaluate", "--input", str(corpus / "r1.swp"),
                   "--triggers", str(corpus / "r0.trig.csv"),
                   "--hypnogram", str(corpus / "r1.hyp.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "FileFormatError" in err and "input_sha256" in err

    def test_row_flag_the_writer_never_produces_is_3(self, corpus, tmp_path, capsys):
        lines = (corpus / "r0.trig.csv").read_text().splitlines(keepends=True)
        row = next(i for i, ln in enumerate(lines) if ln[0].isdigit())
        fields = lines[row].split(",")
        fields[5] = "2"
        lines[row] = ",".join(fields)
        bad = tmp_path / "flag.trig.csv"
        bad.write_text("".join(lines))
        rc = main(["evaluate", "--input", str(corpus / "r0.swp"),
                   "--triggers", str(bad), "--hypnogram", str(corpus / "r0.hyp.csv")])
        assert rc == 3
        assert f"flag.trig.csv:{row + 1}: delivered must be 0 or 1" in capsys.readouterr().err

    def test_hash_appended_after_the_rows_is_3(self, corpus, tmp_path, capsys):
        # read as provenance, it would replace the header's hash
        text = (corpus / "r0.trig.csv").read_text()
        bad = tmp_path / "appended.trig.csv"
        bad.write_text(text + f"# input_sha256={'cd' * 32}\n")
        rc = main(["evaluate", "--input", str(corpus / "r0.swp"),
                   "--triggers", str(bad), "--hypnogram", str(corpus / "r0.hyp.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "FileFormatError" in err
        n = len(text.splitlines())
        assert f"appended.trig.csv:{n + 1}: header key 'input_sha256' after the data" in err
        assert "differs" not in err

    @pytest.mark.parametrize("line, item", [("gate_config", "swa_threshold_uv2=50.0"),
                                            ("tracker_config", "phi_target_deg=90.0")])
    def test_echo_key_given_twice_is_3(self, corpus, tmp_path, capsys, line, item):
        # read as the last value, it would score the log under another config
        lines = (corpus / "r0.trig.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "twice.trig.csv"
        bad.write_text("".join(ln.replace("\n", f";{item}\n") if ln.startswith(f"# {line}=")
                               else ln for ln in lines))
        rc = main(["evaluate", "--input", str(corpus / "r0.swp"),
                   "--triggers", str(bad), "--hypnogram", str(corpus / "r0.hyp.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "FileFormatError" in err
        key = item.partition("=")[0]
        assert f"twice.trig.csv: unreadable provenance: key {key!r} given twice" in err

    def test_log_without_input_hash_still_evaluates(self, corpus, tmp_path):
        lines = (corpus / "r0.trig.csv").read_text().splitlines(keepends=True)
        bare = tmp_path / "bare.trig.csv"
        bare.write_text("".join(ln for ln in lines
                                if not ln.startswith("# input_sha256=")))
        assert main(["evaluate", "--input", str(corpus / "r0.swp"),
                     "--triggers", str(bare),
                     "--hypnogram", str(corpus / "r0.hyp.csv")]) == 0

    @pytest.mark.parametrize("stages", ["N2*4611686018427387904",
                                        "N2*100000000000", "N2*4000 N3*400"])
    def test_stage_count_past_the_bound_is_2(self, tmp_path, capsys, stages):
        rc = main(["simulate", "--out", str(tmp_path / "x.swp"),
                   "--stages", stages])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ConfigurationError" in err
        assert not (tmp_path / "x.swp").exists()

    def test_empty_stages_is_2(self, tmp_path, capsys):
        # an empty --stages names no night; it must not fall back to the default
        out = tmp_path / "x.swp"
        assert main(["simulate", "--out", str(out), "--stages", ""]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ConfigurationError" in err
        assert not out.exists()

    def test_rate_at_the_notch_nyquist_is_2(self, tmp_path, capsys):
        # at 100 Hz the 50 Hz notch sits at Nyquist: refuse the night
        # instead of writing one that track cannot filter
        rc = main(["simulate", "--out", str(tmp_path / "n.swp"),
                   "--synth-set", "fs=100", "--stages", "W*2 N2*40"])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "above 100 Hz, twice the 50 Hz notch frequency" in err
        assert not (tmp_path / "n.swp").exists()

    def test_rate_just_above_the_minimum_simulates_and_tracks(self, tmp_path):
        night = tmp_path / "n.swp"
        assert main(["simulate", "--out", str(night), "--synth-set", "fs=101",
                     "--stages", "W*2 N2*40"]) == 0
        assert read_recording(night).fs == 101.0
        assert main(["track", "--input", str(night),
                     "--out", str(tmp_path / "n.csv")]) == 0

    @pytest.mark.parametrize("command", ["evaluate", "calibrate", "optimize"])
    def test_hypnogram_past_the_recording_is_3(self, corpus, tmp_path, capsys,
                                               command):
        # r0 spans exactly 40 epochs; a 41st starts past its end
        rec = tmp_path / "r.swp"
        rec.write_bytes((corpus / "r0.swp").read_bytes())
        hyp = tmp_path / "r.hyp.csv"
        hyp.write_text("epoch_index,stage\n"
                       + "".join(f"{i},N3\n" for i in range(41)))
        argv = {
            "evaluate": ["evaluate", "--input", str(rec), "--hypnogram", str(hyp),
                         "--triggers", str(corpus / "r0.trig.csv")],
            "calibrate": ["calibrate", "--input", str(rec), "--hypnogram", str(hyp)],
            "optimize": ["optimize", str(rec), str(corpus / "r1.swp"),
                         "--algorithm", "at", "-k", "2"],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "FileFormatError" in err and "r.hyp.csv: 41 epochs outrun the recording" in err

    def test_hypnogram_ending_in_the_last_partial_epoch_is_accepted(
            self, corpus, tmp_path, capsys):
        full = read_recording(corpus / "r0.swp")
        full.samples = full.samples[:-2500]     # 39.5 epochs
        rec = tmp_path / "short.swp"
        write_recording(rec, full)
        hyp = tmp_path / "short.hyp.csv"
        for n_epochs, rc in ((30, 0), (40, 0), (41, 3)):
            hyp.write_text("epoch_index,stage\n" + "".join(
                f"{i},{'W' if i < 10 else 'N3'}\n" for i in range(n_epochs)))
            assert main(["calibrate", "--input", str(rec),
                         "--hypnogram", str(hyp)]) == rc
        assert "FileFormatError" in capsys.readouterr().err

    @pytest.mark.parametrize("command,extra", [
        ("track", ["--set", "k_pll=nan"]),
        ("track", ["--set", "at_threshold_uv=nan"]),
        ("track", ["--gate-set", "swa_threshold_uv2=nan"]),
        # the refractory and the gate's timings are constants, not settings
        ("track", ["--set", "refractory_s=nan"]),
        ("track", ["--set", "refractory_s=inf"]),
        ("track", ["--gate-set", "window_step_s=nan"]),
        ("track", ["--gate-set", "window_step_s=1e-300"]),
        ("track", ["--gate-set", "nrem_history_s=inf"]),
        ("track", ["--gate-set", "nrem_history_s=1e300"]),
        ("track", ["--gate-set", "window_step_s=0.4"]),
        ("optimize", ["--gate-set", "window_step_s=0.4"]),
        # a boolean that is not one is named by its key
        ("track", ["--gate-set", "onoff_enabled=maybe"]),
        ("optimize", ["--gate-set", "onoff_enabled=perhaps"]),
        ("simulate", ["--synth-set", "sw_freq_range_hz=0.9,inf"]),
        ("simulate", ["--synth-set", "sw_pp_range_uv=nan,120"]),
        ("simulate", ["--synth-set", "fs=1e300"]),
        ("simulate", ["--synth-set", "sw_pp_range_uv=20,120,3"]),
        # the generator's texture levels are constants, not settings
        ("simulate", ["--synth-set", "pink_noise_rms_uv=5"]),
        ("simulate", ["--seed", "-1"]),
        ("optimize", ["k_pv = 1, nan"]),
        ("optimize", ["--seed", "-1"]),
        # keys a command's own options or its input set
        ("track", ["--algorithm", "pv", "--set", "algorithm=at"]),
        ("track", ["--set", "sample_rate_hz=500"]),
        ("simulate", ["--seed", "1", "--synth-set", "seed=5"]),
        ("simulate", ["--synth-set", "hypnogram=N2,N3"]),
        ("optimize", ["sample_rate_hz = 250"]),
        # sizes refused before anything of that size is allocated
        ("track", ["--set", "maf_span=1000000000000"]),
        ("optimize", ["maf_span = 25, 1000000000000"]),
        # an override key given twice, as in a grid file
        ("track", ["--set", "refractory_s=1", "--set", "refractory_s=2"]),
        ("track", ["--gate-set", "swa_threshold_uv2=40", "--gate-set", "swa_threshold_uv2 = 50"]),
        ("simulate", ["--synth-set", "sw_freq_range_hz=0.9,1.4",
                      "--synth-set", "sw_freq_range_hz=1.0,1.2"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_bad_override_is_2(self, corpus, tmp_path, capsys, command, extra):
        key = (extra[-1].partition("=")[0].strip() if "=" in extra[-1]
               else extra[-2].lstrip("-"))
        out = tmp_path / "out"
        if command == "optimize" and not extra[0].startswith("--"):
            grid = tmp_path / "grid.txt"
            grid.write_text(extra[0] + "\n")
            extra = ["--grid", str(grid)]
        argv = {
            "track": ["track", "--input", str(corpus / "r0.swp"), "--out", str(out)],
            "simulate": ["simulate", "--out", str(out), "--stages", "N2*40"],
            "optimize": ["optimize", str(corpus / "r0.swp"), str(corpus / "r1.swp"),
                         "--algorithm", "pv", "-k", "2", "--json", str(out)],
        }[command]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ConfigurationError" in err
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bench", "--fs", "inf"],
        ["bench", "--fs", "nan"],
        ["bench", "--fs", "1e12"],
        ["bench", "--reps", str(10 ** 21)],
        ["track"],
    ], ids=" ".join)
    def test_rate_or_reps_sized_beyond_the_input_is_2(self, tmp_path, capsys, argv):
        # past 20 kHz, buffers sized by the rate would outgrow memory: a
        # 1,000-sample recording whose header says 1 GHz must not allocate
        out = tmp_path / "out"
        if argv[0] == "track":
            rec = tmp_path / "fast.swp"
            write_recording(rec, EegRecording(samples=np.zeros(1000), fs=1e9))
            argv = argv + ["--input", str(rec), "--out", str(out)]
        else:
            argv = argv + ["--json", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ConfigurationError" in err
        assert not out.exists()

    def test_echoed_rate_other_than_the_recordings_is_3(self, corpus, tmp_path, capsys):
        bad = tmp_path / "rate.trig.csv"
        bad.write_text((corpus / "r0.trig.csv").read_text().replace(
            "sample_rate_hz=250.0", "sample_rate_hz=500.0"))
        assert main(["evaluate", "--input", str(corpus / "r0.swp"), "--triggers",
                     str(bad), "--hypnogram", str(corpus / "r0.hyp.csv")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "sample_rate_hz 500 is not the recording's 250 Hz" in err

    def test_echoed_constant_gate_timing_is_3(self, corpus, tmp_path, capsys):
        # logs tracked when the gate window was a setting echo it; they are
        # refused until tracked again
        text = (corpus / "r0.trig.csv").read_text()
        assert "window_step_s" not in text
        bad = tmp_path / "window.trig.csv"
        bad.write_text(text.replace("swa_threshold_uv2=115.0",
                                    "swa_threshold_uv2=115.0;window_step_s=4.0"))
        report = tmp_path / "report.json"
        assert main(["evaluate", "--input", str(corpus / "r0.swp"), "--triggers",
                     str(bad), "--hypnogram", str(corpus / "r0.hyp.csv"),
                     "--json", str(report)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "unreadable provenance: unknown configuration key 'window_step_s'" in err
        assert not report.exists()

    def test_echoed_boolean_that_is_not_one_is_3_naming_its_key(self, corpus, tmp_path,
                                                                capsys):
        text = (corpus / "r0.trig.csv").read_text()
        assert "onoff_enabled=False" in text
        bad = tmp_path / "onoff.trig.csv"
        bad.write_text(text.replace("onoff_enabled=False", "onoff_enabled=maybe"))
        assert main(["evaluate", "--input", str(corpus / "r0.swp"), "--triggers",
                     str(bad), "--hypnogram", str(corpus / "r0.hyp.csv")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "unreadable provenance: bad value for onoff_enabled: 'maybe'" in err

    def test_recording_at_a_refused_rate_is_2_naming_the_rate(self, corpus, tmp_path,
                                                              capsys):
        # as track refuses it: the rate, not the log's provenance, is at fault
        slow = tmp_path / "slow.swp"
        rec = read_recording(corpus / "r0.swp")
        write_recording(slow, EegRecording(samples=rec.samples, fs=90.0))
        trig = tmp_path / "slow.trig.csv"
        trig.write_text("".join(
            line.replace("sample_rate_hz=250.0", "sample_rate_hz=90.0")
            for line in (corpus / "r0.trig.csv").read_text().splitlines(keepends=True)
            if "input_sha256" not in line))
        argv = ["--input", str(slow), "--hypnogram", str(corpus / "r0.hyp.csv")]
        assert main(["track", "--out", str(tmp_path / "t.csv")] + argv[:2]) == 2
        assert main(["evaluate", "--triggers", str(trig)] + argv) == 2
        track_err, evaluate_err = capsys.readouterr().err.splitlines()
        assert "ConfigurationError: sampling rate 90.0 Hz" in evaluate_err
        assert evaluate_err == track_err

    def test_echoed_algorithm_other_than_the_rows_is_3(self, corpus, tmp_path, capsys):
        bad = tmp_path / "algo.trig.csv"
        bad.write_text((corpus / "r0.trig.csv").read_text().replace(
            "algorithm=pv;", "algorithm=pll;"))
        assert main(["evaluate", "--input", str(corpus / "r0.swp"), "--triggers",
                     str(bad), "--hypnogram", str(corpus / "r0.hyp.csv")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "rows of algorithm ['pv'] disagree with tracker_config algorithm 'pll'" in err

    def test_missing_file_is_4(self, tmp_path, capsys):
        rc = main(["track", "--input", str(tmp_path / "absent.swp"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("suffix", [".swp", ".csv"])
    @pytest.mark.parametrize("command", ["track", "evaluate", "calibrate", "optimize"])
    def test_non_finite_sample_is_3_and_names_the_file(self, corpus, tmp_path, capsys,
                                                       monkeypatch, command, suffix, bad):
        path = tmp_path / ("bad" + suffix)
        write_recording(path, EegRecording(samples=np.zeros(8), fs=250.0))
        if suffix == ".csv":   # three header lines, then the samples
            lines = path.read_text().splitlines()
            lines[3 + 5] = bad
            path.write_text("\n".join(lines) + "\n")
        else:                  # the body is the last 8 float32 values
            data = bytearray(path.read_bytes())
            data[-12:-8] = np.float32(bad).tobytes()
            path.write_bytes(bytes(data))
        hyp = str(corpus / "r0.hyp.csv")
        argv = {"track": ["--input", str(path), "--out", str(tmp_path / "x.trig.csv")],
                "evaluate": ["--input", str(path), "--triggers", str(corpus / "r0.trig.csv"),
                             "--hypnogram", hyp],
                "calibrate": ["--input", str(path), "--hypnogram", hyp],
                # the bad file second: refused before any tracker runs
                "optimize": [str(corpus / "r0.swp"), str(path), "--algorithm", "at"]}
        monkeypatch.setattr(cli, "make_pipeline_evaluator",
                            lambda *args: pytest.fail("a tracker ran"))
        assert main([command, *argv[command]]) == 3
        err = capsys.readouterr().err
        assert err == f"error: FileFormatError: {path}: non-finite sample at index 5\n"

    @pytest.mark.parametrize("suffix", [".swp", ".csv"])
    def test_sample_past_the_float32_range_is_4(self, tmp_path, capsys, suffix):
        # each component is finite, but the sum overflows float32
        out = tmp_path / ("x" + suffix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--stages", "N2*40", "--out", str(out),
                       "--synth-set", "sw_pp_range_uv=1e300,1e300"])
        assert rc == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "StreamIntegrityError" in err and "float32" in err
        assert not out.exists()
