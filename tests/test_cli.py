"""Command line driving: file flows, provenance, exit codes, truncation."""
import json

import numpy as np
import pytest

from swphase.cli import main
from swphase.io import read_recording, read_trigger_log, write_recording


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
        phase = tmp_path / "rec.phase.swp"
        rc = main(["simulate", "--out", str(out), "--hypnogram-out", str(hyp),
                   "--phase-out", str(phase), "--stages", "W*6 N2*30",
                   "--seed", "1"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        rec = read_recording(out)
        assert rec.fs == 250.0
        assert len(rec.samples) == 36 * 20 * 250
        assert hyp.read_text().splitlines()[1] == "0,W"
        assert phase.exists()

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.swp", tmp_path / "b.swp"
        for p in (a, b):
            main(["simulate", "--out", str(p), "--stages", "N2*36", "--seed", "7"])
        assert a.read_bytes() == b.read_bytes()

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

    def test_streaming_path_writes_identical_log(self, corpus, tmp_path):
        out = tmp_path / "streamed.csv"
        rc = main(["track", "--input", str(corpus / "r0.swp"),
                   "--out", str(out), "--algorithm", "pv", "--streaming"])
        assert rc == 0
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

    def test_boolean_grid_values(self, corpus, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("phi_target_deg = 45\npv_trigger_on_nco = true,false\n")
        out = tmp_path / "cv.json"
        rc = main(["optimize", str(corpus / "r0.swp"), str(corpus / "r1.swp"),
                   "--algorithm", "pv", "-k", "2", "--grid", str(grid),
                   "--json", str(out)])
        assert rc == 0
        combos = [r["combo"] for r in json.loads(out.read_text())["results"]]
        assert combos == [{"phi_target_deg": 45.0, "pv_trigger_on_nco": True},
                          {"phi_target_deg": 45.0, "pv_trigger_on_nco": False}]

    @pytest.mark.parametrize("line", [
        "no_such_knob = 1,2",
        "algorithm = pv",
        "maf_span = 2.5",
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


class TestBenchCommand:
    def test_single_algorithm_smoke(self, capsys):
        rc = main(["bench", "--algorithm", "at", "--reps", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rcr=" in out and "efficiency=" in out


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

    @pytest.mark.parametrize("command", ["track", "evaluate", "calibrate",
                                         "optimize"])
    def test_hypnogram_past_the_recording_is_3(self, corpus, tmp_path, capsys,
                                               command):
        # r0 spans exactly 40 epochs; a 41st starts past its end
        rec = tmp_path / "r.swp"
        rec.write_bytes((corpus / "r0.swp").read_bytes())
        hyp = tmp_path / "r.hyp.csv"
        hyp.write_text("epoch_index,stage\n"
                       + "".join(f"{i},N3\n" for i in range(41)))
        argv = {
            "track": ["track", "--input", str(rec), "--out",
                      str(tmp_path / "t.csv"), "--hypnogram", str(hyp)],
            "evaluate": ["evaluate", "--input", str(rec), "--hypnogram", str(hyp),
                         "--triggers", str(corpus / "r0.trig.csv")],
            "calibrate": ["calibrate", "--input", str(rec), "--hypnogram", str(hyp)],
            "optimize": ["optimize", str(rec), str(corpus / "r1.swp"),
                         "--algorithm", "at", "-k", "2"],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "FileFormatError" in err and "r.hyp.csv: 41 epochs" in err

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

    def test_missing_file_is_4(self, tmp_path, capsys):
        rc = main(["track", "--input", str(tmp_path / "absent.swp"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert "error:" in capsys.readouterr().err
