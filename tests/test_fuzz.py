"""Seeded byte-mutation fuzzing of everything that parses outside input.

Each valid seed input is mutated a few bytes at a time (bit flips, byte
changes, insertions, deletions, truncation). Every mutant must either parse
or raise a SwphaseError subclass; any other exception is a crash the command
line would show as a traceback. A parsed dataclass (a config, a recording,
a phase track) must hold finite numbers only, in its float fields and its
float arrays; a parsed config is also used. Non-finite spellings are
substituted into every key of every config text, since byte mutations
seldom produce one.
"""
import inspect
import math
from dataclasses import is_dataclass

import numpy as np
import pytest

import swphase.io
from swphase.errors import SwphaseError
from swphase.gate import GateConfig, StimulationGate
from swphase.io import (apply_config, config_echo, parse_config_echo, parse_grid,
                        parse_stage_runs, read_config, read_hypnogram, read_phase_track,
                        read_recording, read_recording_binary, read_recording_csv,
                        read_trigger_log, write_hypnogram, write_phase_track,
                        write_recording, write_recording_csv, write_trigger_log)
from swphase.oracle import PhaseTrack
from swphase.pipeline import LoggedTrigger
from swphase.recording import EegRecording
from swphase.synth import SynthSpec
from swphase.trackers import TrackerConfig, make_tracker

CASES = 80
INSERTS = b"0123456789-.,=*#e\n \x00\xff"


def mutate(data: bytes, rng) -> bytes:
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 5))):
        op = int(rng.integers(5))
        i = int(rng.integers(len(out))) if out else 0
        if op == 0 and out:
            out[i] ^= 1 << int(rng.integers(8))
        elif op == 1 and out:
            out[i] = int(rng.integers(256))
        elif op == 2 and out:
            del out[i]
        elif op == 3:
            out.insert(i, INSERTS[int(rng.integers(len(INSERTS)))])
        else:
            del out[i:]
    return bytes(out)


def recording(n=40):
    rng = np.random.default_rng(2)
    return EegRecording(samples=rng.normal(0.0, 30.0, n), fs=250.0,
                        label="EEG", start_time=1.5)


def seed_file(tmp_path, kind) -> bytes:
    path = tmp_path / f"seed.{kind}"
    if kind in ("swp", "binary"):
        write_recording(path, recording())
    elif kind in ("csv", "text"):
        write_recording_csv(path, recording(12))
    elif kind == "phase":
        phase = np.linspace(0.0, 359.0, 20)
        write_phase_track(path, PhaseTrack(phase_deg=phase, valid=phase > 30.0, fs=250.0))
    elif kind == "hyp":
        write_hypnogram(path, ["W", "N1", "N2", "N3", "REM", "N2"])
    elif kind == "trig":
        log = [LoggedTrigger(120, 0.48, "pv", 45.123456, 31.5, True, "", True),
               LoggedTrigger(400, 1.6, "pv", 47.0, -12.25, False, "swa", False)]
        write_trigger_log(path, log, {"input_sha256": "ab" * 32,
                                      "tracker_config": "algorithm=pv"})
    elif kind == "grid":
        path.write_text("# pv search\nphi_target_deg = 30, 45\nk_pv = 1.5,2\n\n"
                        "maf_span = 25, 125\n")
    return path.read_bytes()


def overrides(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


FILE_READERS = {
    "swp": read_recording,
    "csv": read_recording,
    "hyp": read_hypnogram,
    "trig": lambda path: read_trigger_log(path, n_samples=500),
    "grid": lambda path: parse_grid(read_config(path), TrackerConfig(algorithm="pv"),
                                    ("algorithm", "sample_rate_hz")),
    "binary": read_recording_binary,
    "text": read_recording_csv,
    "phase": read_phase_track,
}


def test_every_public_reader_has_a_fuzz_entry():
    """An io reader is fuzzed by an entry that is the reader itself or a
    lambda that calls it by name; a reader reached only through another
    (read_recording_csv through read_recording) is not."""
    readers = {name for name, obj in vars(swphase.io).items() if name.startswith("read_")
               and inspect.isfunction(obj) and obj.__module__ == swphase.io.__name__}
    fuzzed = set()
    for reader in FILE_READERS.values():
        fuzzed.update([reader.__name__] if reader.__module__ == swphase.io.__name__
                      else reader.__code__.co_names)
    assert sorted(readers - fuzzed) == []

def used_tracker(cfg):
    make_tracker(cfg)
    return cfg


def used_gate(cfg):
    StimulationGate(cfg, 250.0)
    cfg.window_samples(250.0)
    return cfg


TEXT_PARSERS = {
    "stage_runs": ("W*10 N1*3 N2*30 N3*5 REM*2", parse_stage_runs),
    "tracker_config": ("algorithm=pll\nk_pll=4e-4\nmaf_span=125\n"
                       "phi_target_deg=45\nat_threshold_uv=30",
                       lambda text: used_tracker(apply_config(TrackerConfig(),
                                                              overrides(text)))),
    "gate_config": ("swa_threshold_uv2=115\nonoff_enabled=false\n"
                    "beta_threshold_uv2=4.8",
                    lambda text: used_gate(apply_config(GateConfig(), overrides(text)))),
    "tracker_echo": (config_echo(TrackerConfig(algorithm="pv", phi_target_deg=45.0)),
                     lambda text: used_tracker(parse_config_echo(text, TrackerConfig()))),
    "synth_spec": ("fs=250\nsw_pp_range_uv=20,120\nsw_freq_range_hz=0.9,1.4\nseed=0",
                   lambda text: apply_config(SynthSpec(), overrides(text))),
}


def check(parse, data, case):
    try:
        parsed = parse(data)
    except SwphaseError:
        return
    except Exception as exc:   # any other type is the failure
        pytest.fail(f"mutant {case} raised {type(exc).__name__}: {exc} "
                    f"for input {data!r}")
    if is_dataclass(parsed):   # finite numbers only
        for name, value in vars(parsed).items():
            if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                assert np.isfinite(value).all(), \
                    f"mutant {case} parsed a non-finite {name} from {data!r}"
                continue
            for v in value if isinstance(value, tuple) else (value,):
                assert not isinstance(v, float) or math.isfinite(v), \
                    f"mutant {case} parsed {name}={v!r} from {data!r}"


@pytest.mark.parametrize("kind", FILE_READERS)
def test_mutated_files_parse_or_raise_package_errors(tmp_path, kind):
    seed = seed_file(tmp_path, kind)
    FILE_READERS[kind](tmp_path / f"seed.{kind}")     # the seed itself parses
    rng = np.random.default_rng(list(FILE_READERS).index(kind))
    path = tmp_path / f"mutant.{kind}"

    def parse(data):
        path.write_bytes(data)
        return FILE_READERS[kind](path)
    for case in range(CASES):
        check(parse, mutate(seed, rng), case)


@pytest.mark.parametrize("kind", TEXT_PARSERS)
def test_mutated_text_parses_or_raises_package_errors(kind):
    text, parser = TEXT_PARSERS[kind]
    parser(text)
    rng = np.random.default_rng(10 + list(TEXT_PARSERS).index(kind))
    for case in range(CASES):
        data = mutate(text.encode(), rng).decode("utf-8", errors="replace")
        check(parser, data, case)


NON_FINITE = ("nan", "inf", "-inf", "1e999", "Infinity")


@pytest.mark.parametrize("kind", [k for k in TEXT_PARSERS if k != "stage_runs"])
def test_non_finite_values_parse_or_raise_package_errors(kind):
    text, parser = TEXT_PARSERS[kind]
    sep = ";" if kind == "tracker_echo" else "\n"
    items = text.split(sep)
    for i, item in enumerate(items):
        key = item.partition("=")[0]
        for bad in NON_FINITE:
            data = sep.join(items[:i] + [f"{key}={bad}"] + items[i + 1:])
            check(parser, data, f"{key}={bad}")
