"""File formats.

Recording container, binary flavor (little-endian throughout):

    magic    4 bytes  b"SWPH"
    version  u16      currently 1
    fs       f64      sampling rate, Hz
    label    u16 length + that many UTF-8 bytes
    count    u64      number of samples
    start    f64      recording start time, seconds
    body     count x f32 sample values, microvolts

The CSV flavor carries the same header fields as ``# key=value`` comment
lines followed by one sample per line. Readers sniff the magic, so either
flavor can be handed to any command.

Phase tracks reuse the binary container with label "phase_deg"; invalid
samples are NaN.

Trigger logs are CSV with a ``#``-prefixed provenance header (library
version, SHA-256 of the input file, configuration echo). No timestamps:
rerunning a command on the same input produces byte-identical output.

Hypnograms are ``epoch_index,stage`` CSV, contiguous from epoch 0; the
compact run-length form "W*10 N1*3 N2*30" is accepted wherever a hypnogram
file is, via parse_stage_runs.

Configuration files are flat ``key = value`` lines with ``#`` comments.
"""
from __future__ import annotations

import hashlib
import math
import os
import struct
from typing import Optional

import numpy as np

from .errors import ConfigurationError, FileFormatError
from .gate import REASONS, GateConfig
from .oracle import PhaseTrack
from .recording import EegRecording, STAGES
from .trackers import TrackerConfig

MAGIC = b"SWPH"
FORMAT_VERSION = 1
MAX_STAGE_EPOCHS = 4320   # 24 h of 20 s epochs


def hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _lines(path):
    """Numbered lines of a UTF-8 text file; undecodable bytes raise."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            yield from enumerate(f, 1)
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _recording(path, **fields) -> EegRecording:
    """EegRecording from a file's fields; refusals name the file."""
    try:
        return EegRecording(**fields)
    except ConfigurationError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FileFormatError(f"truncated file: expected {n} bytes for {what}")
    return data


def write_recording_binary(path, recording: EegRecording) -> None:
    label = recording.label.encode("utf-8")
    samples = np.asarray(recording.samples, dtype="<f4")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", FORMAT_VERSION))
        f.write(struct.pack("<d", recording.fs))
        f.write(struct.pack("<H", len(label)))
        f.write(label)
        f.write(struct.pack("<Q", len(samples)))
        f.write(struct.pack("<d", recording.start_time))
        f.write(samples.tobytes())


def read_recording_binary(path) -> EegRecording:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise FileFormatError(f"{path}: not a recording file (bad magic)")
        (version,) = struct.unpack("<H", _read_exact(f, 2, "version"))
        if version != FORMAT_VERSION:
            raise FileFormatError(f"{path}: unsupported format version {version}")
        (fs,) = struct.unpack("<d", _read_exact(f, 8, "sampling rate"))
        (label_len,) = struct.unpack("<H", _read_exact(f, 2, "label length"))
        try:
            label = _read_exact(f, label_len, "label").decode("utf-8")
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: label is not UTF-8") from None
        (count,) = struct.unpack("<Q", _read_exact(f, 8, "sample count"))
        (start,) = struct.unpack("<d", _read_exact(f, 8, "start time"))
        body_bytes = os.fstat(f.fileno()).st_size - f.tell()
        if count > body_bytes // 4:
            raise FileFormatError(f"{path}: truncated file: {count} samples in the header")
        body = _read_exact(f, 4 * count, "sample data")
        extra = f.read(1)
        if extra:
            raise FileFormatError(f"{path}: trailing bytes after sample data")
    samples = np.frombuffer(body, dtype="<f4").astype(np.float64)
    return _recording(path, samples=samples, fs=fs, label=label, start_time=start)


def write_recording_csv(path, recording: EegRecording) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# fs={recording.fs!r}\n")
        f.write(f"# label={recording.label}\n")
        f.write(f"# start_time={recording.start_time!r}\n")
        for v in np.asarray(recording.samples, dtype=np.float32):
            f.write(f"{float(v)!r}\n")


def read_recording_csv(path) -> EegRecording:
    header = {}
    values = []
    for ln, line in _lines(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                header[key.strip()] = val.strip()
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise FileFormatError(f"{path}:{ln}: not a number: {line!r}")
    if "fs" not in header:
        raise FileFormatError(f"{path}: missing '# fs=' header line")
    try:
        fs = float(header["fs"])
        start = float(header.get("start_time", 0.0))
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad header value ({exc})")
    return _recording(path, samples=np.asarray(values, dtype=np.float64), fs=fs,
                      label=header.get("label", "EEG"), start_time=start)


def read_recording(path) -> EegRecording:
    with open(path, "rb") as f:
        head = f.read(4)
    if head == MAGIC:
        return read_recording_binary(path)
    return read_recording_csv(path)


def write_recording(path, recording: EegRecording) -> None:
    if str(path).lower().endswith(".csv"):
        write_recording_csv(path, recording)
    else:
        write_recording_binary(path, recording)


def write_phase_track(path, track: PhaseTrack) -> None:
    phase = np.asarray(track.phase_deg, dtype=np.float64).copy()
    phase[~np.asarray(track.valid, dtype=bool)] = math.nan
    write_recording_binary(path, EegRecording(samples=phase, fs=track.fs,
                                              label="phase_deg"))


def read_phase_track(path) -> PhaseTrack:
    rec = read_recording_binary(path)
    if rec.label != "phase_deg":
        raise FileFormatError(f"{path}: not a phase track (label {rec.label!r})")
    phase = np.asarray(rec.samples, dtype=np.float64)
    valid = np.isfinite(phase)
    phase = np.where(valid, phase, 0.0)
    return PhaseTrack(phase_deg=phase, valid=valid, fs=rec.fs)


def write_hypnogram(path, stages) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("epoch_index,stage\n")
        for i, s in enumerate(stages):
            f.write(f"{i},{s}\n")


def read_hypnogram(path) -> list:
    stages = []
    for ln, line in _lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ln == 1 and line.lower().startswith("epoch_index"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FileFormatError(f"{path}:{ln}: expected epoch_index,stage")
        try:
            idx = int(parts[0])
        except ValueError:
            raise FileFormatError(f"{path}:{ln}: bad epoch index {parts[0]!r}")
        if idx != len(stages):
            raise FileFormatError(
                f"{path}:{ln}: epochs must be contiguous from 0, got {idx}")
        stage = parts[1].strip()
        if stage not in STAGES:
            raise FileFormatError(f"{path}:{ln}: unknown stage {stage!r}")
        stages.append(stage)
    if not stages:
        raise FileFormatError(f"{path}: empty hypnogram")
    return stages


def parse_stage_runs(text: str) -> list:
    """Expand "W*10 N1*3 N2*30" into a per-epoch stage list."""
    out = []
    for tok in text.split():
        stage, star, count = tok.partition("*")
        if stage not in STAGES:
            raise ConfigurationError(f"unknown stage {stage!r} in {tok!r}")
        n = 1
        if star:
            try:
                n = int(count)
            except ValueError:
                raise ConfigurationError(f"bad repeat count in {tok!r}")
            if n < 1:
                raise ConfigurationError(f"repeat count must be >= 1 in {tok!r}")
        if len(out) + n > MAX_STAGE_EPOCHS:
            raise ConfigurationError(f"more than {MAX_STAGE_EPOCHS} epochs at {tok!r}")
        out.extend([stage] * n)
    if not out:
        raise ConfigurationError("empty stage specification")
    return out


TRIGGER_COLUMNS = ("sample_index", "time_s", "algorithm", "tracker_phase_deg",
                   "amplitude_uv", "delivered", "suppression_reason",
                   "on_window")


def write_trigger_log(path, log, provenance: Optional[dict] = None) -> None:
    """CSV trigger log; provenance keys become '# key=value' header lines."""
    from . import __version__
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# swphase={__version__}\n")
        for key, val in (provenance or {}).items():
            f.write(f"# {key}={val}\n")
        f.write(",".join(TRIGGER_COLUMNS) + "\n")
        for e in log:
            phase = "" if e.tracker_phase_deg is None else f"{e.tracker_phase_deg:.6f}"
            f.write(f"{e.sample_index},{e.time_s:.6f},{e.algorithm},{phase},"
                    f"{e.amplitude_uv:.6f},{int(e.delivered)},"
                    f"{e.suppression_reason},{int(e.on_window)}\n")


def read_trigger_log(path, n_samples: Optional[int] = None):
    """Returns (provenance dict, list of row dicts with typed fields).

    A negative sample_index is refused, and so is one at or past
    ``n_samples`` when the recording's length is given.
    """
    from .pipeline import LoggedTrigger
    provenance = {}
    rows = []
    saw_header = False
    for ln, line in _lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, val = body.partition("=")
            provenance[key.strip()] = val.strip()
            continue
        if not saw_header:
            if line.split(",") != list(TRIGGER_COLUMNS):
                raise FileFormatError(f"{path}:{ln}: unexpected column header")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != len(TRIGGER_COLUMNS):
            raise FileFormatError(f"{path}:{ln}: expected "
                                  f"{len(TRIGGER_COLUMNS)} fields")
        if parts[6] not in REASONS:
            raise FileFormatError(f"{path}:{ln}: unknown suppression_reason {parts[6]!r}")
        try:
            rows.append(LoggedTrigger(
                sample_index=int(parts[0]),
                time_s=float(parts[1]),
                algorithm=parts[2],
                tracker_phase_deg=float(parts[3]) if parts[3] else None,
                amplitude_uv=float(parts[4]),
                delivered=bool(int(parts[5])),
                suppression_reason=parts[6],
                on_window=bool(int(parts[7])),
            ))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{ln}: {exc}")
        idx = rows[-1].sample_index
        if idx < 0 or (n_samples is not None and idx >= n_samples):
            limit = "" if n_samples is None else f" of {n_samples} samples"
            raise FileFormatError(
                f"{path}:{ln}: sample_index {idx} outside the recording{limit}")
    if not saw_header:
        raise FileFormatError(f"{path}: missing column header")
    return provenance, rows


def parse_config_text(text: str) -> dict:
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(f"line {ln}: expected key = value")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _coerce(value: str, like) -> object:
    if isinstance(like, bool):
        v = _BOOL.get(value.lower())
        if v is None:
            raise ConfigurationError(f"expected a boolean, got {value!r}")
        return v
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    if isinstance(like, tuple):
        return tuple(float(v) for v in value.split(","))
    if like is None:       # optional numeric field (unset default)
        return float(value)
    return value


def apply_config(base, overrides: dict):
    """New dataclass instance with string overrides coerced per field."""
    fields = dict(base.__dict__)
    for key, raw in overrides.items():
        if key not in fields:
            raise ConfigurationError(
                f"unknown configuration key {key!r} for {type(base).__name__}")
        try:
            fields[key] = _coerce(raw, fields[key])
        except ValueError:
            raise ConfigurationError(f"bad value for {key}: {raw!r}")
    return type(base)(**fields)


def parse_grid(raw: dict, base, fixed=()) -> dict:
    """{key: [values]} from {key: "v1,v2,..."}, each value coerced like the
    field of ``base``. Keys that ``base`` lacks, or that are ``fixed``,
    are refused."""
    grid = {}
    for key, text in raw.items():
        if key not in base.__dict__ or key in fixed:
            raise ConfigurationError(
                f"{key!r} is not a grid parameter of {type(base).__name__}")
        vals = [v.strip() for v in text.split(",") if v.strip()]
        try:
            grid[key] = [_coerce(v, base.__dict__[key]) for v in vals]
        except ValueError:
            raise ConfigurationError(f"bad value for {key}: {text!r}")
    return grid


def config_echo(cfg) -> str:
    """Flat one-line echo of a dataclass config for provenance headers."""
    return ";".join(f"{k}={v}" for k, v in sorted(cfg.__dict__.items()))


def tracker_config_from(overrides: dict) -> TrackerConfig:
    return apply_config(TrackerConfig(), overrides)


def gate_config_from(overrides: dict) -> GateConfig:
    return apply_config(GateConfig(), overrides)
