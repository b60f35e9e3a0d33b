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
samples are NaN, which a recording would refuse.

Trigger logs are CSV with a ``#``-prefixed provenance header (library
version, SHA-256 of the input file, configuration echo). No timestamps:
rerunning a command on the same input produces byte-identical output.

Hypnograms are ``epoch_index,stage`` CSV, contiguous from epoch 0; that is
the only form ``read_hypnogram`` reads. The compact run-length form
"W*10 N1*3 N2*30" (parse_stage_runs) is read only by ``simulate --stages``.

Grid files (``optimize --grid``) are ``key = v1,v2,...`` lines, no key twice.
Every text file is read by ``_lines``: lines stripped; blank lines, ``#``
comments and a leading byte-order mark skipped. Where a file carries
``# key=value`` header lines (CSV recordings, trigger logs), they come
before the first data line, each key once.
"""
from __future__ import annotations

import hashlib
import math
import os
import struct
from typing import Optional

import numpy as np

from .errors import ConfigurationError, FileFormatError, StreamIntegrityError
from .gate import REASONS
from .oracle import PhaseTrack
from .recording import MAX_STAGE_EPOCHS, EegRecording, STAGES
from .trackers import ALGORITHMS

MAGIC = b"SWPH"
FORMAT_VERSION = 1
_HEAD = struct.Struct("<4sHdH")   # magic, version, fs, label length
_TAIL = struct.Struct("<Qd")      # sample count, start time


def hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def split_key_value(text: str) -> tuple:
    """("key", "value") from "key = value", both sides stripped."""
    key, _, val = text.partition("=")
    return key.strip(), val.strip()


def _lines(path, header: Optional[dict] = None):
    """Numbered, stripped lines of a UTF-8 text file (a leading byte-order
    mark dropped), blank lines and ``#`` comments skipped. Each ``# key=value``
    comment is stored in ``header`` when one is given; such a line after the
    first data line, a key given twice and undecodable bytes raise."""
    data = False
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            for ln, line in enumerate(f, 1):
                line = line.strip()
                if line.startswith("#"):
                    if header is not None and "=" in line:
                        key, val = split_key_value(line[1:])
                        if data or key in header:
                            why = "after the data" if data else "given twice"
                            raise FileFormatError(f"{path}:{ln}: header key {key!r} {why}")
                        header[key] = val
                elif line:
                    data = True
                    yield ln, line
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
        raise FileFormatError(f"{f.name}: truncated file: expected {n} bytes for {what}")
    return data


def _float32_samples(path, samples) -> np.ndarray:
    """The samples as stored, little-endian float32; a finite sample past
    the float32 range is refused. NaN (a phase track's invalid sample) passes."""
    try:
        with np.errstate(over="raise"):
            return np.asarray(samples, dtype="<f4")
    except FloatingPointError:
        raise StreamIntegrityError(f"{path}: a sample exceeds the float32 range "
                                   f"(|x| > {np.finfo(np.float32).max:.4g} uV)") from None


def _write_binary(path, samples, fs: float, label: str, start_time: float) -> None:
    """The binary container, for a recording or a phase track."""
    label = label.encode("utf-8")
    samples = _float32_samples(path, samples)
    with open(path, "wb") as f:
        f.write(_HEAD.pack(MAGIC, FORMAT_VERSION, fs, len(label)))
        f.write(label)
        f.write(_TAIL.pack(len(samples), start_time))
        f.write(samples.tobytes())


def _read_binary(path):
    """(samples, fs, label, start time) of the binary container, the samples
    as float64 and unchecked: a recording or a phase track checks its own."""
    with open(path, "rb") as f:
        magic, version, fs, label_len = _HEAD.unpack(_read_exact(f, _HEAD.size, "header"))
        if magic != MAGIC:
            raise FileFormatError(f"{path}: not a recording file (bad magic)")
        if version != FORMAT_VERSION:
            raise FileFormatError(f"{path}: unsupported format version {version}")
        try:
            label = _read_exact(f, label_len, "label").decode("utf-8")
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: label is not UTF-8") from None
        count, start = _TAIL.unpack(_read_exact(f, _TAIL.size, "count and start time"))
        body_bytes = os.fstat(f.fileno()).st_size - f.tell()
        if count > body_bytes // 4:
            raise FileFormatError(f"{path}: truncated file: {count} samples in the header")
        body = _read_exact(f, 4 * count, "sample data")
        extra = f.read(1)
        if extra:
            raise FileFormatError(f"{path}: trailing bytes after sample data")
    return np.frombuffer(body, dtype="<f4").astype(np.float64), fs, label, start


def write_recording_binary(path, recording: EegRecording) -> None:
    _write_binary(path, recording.samples, recording.fs, recording.label, recording.start_time)


def read_recording_binary(path) -> EegRecording:
    samples, fs, label, start = _read_binary(path)
    return _recording(path, samples=samples, fs=fs, label=label, start_time=start)


def write_recording_csv(path, recording: EegRecording) -> None:
    samples = _float32_samples(path, recording.samples)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# fs={recording.fs!r}\n")
        f.write(f"# label={recording.label}\n")
        f.write(f"# start_time={recording.start_time!r}\n")
        for v in samples:
            f.write(f"{float(v)!r}\n")


def read_recording_csv(path) -> EegRecording:
    header = {}
    values = []
    for ln, line in _lines(path, header):
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
    phase = np.where(track.valid, track.phase_deg, math.nan)
    _write_binary(path, phase, track.fs, "phase_deg", 0.0)


def read_phase_track(path) -> PhaseTrack:
    phase, fs, label, _ = _read_binary(path)
    if label != "phase_deg":
        raise FileFormatError(f"{path}: not a phase track (label {label!r})")
    valid = np.isfinite(phase)
    # an invalid sample reads as 0 deg, and the rate passes a recording's check
    rec = _recording(path, samples=np.where(valid, phase, 0.0), fs=fs)
    return PhaseTrack(phase_deg=rec.samples, valid=valid, fs=rec.fs)


def write_hypnogram(path, stages) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("epoch_index,stage\n")
        for i, s in enumerate(stages):
            f.write(f"{i},{s}\n")


def read_hypnogram(path) -> list:
    stages = []
    for row, (ln, line) in enumerate(_lines(path)):
        if row == 0 and line.lower().startswith("epoch_index"):
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
    ``n_samples`` when the recording's length is given. The algorithm must
    be known, the delivered and on_window flags must be 0 or 1, the numbers
    finite, and a row is delivered exactly when its suppression_reason is empty.
    """
    from .pipeline import LoggedTrigger
    provenance = {}
    rows = []
    saw_header = False
    for ln, line in _lines(path, provenance):
        if not saw_header:
            if line.split(",") != list(TRIGGER_COLUMNS):
                raise FileFormatError(f"{path}:{ln}: unexpected column header")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != len(TRIGGER_COLUMNS):
            raise FileFormatError(f"{path}:{ln}: expected "
                                  f"{len(TRIGGER_COLUMNS)} fields")
        if parts[2] not in ALGORITHMS:
            raise FileFormatError(f"{path}:{ln}: unknown algorithm {parts[2]!r}")
        if parts[6] not in REASONS:
            raise FileFormatError(f"{path}:{ln}: unknown suppression_reason {parts[6]!r}")
        for name, flag in (("delivered", parts[5]), ("on_window", parts[7])):
            if flag not in ("0", "1"):
                raise FileFormatError(f"{path}:{ln}: {name} must be 0 or 1, got {flag!r}")
        if (parts[5] == "1") != (parts[6] == ""):
            raise FileFormatError(f"{path}:{ln}: delivered={parts[5]} disagrees with "
                                  f"suppression_reason {parts[6]!r}")
        try:
            idx = int(parts[0])
            time_s = float(parts[1])
            phase = float(parts[3]) if parts[3] else None
            amplitude = float(parts[4])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{ln}: {exc}")
        for name, v in (("time_s", time_s), ("tracker_phase_deg", phase),
                        ("amplitude_uv", amplitude)):
            if v is not None and not math.isfinite(v):
                raise FileFormatError(f"{path}:{ln}: {name} must be finite, got {v!r}")
        if idx < 0 or (n_samples is not None and idx >= n_samples):
            limit = "" if n_samples is None else f" of {n_samples} samples"
            raise FileFormatError(
                f"{path}:{ln}: sample_index {idx} outside the recording{limit}")
        rows.append(LoggedTrigger(idx, time_s, parts[2], phase, amplitude,
                                  parts[5] == "1", parts[6], parts[7] == "1"))
    if not saw_header:
        raise FileFormatError(f"{path}: missing column header")
    return provenance, rows


def read_config(path) -> dict:
    """{key: value} from a file of ``key = value`` lines; a line without
    ``=`` or a key given twice is refused."""
    out = {}
    for ln, line in _lines(path):
        if "=" not in line:
            raise FileFormatError(f"{path}:{ln}: expected key = value")
        key, val = split_key_value(line)
        if key in out:
            raise FileFormatError(f"{path}:{ln}: key {key!r} given twice")
        out[key] = val
    return out


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _coerce(value: str, like) -> object:
    """value as the type of like; ValueError when it is not one."""
    if isinstance(like, bool):
        v = _BOOL.get(value.lower())
        if v is None:
            raise ValueError(value)
        return v
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    if isinstance(like, tuple):
        return tuple(float(v) for v in value.split(","))
    if like is None:       # optional numeric field (unset default)
        return None if value == "None" else float(value)
    return value


def apply_config(base, overrides: dict, fixed=()):
    """New dataclass instance with string overrides coerced per field. Keys
    that ``base`` lacks, or that are ``fixed`` (the caller sets them some
    other way), are refused."""
    fields = dict(base.__dict__)
    for key, raw in overrides.items():
        if key not in fields:
            raise ConfigurationError(
                f"unknown configuration key {key!r} for {type(base).__name__}")
        if key in fixed:
            raise ConfigurationError(
                f"{key!r} of {type(base).__name__} cannot be overridden here")
        try:
            fields[key] = _coerce(raw, fields[key])
        except ValueError:
            raise ConfigurationError(f"bad value for {key}: {raw!r}")
    return type(base)(**fields)


def parse_grid(raw: dict, base, fixed) -> dict:
    """{key: [values]} from {key: "v1,v2,..."}, each value coerced and
    refused as ``apply_config`` does for an override of ``base``."""
    grid = {}
    for key, text in raw.items():
        vals = [v.strip() for v in text.split(",") if v.strip()]
        grid[key] = [getattr(apply_config(base, {key: v}, fixed), key) for v in vals]
    return grid


def config_echo(cfg) -> str:
    """Flat one-line echo of a dataclass config for provenance headers."""
    return ";".join(f"{k}={v}" for k, v in sorted(cfg.__dict__.items()))


def parse_config_echo(echo: Optional[str], base):
    """Inverse of ``config_echo``: base with the echoed fields applied, each
    coerced and refused as ``apply_config`` does for an override; base
    itself when there is no echo (None)."""
    if echo is None:
        return base
    return apply_config(base, dict(map(split_key_value, echo.split(";"))))
