"""EDF ingestion, the window store, and the window layout of a corpus.

Supports the EDF subset used by CHB-MIT-style corpora: one sampling rate for
all signals, continuous records, little-endian 16-bit samples, and seizure
annotations in a sidecar CSV (``record_id,start_s,end_s`` lines) rather than
an in-band EDF+ annotations channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    AnnotationError,
    ChannelError,
    ConfigError,
    ParseError,
    UnsupportedError,
)
from .nn.checkpoint import read_json, write_atomic

EDF_HEADER_BYTES = 256
EDF_SIGNAL_HEADER_BYTES = 256
DIGITAL_MIN = -32768
DIGITAL_MAX = 32767


@dataclass(frozen=True)
class SeizureInterval:
    """A seizure event in seconds from record start, half-open [start, end)."""

    start_s: float
    end_s: float

    def __post_init__(self):
        if not (0 <= self.start_s < self.end_s):
            raise ValueError(
                f"invalid seizure interval [{self.start_s}, {self.end_s})"
            )


@dataclass
class Recording:
    """A multi-channel EEG recording in physical units."""

    subject_id: str
    record_id: str
    sample_rate_hz: int
    channels: list[str]
    samples: np.ndarray  # (C, N) float64
    seizures: list[SeizureInterval] = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (channels, n_samples) array")
        if self.samples.shape[0] != len(self.channels):
            raise ValueError(
                f"{len(self.channels)} channel labels but "
                f"{self.samples.shape[0]} sample rows"
            )
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        prev_end = 0.0
        for iv in sorted(self.seizures, key=lambda s: s.start_s):
            if iv.start_s < prev_end:
                raise ValueError("seizure intervals overlap")
            if iv.end_s > self.duration_s + 1e-9:
                raise ValueError(
                    f"seizure interval ends at {iv.end_s}s but record lasts "
                    f"{self.duration_s}s"
                )
            prev_end = iv.end_s

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True)
class Window:
    """One labeled window with provenance: a row view of its dataset."""

    subject_id: str
    record_id: str
    index: int
    data: np.ndarray  # (C, T) view of WindowedDataset.X
    label: int


@dataclass(eq=False)
class WindowedDataset:
    """Non-overlapping labeled windows stored as columns, one row per window.

    ``X`` is one C-contiguous (N, C, T) ``model.COMPUTE_DTYPE`` (float32)
    array, as ``training.prepare_recordings`` fills it and as windows reach
    the model.  ``y`` (int64 labels), ``subject``, ``record`` and ``index``
    (position within its record) are length-N columns.  Every column is
    read-only, so ``matrix()`` and the ``Window`` rows hand out views
    without copying.
    """

    X: np.ndarray
    y: np.ndarray
    subject: np.ndarray
    record: np.ndarray
    index: np.ndarray
    window_s: float
    sample_rate_hz: int

    def __post_init__(self):
        for column in (self.X, self.y, self.subject, self.record, self.index):
            column.flags.writeable = False

    @property
    def samples_per_window(self) -> int:
        return self.X.shape[2]

    def __len__(self):
        return len(self.X)

    def __iter__(self):
        return map(
            Window,
            self.subject.tolist(),
            self.record.tolist(),
            self.index.tolist(),
            self.X,
            self.y.tolist(),
        )

    @property
    def windows(self) -> list[Window]:
        return list(self)

    def labels(self) -> np.ndarray:
        return self.y

    def matrix(self) -> np.ndarray:
        """The (N, C, T) window array itself, not a copy."""
        return self.X

    def subject_ids(self) -> list[str]:
        return list(dict.fromkeys(self.subject.tolist()))

    def record_ids(self) -> list[str]:
        return list(dict.fromkeys(self.record.tolist()))

    def subset(self, predicate) -> "WindowedDataset":
        """A copy holding the windows ``predicate`` accepts, in order."""
        mask = np.fromiter(map(predicate, self), dtype=bool, count=len(self))
        return replace(
            self,
            X=self.X[mask],
            y=self.y[mask],
            subject=self.subject[mask],
            record=self.record[mask],
            index=self.index[mask],
        )


# ---------------------------------------------------------------------------
# EDF parsing / writing
# ---------------------------------------------------------------------------


def _field(data: bytes, pos: int, n: int, what: str, kind=str):
    """(``kind`` of the stripped latin-1 field of ``n`` bytes at ``pos``,
    the position after it); ``kind`` is str, int or float."""
    if pos + n > len(data):
        raise ParseError("truncated header", offset=len(data))
    raw = data[pos : pos + n].decode("latin-1")
    try:
        return kind(raw.strip()), pos + n
    except ValueError:
        adjective = "non-integer" if kind is int else "non-numeric"
        raise ParseError(f"{adjective} {what} field {raw!r}", offset=pos) from None


# The per-signal header, stored field-major (every signal's label, then every
# signal's transducer, ...): field name, width in bytes, and its type.
_SIGNAL_FIELDS = (
    ("label", 16, str),
    ("transducer", 80, str),
    ("physical-dimension", 8, str),
    ("physical-min", 8, float),
    ("physical-max", 8, float),
    ("digital-min", 8, int),
    ("digital-max", 8, int),
    ("prefiltering", 80, str),
    ("samples-per-record", 8, int),
    ("reserved", 32, str),
)


def parse_edf(data: bytes) -> Recording:
    """Parse EDF bytes into a Recording with physical-unit samples.

    Raises ParseError on malformed headers (with byte offset), and
    UnsupportedError for EDF features outside the CHB-MIT-style subset
    (mixed sampling rates, EDF+ annotation channels, non-integer rates).
    """
    version, pos = _field(data, 0, 8, "version")
    if version != "0":
        raise ParseError(f"unsupported EDF version {version!r}", offset=0)
    patient, pos = _field(data, pos, 80, "patient")
    recording, pos = _field(data, pos, 80, "recording")
    # start date and time (8 bytes each), then the header-bytes field
    header_bytes, pos = _field(data, pos + 16, 8, "header-bytes", int)
    # 44 reserved bytes, then the record count
    n_records, pos = _field(data, pos + 44, 8, "record-count", int)
    record_duration, pos = _field(data, pos, 8, "record-duration", float)
    ns, pos = _field(data, pos, 4, "signal-count", int)

    if ns <= 0:
        raise ParseError("EDF declares zero signals", offset=pos - 4)
    if record_duration <= 0:
        raise ParseError(
            f"non-positive record duration {record_duration}", offset=pos - 12
        )
    if header_bytes != EDF_HEADER_BYTES + ns * EDF_SIGNAL_HEADER_BYTES:
        raise ParseError(
            f"header-bytes field {header_bytes} does not match "
            f"{EDF_HEADER_BYTES + ns * EDF_SIGNAL_HEADER_BYTES}",
            offset=184,
        )

    signal = {}
    for name, width, kind in _SIGNAL_FIELDS:
        signal[name] = []
        for i in range(ns):
            value, pos = _field(data, pos, width, f"{name}[{i}]", kind)
            signal[name].append(value)
    labels, spr = signal["label"], signal["samples-per-record"]
    phys_min, phys_max = signal["physical-min"], signal["physical-max"]
    dig_min, dig_max = signal["digital-min"], signal["digital-max"]

    if any(lab == "EDF Annotations" for lab in labels):
        raise UnsupportedError("EDF+ annotation channels are not supported")
    if any(s <= 0 for s in spr):
        raise ParseError("non-positive samples-per-record", offset=pos)
    if len(set(spr)) != 1:
        raise UnsupportedError(f"mixed sampling rates: samples-per-record {spr}")
    for i in range(ns):
        if dig_max[i] <= dig_min[i]:
            raise ParseError(
                f"signal {i} has empty digital range "
                f"[{dig_min[i]}, {dig_max[i]}]",
                offset=pos,
            )

    rate = spr[0] / record_duration
    if abs(rate - round(rate)) > 1e-9 or rate <= 0:
        raise UnsupportedError(f"non-integer sampling rate {rate}")
    rate = int(round(rate))

    record_bytes = sum(spr) * 2
    body = data[pos:]
    if n_records == -1:
        n_records = len(body) // record_bytes if record_bytes else 0
    if n_records < 0:
        raise ParseError(f"negative record count {n_records}", offset=236)
    if len(body) < n_records * record_bytes:
        raise ParseError(
            f"data section holds {len(body)} bytes, "
            f"{n_records * record_bytes} expected",
            offset=len(data),
        )

    if n_records == 0:
        samples = np.zeros((ns, 0), dtype=np.float64)
    else:
        raw = np.frombuffer(
            body, dtype="<i2", count=n_records * sum(spr)
        ).reshape(n_records, ns, spr[0])
        digital = raw.transpose(1, 0, 2).reshape(ns, n_records * spr[0])
        gain, offset = _gain_offset(phys_min, phys_max, dig_min, dig_max)
        samples = digital * gain[:, None] + offset[:, None]

    return Recording(
        subject_id=patient,
        record_id=recording,
        sample_rate_hz=rate,
        channels=labels,
        samples=samples,
    )


def _gain_offset(phys_min, phys_max, dig_min, dig_max):
    """Per-channel ``(gain, offset)`` arrays mapping digital samples to
    physical units: ``physical = digital * gain + offset``."""
    phys_min, dig_min = np.array(phys_min), np.array(dig_min)
    gain = (np.array(phys_max) - phys_min) / (np.array(dig_max) - dig_min)
    return gain, phys_min - dig_min * gain


def _fmt_field(value, width: int) -> bytes:
    s = str(value)
    if len(s) > width:
        raise ValueError(f"field {s!r} exceeds {width} ascii chars")
    return s.ljust(width).encode("latin-1")


def _fmt_float8(value: float) -> tuple[str, float]:
    """Format a float into 8 ascii chars; return them and the parsed-back value."""
    for fmt in ("%.8g", "%.7g", "%.6g", "%.5g", "%.4g", "%.3g"):
        s = fmt % value
        if len(s) <= 8:
            return s, float(s)
    raise ValueError(f"cannot format {value} in 8 chars")


def write_edf(rec: Recording) -> bytes:
    """Serialize a Recording to EDF bytes (16-bit quantization applied).

    The record must span a whole number of seconds (one EDF data record per
    second).  Physical ranges are chosen per channel to cover the data, so
    the round-trip error is at most one 16-bit quantization step.
    """
    fs = rec.sample_rate_hz
    n = rec.n_samples
    if n % fs != 0:
        raise ValueError("record length must be a whole number of seconds")
    n_records = n // fs
    ns = rec.n_channels

    # Outward-padded physical ranges, snapped to their 8-char ascii encoding
    # so quantization uses exactly the values a reader will see.
    pmin_text, pmax_text = [], []
    pmin_vals, pmax_vals = [], []
    for c in range(ns):
        x = rec.samples[c]
        lo = float(x.min(initial=0.0))
        hi = float(x.max(initial=0.0))
        if hi <= lo:
            lo, hi = lo - 1.0, hi + 1.0
        margin = 1e-3 * (hi - lo)
        t_lo, v_lo = _fmt_float8(lo - margin)
        t_hi, v_hi = _fmt_float8(hi + margin)
        if not (v_lo <= lo and hi <= v_hi):
            # ascii rounding moved an edge inward; widen once more
            t_lo, v_lo = _fmt_float8(lo - 10 * margin)
            t_hi, v_hi = _fmt_float8(hi + 10 * margin)
        pmin_text.append(t_lo)
        pmax_text.append(t_hi)
        pmin_vals.append(v_lo)
        pmax_vals.append(v_hi)

    header_bytes = EDF_HEADER_BYTES + ns * EDF_SIGNAL_HEADER_BYTES
    out = bytearray()
    out += _fmt_field("0", 8)
    out += _fmt_field(rec.subject_id[:80], 80)
    out += _fmt_field(rec.record_id[:80], 80)
    out += _fmt_field("01.01.00", 8)
    out += _fmt_field("00.00.00", 8)
    out += _fmt_field(header_bytes, 8)
    out += _fmt_field("", 44)
    out += _fmt_field(n_records, 8)
    out += _fmt_field(1, 8)  # one-second data records
    out += _fmt_field(ns, 4)
    signal = {
        "label": [lab[:16] for lab in rec.channels],
        "physical-dimension": ["uV"] * ns,
        "physical-min": pmin_text,
        "physical-max": pmax_text,
        "digital-min": [DIGITAL_MIN] * ns,
        "digital-max": [DIGITAL_MAX] * ns,
        "samples-per-record": [fs] * ns,
    }
    for name, width, _ in _SIGNAL_FIELDS:  # the rest stay blank
        for value in signal.get(name, [""] * ns):
            out += _fmt_field(value, width)

    gain, offset = _gain_offset(pmin_vals, pmax_vals, DIGITAL_MIN, DIGITAL_MAX)
    digital = np.rint((rec.samples - offset[:, None]) / gain[:, None])
    digital = np.clip(digital, DIGITAL_MIN, DIGITAL_MAX).astype("<i2")
    # records-major interleave: record 0 signal 0..ns, record 1 signal 0..ns
    interleaved = digital.reshape(ns, n_records, fs).transpose(1, 0, 2)
    out += interleaved.tobytes()
    return bytes(out)


def read_edf_file(path: str | Path) -> Recording:
    return parse_edf(Path(path).read_bytes())


def write_edf_file(path: str | Path, rec: Recording) -> None:
    write_atomic(path, write_edf(rec))


# ---------------------------------------------------------------------------
# Annotation CSV
# ---------------------------------------------------------------------------


def load_annotations(text: str) -> dict[str, list[SeizureInterval]]:
    """Parse annotation CSV text into per-record seizure intervals.

    Lines are ``record_id,start_s,end_s``; ``#`` starts a comment; blank
    lines are skipped.  Per record, intervals are sorted and overlapping
    ones merged.  Raises AnnotationError (with line number) on bad fields.
    """
    by_record: dict[str, list[tuple[float, float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise AnnotationError(
                f"expected 'record_id,start_s,end_s', got {raw!r}", line=lineno
            )
        record_id = parts[0]
        if not record_id:
            raise AnnotationError("empty record id", line=lineno)
        try:
            start = float(parts[1])
            end = float(parts[2])
        except ValueError:
            raise AnnotationError(
                f"non-numeric interval in {raw!r}", line=lineno
            ) from None
        if start < 0 or start >= end:
            raise AnnotationError(
                f"interval [{start}, {end}) must satisfy 0 <= start < end",
                line=lineno,
            )
        by_record.setdefault(record_id, []).append((start, end))

    result: dict[str, list[SeizureInterval]] = {}
    for record_id, pairs in by_record.items():
        pairs.sort()
        merged: list[list[float]] = []
        for start, end in pairs:
            if merged and start < merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        result[record_id] = [SeizureInterval(s, e) for s, e in merged]
    return result


# ---------------------------------------------------------------------------
# Corpus directory loading and window layout
# ---------------------------------------------------------------------------


def load_corpus(corpus_dir: str | Path) -> list[Recording]:
    """Load a generated corpus directory into annotated Recordings.

    Expects ``<subject>/<record>.edf`` files, an ``annotations.csv`` keyed by
    record id, and optionally a ``manifest.json`` (used for the file list
    when present so ordering matches generation order).  Raises
    ConfigError when the directory holds no record, the manifest is
    malformed or ``annotations.csv`` is not UTF-8, and AnnotationError for
    an interval that ends past its record.
    """
    root = Path(corpus_dir)
    ann_path = root / "annotations.csv"
    annotations = {}
    if ann_path.exists():
        try:
            text = ann_path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{ann_path} is not UTF-8: {exc}") from None
        annotations = load_annotations(text)

    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        manifest = read_json(manifest_path)
        records = manifest.get("records") if isinstance(manifest, dict) else None
        keys = ("subject_id", "record_id", "path")
        if not isinstance(records, list) or not all(
            isinstance(item, dict) and all(isinstance(item.get(k), str) for k in keys)
            for item in records
        ):
            raise ConfigError(
                f"{manifest_path} needs a 'records' list of objects with string "
                f"subject_id, record_id and path"
            )
        entries = [(r["subject_id"], r["record_id"], root / r["path"]) for r in records]
    else:
        entries = [(p.parent.name, p.stem, p) for p in sorted(root.glob("*/*.edf"))]
    if not entries:
        raise ConfigError(f"corpus directory {root} holds no records")

    recordings = []
    for subject_id, record_id, path in entries:
        rec = read_edf_file(path)
        seizures = annotations.get(record_id, [])
        for iv in seizures:
            if iv.end_s > rec.duration_s + 1e-9:
                raise AnnotationError(
                    f"record {record_id!r}: seizure [{iv.start_s}, {iv.end_s}) "
                    f"ends after the record's {rec.duration_s} s"
                )
        seizures = sorted(seizures, key=lambda s: s.start_s)
        recordings.append(
            replace(rec, subject_id=subject_id, record_id=record_id, seizures=seizures)
        )
    return recordings


def window_layout(recordings: list[Recording], window_s: float) -> tuple[int, list]:
    """Samples per window, and each record's count of whole windows.

    A trailing partial window is dropped, never padded.  Raises ChannelError
    or UnsupportedError when records differ in channel count or sample rate,
    and ConfigError when ``window_s`` is under one sample.
    """
    if not recordings:
        raise ValueError("no recordings given")
    first = recordings[0]
    for rec in recordings[1:]:
        if rec.n_channels != first.n_channels:
            raise ChannelError(
                f"record {rec.record_id!r} has {rec.n_channels} channels, "
                f"record {first.record_id!r} has {first.n_channels}"
            )
        if rec.sample_rate_hz != first.sample_rate_hz:
            raise UnsupportedError(
                f"record {rec.record_id!r} is sampled at {rec.sample_rate_hz} Hz, "
                f"record {first.record_id!r} at {first.sample_rate_hz} Hz"
            )
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    fs = first.sample_rate_hz
    # at most one sample past the longest record, so a huge window_s stays finite
    T = int(round(min(window_s * fs, 1 + max(r.n_samples for r in recordings))))
    if T < 1:
        raise ConfigError(
            f"window_s {window_s} is shorter than one sample at {fs} Hz"
        )
    return T, [rec.n_samples // T for rec in recordings]
