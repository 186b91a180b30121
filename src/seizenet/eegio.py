"""EDF ingestion and window segmentation.

Supports the EDF subset used by CHB-MIT-style corpora: one sampling rate for
all signals, continuous records, little-endian 16-bit samples, and seizure
annotations in a sidecar CSV (``record_id,start_s,end_s`` lines) rather than
an in-band EDF+ annotations channel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    AnnotationError,
    ChannelError,
    ParseError,
    UnsupportedError,
)

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

    def duration_s(self) -> float:
        return self.end_s - self.start_s


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

    def with_seizures(self, seizures: list[SeizureInterval]) -> "Recording":
        """Return a copy carrying ``seizures`` (validated against duration)."""
        return replace(self, seizures=sorted(seizures, key=lambda s: s.start_s))


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

    ``X`` is a C-contiguous (N, C, T) float64 array; ``y`` (int64 labels),
    ``subject``, ``record`` and ``index`` (position within its record) are
    length-N columns.  Every column is read-only, so ``matrix()`` and the
    ``Window`` rows hand out views without copying.
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
    def channel_count(self) -> int:
        return self.X.shape[1]

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


def _ascii(data: bytes, pos: int, n: int) -> tuple[str, int]:
    if pos + n > len(data):
        raise ParseError("truncated header", offset=len(data))
    return data[pos : pos + n].decode("latin-1"), pos + n


def _int_field(data: bytes, pos: int, n: int, what: str) -> tuple[int, int]:
    raw, newpos = _ascii(data, pos, n)
    try:
        return int(raw.strip()), newpos
    except ValueError:
        raise ParseError(f"non-integer {what} field {raw!r}", offset=pos) from None


def _float_field(data: bytes, pos: int, n: int, what: str) -> tuple[float, int]:
    raw, newpos = _ascii(data, pos, n)
    try:
        return float(raw.strip()), newpos
    except ValueError:
        raise ParseError(f"non-numeric {what} field {raw!r}", offset=pos) from None


def parse_edf(data: bytes) -> Recording:
    """Parse EDF bytes into a Recording with physical-unit samples.

    Raises ParseError on malformed headers (with byte offset), and
    UnsupportedError for EDF features outside the CHB-MIT-style subset
    (mixed sampling rates, EDF+ annotation channels, non-integer rates).
    """
    pos = 0
    version, pos = _ascii(data, pos, 8)
    if version.strip() != "0":
        raise ParseError(f"unsupported EDF version {version.strip()!r}", offset=0)
    patient, pos = _ascii(data, pos, 80)
    recording, pos = _ascii(data, pos, 80)
    _, pos = _ascii(data, pos, 8)  # start date
    _, pos = _ascii(data, pos, 8)  # start time
    header_bytes, pos = _int_field(data, pos, 8, "header-bytes")
    _, pos = _ascii(data, pos, 44)  # reserved
    n_records, pos = _int_field(data, pos, 8, "record-count")
    record_duration, pos = _float_field(data, pos, 8, "record-duration")
    ns, pos = _int_field(data, pos, 4, "signal-count")

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

    # Signal headers are field-major: all labels, then all transducers, ...
    labels = []
    for _ in range(ns):
        lab, pos = _ascii(data, pos, 16)
        labels.append(lab.strip())
    for _ in range(ns):  # transducer
        _, pos = _ascii(data, pos, 80)
    for _ in range(ns):  # physical dimension
        _, pos = _ascii(data, pos, 8)
    phys_min = []
    for i in range(ns):
        v, pos = _float_field(data, pos, 8, f"physical-min[{i}]")
        phys_min.append(v)
    phys_max = []
    for i in range(ns):
        v, pos = _float_field(data, pos, 8, f"physical-max[{i}]")
        phys_max.append(v)
    dig_min = []
    for i in range(ns):
        v, pos = _int_field(data, pos, 8, f"digital-min[{i}]")
        dig_min.append(v)
    dig_max = []
    for i in range(ns):
        v, pos = _int_field(data, pos, 8, f"digital-max[{i}]")
        dig_max.append(v)
    for _ in range(ns):  # prefiltering
        _, pos = _ascii(data, pos, 80)
    spr = []
    for i in range(ns):
        v, pos = _int_field(data, pos, 8, f"samples-per-record[{i}]")
        spr.append(v)
    for _ in range(ns):  # reserved
        _, pos = _ascii(data, pos, 32)

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
        gain = np.array(
            [
                (phys_max[i] - phys_min[i]) / (dig_max[i] - dig_min[i])
                for i in range(ns)
            ]
        )
        offset = np.array(
            [phys_min[i] - dig_min[i] * gain[i] for i in range(ns)]
        )
        samples = digital * gain[:, None] + offset[:, None]

    return Recording(
        subject_id=patient.strip(),
        record_id=recording.strip(),
        sample_rate_hz=rate,
        channels=labels,
        samples=samples,
    )


def _fmt_field(value, width: int) -> bytes:
    s = str(value)
    if len(s) > width:
        raise ValueError(f"field {s!r} exceeds {width} ascii chars")
    return s.ljust(width).encode("latin-1")


def _fmt_float8(value: float) -> tuple[bytes, float]:
    """Format a float into 8 ascii chars; return bytes and the parsed-back value."""
    for fmt in ("%.8g", "%.7g", "%.6g", "%.5g", "%.4g", "%.3g"):
        s = fmt % value
        if len(s) <= 8:
            return s.ljust(8).encode("latin-1"), float(s)
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
    pmin_bytes, pmax_bytes = [], []
    pmin_vals, pmax_vals = [], []
    for c in range(ns):
        x = rec.samples[c]
        lo = float(x.min(initial=0.0))
        hi = float(x.max(initial=0.0))
        if hi <= lo:
            lo, hi = lo - 1.0, hi + 1.0
        margin = 1e-3 * (hi - lo)
        b_lo, v_lo = _fmt_float8(lo - margin)
        b_hi, v_hi = _fmt_float8(hi + margin)
        if not (v_lo <= lo and hi <= v_hi):
            # ascii rounding moved an edge inward; widen once more
            b_lo, v_lo = _fmt_float8(lo - 10 * margin)
            b_hi, v_hi = _fmt_float8(hi + 10 * margin)
        pmin_bytes.append(b_lo)
        pmax_bytes.append(b_hi)
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
    for lab in rec.channels:
        out += _fmt_field(lab[:16], 16)
    for _ in range(ns):
        out += _fmt_field("", 80)  # transducer
    for _ in range(ns):
        out += _fmt_field("uV", 8)
    for b in pmin_bytes:
        out += b
    for b in pmax_bytes:
        out += b
    for _ in range(ns):
        out += _fmt_field(DIGITAL_MIN, 8)
    for _ in range(ns):
        out += _fmt_field(DIGITAL_MAX, 8)
    for _ in range(ns):
        out += _fmt_field("", 80)  # prefiltering
    for _ in range(ns):
        out += _fmt_field(fs, 8)
    for _ in range(ns):
        out += _fmt_field("", 32)

    gain = np.array(
        [
            (pmax_vals[i] - pmin_vals[i]) / (DIGITAL_MAX - DIGITAL_MIN)
            for i in range(ns)
        ]
    )
    offset = np.array([pmin_vals[i] - DIGITAL_MIN * gain[i] for i in range(ns)])
    digital = np.rint((rec.samples - offset[:, None]) / gain[:, None])
    digital = np.clip(digital, DIGITAL_MIN, DIGITAL_MAX).astype("<i2")
    # records-major interleave: record 0 signal 0..ns, record 1 signal 0..ns
    interleaved = digital.reshape(ns, n_records, fs).transpose(1, 0, 2)
    out += interleaved.tobytes()
    return bytes(out)


def read_edf_file(path: str | Path) -> Recording:
    return parse_edf(Path(path).read_bytes())


def write_edf_file(path: str | Path, rec: Recording) -> None:
    Path(path).write_bytes(write_edf(rec))


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------


def _seizure_sample_spans(seizures: list[SeizureInterval], fs: int) -> np.ndarray:
    """Seizure intervals as a (k, 2) array of half-open sample spans."""
    spans = [(np.floor(iv.start_s * fs), np.ceil(iv.end_s * fs)) for iv in seizures]
    return np.array(spans, dtype=np.int64).reshape(-1, 2)


def segment_windows(rec: Recording, window_s: float) -> WindowedDataset:
    """Cut a recording into consecutive fixed-length labeled windows.

    A window is labeled 1 iff it overlaps a seizure interval by at least one
    sample.  The trailing partial window is discarded, never padded.
    """
    return windows_from_recordings([rec], window_s)


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
# Corpus directory loading
# ---------------------------------------------------------------------------


def load_corpus(corpus_dir: str | Path) -> list[Recording]:
    """Load a generated corpus directory into annotated Recordings.

    Expects ``<subject>/<record>.edf`` files, an ``annotations.csv`` keyed by
    record id, and optionally a ``manifest.json`` (used for the file list
    when present so ordering matches generation order).  Raises
    AnnotationError for an interval that ends past its record.
    """
    root = Path(corpus_dir)
    ann_path = root / "annotations.csv"
    annotations = (
        load_annotations(ann_path.read_text()) if ann_path.exists() else {}
    )

    entries: list[tuple[str, str, Path]] = []
    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        for item in manifest["records"]:
            entries.append(
                (item["subject_id"], item["record_id"], root / item["path"])
            )
    else:
        for edf_path in sorted(root.glob("*/*.edf")):
            entries.append((edf_path.parent.name, edf_path.stem, edf_path))

    recordings = []
    for subject_id, record_id, path in entries:
        rec = read_edf_file(path)
        rec = replace(rec, subject_id=subject_id, record_id=record_id)
        seizures = annotations.get(record_id, [])
        for iv in seizures:
            if iv.end_s > rec.duration_s + 1e-9:
                raise AnnotationError(
                    f"record {record_id!r}: seizure [{iv.start_s}, {iv.end_s}) "
                    f"ends after the record's {rec.duration_s} s"
                )
        rec = rec.with_seizures(seizures)
        recordings.append(rec)
    return recordings


def windows_from_recordings(
    recordings: list[Recording], window_s: float = 8.0
) -> WindowedDataset:
    """Cut each recording as ``segment_windows`` does, windows in order.

    Raises ChannelError when records disagree in channel count and
    UnsupportedError when they disagree in sample rate.
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
    T = int(round(window_s * fs))
    if T < 1:
        raise ValueError(f"window_s {window_s} is shorter than one sample")

    counts = [rec.n_samples // T for rec in recordings]
    views, labels = [], []
    for rec, n in zip(recordings, counts):
        # (C, n*T) -> (n, C, T) is a view; the one copy is the concatenate
        C = rec.n_channels
        views.append(rec.samples[:, : n * T].reshape(C, n, T).transpose(1, 0, 2))
        starts = np.arange(n)[:, None] * T
        spans = _seizure_sample_spans(rec.seizures, fs)
        overlaps = (starts < spans[:, 1]) & (spans[:, 0] < starts + T)
        labels.append(overlaps.any(axis=1))
    # out= keeps X C-contiguous; concatenate alone keeps the views' layout
    X = np.empty((sum(counts), first.n_channels, T))
    return WindowedDataset(
        X=np.concatenate(views, out=X),
        y=np.concatenate(labels).astype(np.int64),
        subject=np.repeat([rec.subject_id for rec in recordings], counts),
        record=np.repeat([rec.record_id for rec in recordings], counts),
        index=np.concatenate([np.arange(n) for n in counts]),
        window_s=window_s,
        sample_rate_hz=fs,
    )
