"""Deterministic synthetic EEG corpus generation.

Background is per-channel pink noise; each subject carries a rhythmic burst
signature (a fixed center frequency in the theta-alpha range) that is added
at annotated intervals with a large amplitude gain, so seizure windows are
separable by band power and training-side overfit tests have headroom.
All randomness flows from one seed through named substreams, so corpora
regenerate bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .eegio import Recording, SeizureInterval, write_edf_file
from .errors import SpecError
from .nn.checkpoint import config_hash, json_text, read_json, write_atomic
from .rand import Rng

MIN_SEIZURE_GAP_S = 16.0
# ``write_edf`` stores each channel's physical range in 8 ASCII characters,
# which hold any value above -1e7 ("-9999999") but not every one below it.
# Samples are unit-variance pink noise times the amplitude plus bursts that
# peak at gain x amplitude, so amplitude x (gain + 10) under this bound keeps
# every sample, and the range's margin, inside it.
MAX_PEAK = 1e7


@dataclass(frozen=True)
class CorpusSpec:
    subjects: int = 4
    records_per_subject: int = 3
    record_s: float = 320.0
    seizures_per_record: int = 3
    seizure_len_s: tuple[float, float] = (12.0, 24.0)
    background_amplitude: float = 20.0
    seizure_gain: float = 4.0
    seizure_freq_range_hz: tuple[float, float] = (3.0, 12.0)
    sample_rate_hz: int = 256
    channels: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("seizure_len_s", "seizure_freq_range_hz"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if len(getattr(self, name)) != 2:
                raise SpecError(f"{name} must be a [low, high] pair")
        if not 0 < self.background_amplitude < math.inf:  # NaN too
            raise SpecError(f"background_amplitude must be finite and > 0, "
                            f"got {self.background_amplitude}")
        # ids keep two digits (s00_r00), so they sort in index order
        if not (1 <= self.subjects <= 100 and 1 <= self.records_per_subject <= 100):
            raise SpecError("need 1 to 100 subjects, and 1 to 100 records each")
        if self.seizures_per_record < 0:
            raise SpecError("seizures_per_record must be >= 0")
        if self.record_s <= 0 or self.sample_rate_hz <= 0 or self.channels < 1:
            raise SpecError("record length, rate, and channels must be positive")
        if not math.isfinite(self.record_s) or self.record_s != int(self.record_s):
            raise SpecError("record_s must be a whole number of seconds")
        # EDF's header holds the count of one-second records and the samples
        # per record in 8 digits, and the channel count in 4
        if max(self.record_s, self.sample_rate_hz) > 99_999_999 or self.channels > 9999:
            raise SpecError("EDF holds up to 99,999,999 s and Hz, and 9,999 channels")
        lo, hi = self.seizure_len_s
        if not 0.001 <= lo <= hi < math.inf:  # intervals are rounded to 1 ms
            raise SpecError(f"bad seizure length range {self.seizure_len_s}")
        if not self.seizure_gain >= 3.0:  # NaN too
            raise SpecError(
                f"seizure_gain must be >= 3 for separability, got "
                f"{self.seizure_gain}"
            )
        if not self.background_amplitude * (self.seizure_gain + 10) < MAX_PEAK:
            raise SpecError(
                f"background_amplitude x (seizure_gain + 10) must stay below "
                f"{MAX_PEAK:g} for the EDF physical range, got "
                f"{self.background_amplitude} x ({self.seizure_gain} + 10)"
            )
        f_lo, f_hi = self.seizure_freq_range_hz
        if not 0 < f_lo <= f_hi < self.sample_rate_hz / 2:
            raise SpecError(
                f"seizure frequency range {self.seizure_freq_range_hz} must "
                f"fit below Nyquist"
            )


def spec_hash(spec: CorpusSpec) -> str:
    return config_hash(asdict(spec))


def subject_id(index: int) -> str:
    return f"s{index:02d}"


def record_id(subject_index: int, rec_index: int) -> str:
    return f"s{subject_index:02d}_r{rec_index:02d}"


def pink_noise(rng: Rng, n: int) -> np.ndarray:
    """Unit-variance 1/f noise via spectral shaping."""
    freqs = np.fft.rfftfreq(n)
    spectrum = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
    spectrum[0] = 0.0
    spectrum[1:] /= np.sqrt(freqs[1:])
    x = np.fft.irfft(spectrum, n)
    return x / (x.std() + 1e-12)


def subject_signature_hz(spec: CorpusSpec, subject_index: int) -> float:
    """Per-subject seizure center frequency (stable across records)."""
    rng = Rng(spec.seed).child("corpus", subject_id(subject_index), "signature")
    lo, hi = spec.seizure_freq_range_hz
    return float(rng.uniform(lo, hi))


def _pack_intervals(
    spec: CorpusSpec, subject_index: int, rec_index: int
) -> list[SeizureInterval]:
    """One record's seizure intervals, or SpecError if they do not fit."""
    rng = Rng(spec.seed).child(
        "corpus", record_id(subject_index, rec_index), "intervals"
    )
    n = spec.seizures_per_record
    if n == 0:
        return []
    lo, hi = spec.seizure_len_s
    slack = -1.0  # the gaps alone overflow the record: draw no lengths
    if n <= spec.record_s / MIN_SEIZURE_GAP_S:
        durations = rng.uniform(lo, hi, size=n)
        slack = spec.record_s - durations.sum() - (n + 1) * MIN_SEIZURE_GAP_S
    if slack < 0:
        raise SpecError(
            f"cannot pack {n} seizures of up to {hi}s plus gaps into a "
            f"{spec.record_s}s record"
        )
    extras = rng.uniform(size=n + 1)
    extras = extras / extras.sum() * slack
    gaps = MIN_SEIZURE_GAP_S + extras
    intervals = []
    cursor = 0.0
    for i in range(n):
        start = round(cursor + gaps[i], 3)
        end = round(start + durations[i], 3)
        intervals.append(SeizureInterval(start, end))
        cursor = end
    return intervals


def generate_recording(
    spec: CorpusSpec, subject_index: int, rec_index: int
) -> Recording:
    """One annotated recording, bit-deterministic in (spec, indices)."""
    fs = spec.sample_rate_hz
    n = int(round(spec.record_s * fs))
    rid = record_id(subject_index, rec_index)
    rng = Rng(spec.seed).child("corpus", rid)

    samples = np.empty((spec.channels, n))
    for c in range(spec.channels):
        samples[c] = spec.background_amplitude * pink_noise(
            rng.child("bg", c), n
        )

    intervals = _pack_intervals(spec, subject_index, rec_index)
    freq = subject_signature_hz(spec, subject_index)
    burst_amp = spec.seizure_gain * spec.background_amplitude
    t = np.arange(n) / fs
    phase_rng = rng.child("phase")
    phases = phase_rng.uniform(0.0, 2.0 * np.pi, size=spec.channels)
    for iv in intervals:
        a = int(round(iv.start_s * fs))
        b = min(int(round(iv.end_s * fs)), n)
        envelope = np.hanning(b - a)
        for c in range(spec.channels):
            samples[c, a:b] += burst_amp * envelope * np.sin(
                2.0 * np.pi * freq * t[a:b] + phases[c]
            )

    return Recording(
        subject_id=subject_id(subject_index),
        record_id=rid,
        sample_rate_hz=fs,
        channels=[f"CH{c:02d}" for c in range(spec.channels)],
        samples=samples,
        seizures=intervals,
    )


def pack_corpus(spec: CorpusSpec) -> list[tuple[int, int]]:
    """The (subject, record) indices of the corpus, each record's seizures
    packed once to check that they fit: SpecError if one does not."""
    indices = [(s, r) for s in range(spec.subjects)
               for r in range(spec.records_per_subject)]
    for s, r in indices:
        _pack_intervals(spec, s, r)
    return indices


def generate_corpus(spec: CorpusSpec, out_dir: str | Path) -> dict:
    """Write `subject/record.edf` files, annotations.csv, and manifest.json.

    Returns the manifest as written.  Regenerating with an equal spec reproduces
    every byte.  ``pack_corpus`` runs before anything is written, so a spec
    that cannot be packed leaves no directory behind, and each file is
    written atomically.
    """
    root = Path(out_dir)
    records = []
    annotation_lines = []
    for s, r in pack_corpus(spec):
        rec = generate_recording(spec, s, r)
        rel_path = f"{rec.subject_id}/{rec.record_id}.edf"
        write_edf_file(root / rel_path, rec)
        for iv in rec.seizures:
            annotation_lines.append(f"{rec.record_id},{iv.start_s},{iv.end_s}")
        records.append(
            {
                "subject_id": rec.subject_id,
                "record_id": rec.record_id,
                "path": rel_path,
                "seizures": [[iv.start_s, iv.end_s] for iv in rec.seizures],
            }
        )
    annotations = "".join(line + "\n" for line in annotation_lines)
    write_atomic(root / "annotations.csv", annotations.encode("utf-8"))
    manifest = {
        "spec": asdict(spec),
        "spec_hash": spec_hash(spec),
        "records": records,
    }
    write_atomic(root / "manifest.json", json_text(manifest).encode("utf-8"))
    return read_json(root / "manifest.json")  # lists where the spec holds tuples
