"""Label post-processing and event-based scoring.

A prediction track holds per-window positive-class probabilities for one
recording plus the ground-truth events expressed as window-index ranges.
Scoring is event-based: an event counts as detected when at least one of
its windows is predicted positive, and a false alarm is one maximal run of
consecutive positive windows that never touches a truth event.  FP rates
pool alarms over duration rather than averaging per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eegio import SeizureInterval
from .errors import ConfigError, MetricError

DEFAULT_THRESHOLD = 0.5
POSTPROCESS_METHODS = ("none", "majority", "minpool", "majority+minpool")


def _check_window(w: int) -> None:
    if not isinstance(w, int) or w < 1 or w % 2 == 0:
        raise ConfigError(f"smoothing window must be odd and >= 1, got {w}")


def _check_labels(labels: np.ndarray) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ConfigError("labels must be one-dimensional")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ConfigError("labels must be binary")
    return arr.astype(np.int64)


def _sliding(arr: np.ndarray, w: int) -> np.ndarray:
    half = w // 2
    padded = np.pad(arr, half, mode="edge")
    return np.lib.stride_tricks.sliding_window_view(padded, w)


def smooth_majority(labels, w: int) -> np.ndarray:
    """Replace each label by the majority of its w-window (edges replicated)."""
    _check_window(w)
    arr = _check_labels(labels)
    if arr.size == 0:
        return arr
    return (_sliding(arr, w).sum(axis=-1) * 2 > w).astype(np.int64)


def smooth_minpool(labels, w: int) -> np.ndarray:
    """Sliding-window minimum with edge replication: binary erosion."""
    _check_window(w)
    arr = _check_labels(labels)
    if arr.size == 0:
        return arr
    return _sliding(arr, w).min(axis=-1)


def postprocess_labels(labels, method: str, w: int) -> np.ndarray:
    """Apply one of the named smoothing setups (majority runs first)."""
    if method not in POSTPROCESS_METHODS:
        raise ConfigError(f"unknown post-processing method {method!r}")
    arr = _check_labels(labels)
    if method in ("majority", "majority+minpool"):
        arr = smooth_majority(arr, w)
    if method in ("minpool", "majority+minpool"):
        arr = smooth_minpool(arr, w)
    return arr


def truth_events_from_intervals(
    intervals: list[SeizureInterval],
    n_windows: int,
    window_s: float,
    sample_rate_hz: float,
) -> list[tuple[int, int]]:
    """Convert annotated intervals to half-open window-index ranges.

    A window belongs to an event when they share at least one sample, which
    makes each event a contiguous index run.  Ranges that would land fully
    inside the discarded trailing partial window vanish; overlapping ranges
    merge.
    """
    T = int(round(window_s * sample_rate_hz))
    ranges: list[list[int]] = []
    for iv in sorted(intervals, key=lambda iv: iv.start_s):
        lo = int(np.floor(iv.start_s * sample_rate_hz)) // T
        hi = -(-int(np.ceil(iv.end_s * sample_rate_hz)) // T)
        lo, hi = max(lo, 0), min(hi, n_windows)
        if lo >= hi:
            continue
        if ranges and lo <= ranges[-1][1]:
            ranges[-1][1] = max(ranges[-1][1], hi)
        else:
            ranges.append([lo, hi])
    return [(a, b) for a, b in ranges]


@dataclass(frozen=True)
class PredictionTrack:
    """Per-window probabilities and truth events for one recording."""

    record_id: str
    probs: np.ndarray
    truth_events: list[tuple[int, int]] = field(default_factory=list)
    window_s: float = 8.0
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1:
            raise ConfigError("probs must be one-dimensional")
        if probs.size and (
            not np.isfinite(probs).all() or probs.min() < 0 or probs.max() > 1
        ):
            raise ConfigError("probs must be finite and lie in [0, 1]")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.window_s <= 0:
            raise ConfigError("window_s must be positive")
        prev = 0
        for a, b in self.truth_events:
            if not 0 <= a < b <= probs.size:
                raise ConfigError(f"truth event ({a}, {b}) out of bounds")
            if a < prev:
                raise ConfigError("truth events must be disjoint and sorted")
            prev = b

    @staticmethod
    def from_labels(
        record_id: str,
        labels,
        truth_events: list[tuple[int, int]] | None = None,
        window_s: float = 8.0,
    ) -> "PredictionTrack":
        arr = _check_labels(labels)
        return PredictionTrack(
            record_id=record_id,
            probs=arr.astype(np.float64),
            truth_events=list(truth_events or []),
            window_s=window_s,
        )

    @property
    def n_windows(self) -> int:
        return int(self.probs.size)

    @property
    def duration_h(self) -> float:
        return self.n_windows * self.window_s / 3600.0

    def labels(self) -> np.ndarray:
        return (self.probs >= self.threshold).astype(np.int64)

    def with_labels(self, labels) -> "PredictionTrack":
        """Same track with predictions replaced by hard labels."""
        arr = _check_labels(labels)
        if arr.size != self.n_windows:
            raise ConfigError("replacement labels must keep the window count")
        return PredictionTrack(
            record_id=self.record_id,
            probs=arr.astype(np.float64),
            truth_events=list(self.truth_events),
            window_s=self.window_s,
            threshold=self.threshold,
        )


@dataclass(frozen=True)
class AlarmReport:
    alarms: list[tuple[int, int]]
    false_window_count: int
    duration_h: float

    @property
    def rate(self) -> float:
        return len(self.alarms) / self.duration_h


@dataclass(frozen=True)
class EventScore:
    detected_events: int
    total_events: int
    false_alarms: int
    duration_h: float

    @property
    def sensitivity(self) -> float | None:
        """Detected fraction; None when the track carries no events."""
        if self.total_events == 0:
            return None
        return self.detected_events / self.total_events

    @property
    def fp_per_h(self) -> float:
        if self.duration_h <= 0:
            raise MetricError("cannot rate a zero-duration score")
        return self.false_alarms / self.duration_h


def event_sensitivity(track: PredictionTrack) -> tuple[float | None, list[bool]]:
    """Detected fraction plus per-event flags; None when no events exist."""
    labels = track.labels()
    detected = [bool(labels[a:b].any()) for a, b in track.truth_events]
    if not detected:
        return None, []
    return sum(detected) / len(detected), detected


def false_positives_per_hour(track: PredictionTrack) -> AlarmReport:
    """Merged false-alarm runs and their pooled hourly rate."""
    if track.n_windows == 0:
        raise MetricError("cannot rate a zero-duration track")
    labels = track.labels()
    alarms: list[tuple[int, int]] = []
    false_windows = 0
    i = 0
    n = labels.size
    while i < n:
        if labels[i] == 0:
            i += 1
            continue
        j = i
        while j < n and labels[j] == 1:
            j += 1
        touches_truth = any(
            max(i, a) < min(j, b) for a, b in track.truth_events
        )
        if not touches_truth:
            alarms.append((i, j))
            false_windows += j - i
        i = j
    return AlarmReport(
        alarms=alarms,
        false_window_count=false_windows,
        duration_h=track.duration_h,
    )


def score_track(track: PredictionTrack) -> EventScore:
    _, detected = event_sensitivity(track)
    report = false_positives_per_hour(track)
    return EventScore(
        detected_events=sum(detected),
        total_events=len(track.truth_events),
        false_alarms=len(report.alarms),
        duration_h=track.duration_h,
    )


def aggregate(scores: list[EventScore]) -> EventScore:
    """Pool events and alarm rates across records (duration-weighted)."""
    if not scores:
        raise MetricError("nothing to aggregate")
    return EventScore(
        detected_events=sum(s.detected_events for s in scores),
        total_events=sum(s.total_events for s in scores),
        false_alarms=sum(s.false_alarms for s in scores),
        duration_h=sum(s.duration_h for s in scores),
    )
