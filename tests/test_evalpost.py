"""Post-processing and event scoring checks.

`oracle_score` below is a deliberately naive re-implementation (python
loops over every event and every run) used to cross-check the package
functions on a thousand random tracks.
"""

import numpy as np
import pytest

from seizenet.eegio import SeizureInterval
from seizenet.errors import ConfigError, MetricError
from seizenet.evalpost import (
    AlarmReport,
    EventScore,
    PredictionTrack,
    aggregate,
    event_sensitivity,
    false_positives_per_hour,
    postprocess_labels,
    score_track,
    smooth_majority,
    smooth_minpool,
    truth_events_from_intervals,
)
from seizenet.rand import Rng


def oracle_score(labels, truth, window_s=8.0):
    """Brute-force event detection and run merging."""
    detected = sum(1 for a, b in truth if any(labels[a:b]))
    alarms = []
    i, n = 0, len(labels)
    while i < n:
        if labels[i] != 1:
            i += 1
            continue
        j = i
        while j < n and labels[j] == 1:
            j += 1
        overlaps = any(max(i, a) < min(j, b) for a, b in truth)
        if not overlaps:
            alarms.append((i, j))
        i = j
    hours = n * window_s / 3600.0
    return detected, alarms, len(alarms) / hours


def random_track(rng: Rng):
    n = int(rng.integers(1, 65))
    labels = rng.integers(0, 2, size=n)
    truth = []
    cursor = 0
    while cursor < n and rng.uniform() < 0.6:
        a = int(rng.integers(cursor, n))
        b = int(rng.integers(a + 1, n + 1))
        truth.append((a, b))
        cursor = b + 1
    track = PredictionTrack.from_labels("r", labels, truth)
    return track, labels, truth


class TestSmoothMajority:
    def test_hand_example(self):
        out = smooth_majority([1, 0, 1, 0, 1], 3)
        assert out.tolist() == [1, 1, 0, 1, 1]

    def test_all_equal_fixed_point(self):
        assert smooth_majority([1] * 6, 5).tolist() == [1] * 6
        assert smooth_majority([0] * 6, 3).tolist() == [0] * 6

    def test_length_one(self):
        assert smooth_majority([1], 3).tolist() == [1]

    def test_w1_identity(self):
        labels = [0, 1, 1, 0, 1]
        assert smooth_majority(labels, 1).tolist() == labels

    def test_even_w_rejected(self):
        with pytest.raises(ConfigError):
            smooth_majority([0, 1], 4)

    def test_nonbinary_rejected(self):
        with pytest.raises(ConfigError):
            smooth_majority([0, 2, 1], 3)

    def test_output_stays_binary(self):
        rng = Rng(5).child("maj")
        for _ in range(50):
            n = int(rng.integers(1, 40))
            labels = rng.integers(0, 2, size=n)
            for w in (3, 5, 7):
                out = smooth_majority(labels, w)
                assert out.size == n
                assert set(out.tolist()) <= {0, 1}


class TestSmoothMinpool:
    def test_hand_example(self):
        out = smooth_minpool([0, 1, 1, 1, 0], 3)
        assert out.tolist() == [0, 0, 1, 0, 0]

    def test_all_ones_fixed_point(self):
        assert smooth_minpool([1] * 5, 3).tolist() == [1] * 5

    def test_w1_identity(self):
        assert smooth_minpool([0, 1, 0], 1).tolist() == [0, 1, 0]

    def test_even_w_rejected(self):
        with pytest.raises(ConfigError):
            smooth_minpool([0, 1], 2)

    def test_never_increases_positive_count(self):
        rng = Rng(5).child("erode")
        for _ in range(200):
            labels = rng.integers(0, 2, size=int(rng.integers(1, 64)))
            out = smooth_minpool(labels, 3)
            assert out.sum() <= labels.sum()


class TestPostprocessCombos:
    def test_composition_order(self):
        labels = [1, 0, 1, 0, 1, 1, 0]
        majority = smooth_majority(labels, 3)
        both = postprocess_labels(labels, "majority+minpool", 3)
        assert both.tolist() == smooth_minpool(majority, 3).tolist()

    def test_none_is_identity(self):
        assert postprocess_labels([0, 1, 1], "none", 3).tolist() == [0, 1, 1]

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            postprocess_labels([0, 1], "median", 3)


class TestTruthEvents:
    def test_interval_to_window_range(self):
        events = truth_events_from_intervals(
            [SeizureInterval(100.0, 130.0)], 450, 8.0, 256.0
        )
        assert events == [(12, 17)]

    def test_trailing_event_clipped(self):
        events = truth_events_from_intervals(
            [SeizureInterval(95.0, 99.0)], 12, 8.0, 256.0
        )
        assert events == [(11, 12)]

    def test_event_beyond_windows_dropped(self):
        events = truth_events_from_intervals(
            [SeizureInterval(97.0, 99.0)], 12, 8.0, 256.0
        )
        assert events == []

    def test_adjacent_intervals_merge_ranges(self):
        events = truth_events_from_intervals(
            [SeizureInterval(10.0, 12.0), SeizureInterval(13.0, 15.0)],
            10,
            8.0,
            256.0,
        )
        assert events == [(1, 2)]


class TestSensitivity:
    def test_single_window_inside_event(self):
        probs = np.zeros(450)
        probs[102] = 1.0
        track = PredictionTrack("r", probs, [(100, 105)])
        sens, detected = event_sensitivity(track)
        assert sens == 1.0 and detected == [True]

    def test_all_zero_predictions(self):
        track = PredictionTrack("r", np.zeros(40), [(5, 9)])
        sens, _ = event_sensitivity(track)
        assert sens == 0.0

    def test_two_of_three(self):
        labels = np.zeros(60, dtype=int)
        labels[10] = 1
        labels[31] = 1
        track = PredictionTrack.from_labels(
            "r", labels, [(8, 12), (30, 34), (50, 54)]
        )
        sens, detected = event_sensitivity(track)
        assert sens == pytest.approx(2 / 3)
        assert detected == [True, True, False]

    def test_no_events_is_undefined(self):
        sens, detected = event_sensitivity(PredictionTrack("r", np.zeros(5)))
        assert sens is None and detected == []


class TestFalseAlarms:
    def test_hand_example_two_per_hour(self):
        probs = np.zeros(450)
        probs[[102, 200, 300]] = 1.0
        track = PredictionTrack("r", probs, [(100, 105)])
        report = false_positives_per_hour(track)
        assert report.alarms == [(200, 201), (300, 301)]
        assert report.rate == pytest.approx(2.0)

    def test_all_zero(self):
        track = PredictionTrack("r", np.zeros(450))
        assert false_positives_per_hour(track).rate == 0.0

    def test_run_merges_into_one_alarm(self):
        labels = np.zeros(100, dtype=int)
        labels[40:45] = 1
        track = PredictionTrack.from_labels("r", labels)
        report = false_positives_per_hour(track)
        assert len(report.alarms) == 1
        assert report.false_window_count == 5

    def test_run_touching_truth_is_not_an_alarm(self):
        labels = np.zeros(100, dtype=int)
        labels[98:100] = 1
        labels[50:56] = 1
        track = PredictionTrack.from_labels("r", labels, [(55, 60)])
        report = false_positives_per_hour(track)
        assert report.alarms == [(98, 100)]

    def test_zero_duration_raises(self):
        with pytest.raises(MetricError):
            false_positives_per_hour(PredictionTrack("r", np.zeros(0)))


class TestAggregate:
    def test_single_score_passthrough(self):
        score = EventScore(2, 3, 4, 0.5)
        agg = aggregate([score])
        assert agg == score

    def test_pooled_rate(self):
        a = EventScore(0, 0, 1, 1.0)
        b = EventScore(0, 0, 3, 1.0)
        assert aggregate([a, b]).fp_per_h == pytest.approx(2.0)

    def test_pooled_sensitivity(self):
        a = EventScore(2, 2, 0, 1.0)
        b = EventScore(0, 1, 0, 1.0)
        assert aggregate([a, b]).sensitivity == pytest.approx(2 / 3)

    def test_zero_event_record_feeds_denominator_only(self):
        with_events = EventScore(1, 1, 0, 1.0)
        without = EventScore(0, 0, 2, 1.0)
        agg = aggregate([with_events, without])
        assert agg.sensitivity == 1.0
        assert agg.fp_per_h == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            aggregate([])


class TestBruteForceOracle:
    def test_thousand_random_tracks(self):
        rng = Rng(99).child("oracle")
        for _ in range(1000):
            track, labels, truth = random_track(rng)
            want_detected, want_alarms, want_rate = oracle_score(
                labels.tolist(), truth
            )
            score = score_track(track)
            report = false_positives_per_hour(track)
            assert score.detected_events == want_detected
            assert report.alarms == want_alarms
            assert score.fp_per_h == want_rate

    def test_minpool_never_raises_alarm_rate_without_truth(self):
        # Erosion shrinks or kills runs and never splits them, so with no
        # truth anchors the merged-alarm count is monotone.
        rng = Rng(99).child("pool-rate")
        for _ in range(300):
            n = int(rng.integers(1, 65))
            labels = rng.integers(0, 2, size=n)
            track = PredictionTrack.from_labels("r", labels)
            before = false_positives_per_hour(track).rate
            eroded = track.with_labels(smooth_minpool(labels, 3))
            after = false_positives_per_hour(eroded).rate
            assert after <= before

    def test_minpool_never_raises_pointwise_false_positives(self):
        # Pointwise: positives sitting outside every truth span.  Erosion is
        # anti-extensive, so this count is monotone even with truth present.
        rng = Rng(99).child("pool-window")
        for _ in range(300):
            track, labels, truth = random_track(rng)
            outside = np.ones(len(labels), dtype=bool)
            for a, b in truth:
                outside[a:b] = False
            eroded = smooth_minpool(labels, 3)
            assert eroded[outside].sum() <= labels[outside].sum()

    def test_erosion_can_unhook_a_run_from_its_truth_anchor(self):
        # Known corner: a run that touches truth only at its edge can be
        # shrunk past the overlap and turn into a fresh alarm.  The merged
        # alarm count is monotone only per-window or without truth events.
        labels = np.zeros(20, dtype=int)
        labels[5:9] = 1
        track = PredictionTrack.from_labels("r", labels, [(5, 6)])
        assert len(false_positives_per_hour(track).alarms) == 0
        eroded = track.with_labels(smooth_minpool(labels, 3))
        assert len(false_positives_per_hour(eroded).alarms) == 1


class TestThresholdMonotonicity:
    def test_positive_count_never_increases(self):
        rng = Rng(17).child("thr")
        for _ in range(100):
            probs = rng.uniform(size=int(rng.integers(1, 64)))
            counts = []
            for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
                track = PredictionTrack("r", probs, threshold=threshold)
                counts.append(int(track.labels().sum()))
            assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestTrackValidation:
    def test_probs_out_of_range(self):
        with pytest.raises(ConfigError):
            PredictionTrack("r", np.array([0.5, 1.5]))

    def test_truth_out_of_bounds(self):
        with pytest.raises(ConfigError):
            PredictionTrack("r", np.zeros(4), [(2, 9)])

    def test_overlapping_truth(self):
        with pytest.raises(ConfigError):
            PredictionTrack("r", np.zeros(10), [(0, 5), (3, 7)])

    def test_with_labels_requires_same_length(self):
        track = PredictionTrack("r", np.zeros(4))
        with pytest.raises(ConfigError):
            track.with_labels([0, 1])
