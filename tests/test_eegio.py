"""EDF parsing, windowing, and annotation tests.

The parser is checked against a byte blob laid out by hand in this file,
independently of the package writer; the writer is then checked by
round-tripping through the parser with a quantization-step error bound.
"""

import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from seizenet.eegio import (
    DIGITAL_MAX,
    DIGITAL_MIN,
    Recording,
    SeizureInterval,
    load_annotations,
    load_corpus,
    parse_edf,
    write_edf,
    write_edf_file,
)
from seizenet.errors import (
    AnnotationError,
    ConfigError,
    ParseError,
    UnsupportedError,
)
from seizenet.evalpost import truth_events_from_intervals
from seizenet.training import prepare_recordings


def _field(value, width):
    s = str(value)
    assert len(s) <= width
    return s.ljust(width).encode("ascii")


def build_edf_bytes(
    labels,
    fs,
    digital_rows,
    phys_min,
    phys_max,
    dig_min=DIGITAL_MIN,
    dig_max=DIGITAL_MAX,
    patient="subj",
    recording="rec",
    header_bytes=None,
    version="0",
    record_duration=1,
):
    """Hand-lay an EDF byte string (one-second records)."""
    ns = len(labels)
    n = len(digital_rows[0])
    n_records = n // fs
    if header_bytes is None:
        header_bytes = 256 + ns * 256
    out = bytearray()
    out += _field(version, 8)
    out += _field(patient, 80)
    out += _field(recording, 80)
    out += _field("01.01.00", 8)
    out += _field("00.00.00", 8)
    out += _field(header_bytes, 8)
    out += _field("", 44)
    out += _field(n_records, 8)
    out += _field(record_duration, 8)
    out += _field(ns, 4)
    for lab in labels:
        out += _field(lab, 16)
    for _ in labels:
        out += _field("", 80)
    for _ in labels:
        out += _field("uV", 8)
    for v in phys_min:
        out += _field(v, 8)
    for v in phys_max:
        out += _field(v, 8)
    for _ in labels:
        out += _field(dig_min, 8)
    for _ in labels:
        out += _field(dig_max, 8)
    for _ in labels:
        out += _field("", 80)
    for _ in labels:
        out += _field(fs, 8)
    for _ in labels:
        out += _field("", 32)
    digital = np.asarray(digital_rows, dtype="<i2")
    out += digital.reshape(ns, n_records, fs).transpose(1, 0, 2).tobytes()
    return bytes(out)


class TestParseEdf:
    def test_decodes_hand_built_bytes_to_physical_units(self):
        # gain = (1 - (-1)) / (32767 - (-32768)); phys = (d - dmin)*gain + pmin
        digital = [-32768, 0, 32767, 16384, -16384, 1, -1, 100]
        data = build_edf_bytes(
            ["C3"], fs=4, digital_rows=[digital], phys_min=[-1], phys_max=[1]
        )
        rec = parse_edf(data)
        assert rec.subject_id == "subj"
        assert rec.record_id == "rec"
        assert rec.sample_rate_hz == 4
        assert rec.channels == ["C3"]
        gain = 2.0 / 65535.0
        expected = (np.array(digital, dtype=np.float64) + 32768) * gain - 1.0
        npt.assert_allclose(rec.samples[0], expected, rtol=0, atol=1e-12)

    def test_two_channels_deinterleave_across_records(self):
        a = list(range(8))
        b = list(range(100, 108))
        data = build_edf_bytes(
            ["A", "B"],
            fs=4,
            digital_rows=[a, b],
            phys_min=[DIGITAL_MIN, DIGITAL_MIN],
            phys_max=[DIGITAL_MAX, DIGITAL_MAX],
        )
        rec = parse_edf(data)
        # identity scaling: phys range equals digital range
        npt.assert_allclose(rec.samples[0], a)
        npt.assert_allclose(rec.samples[1], b)

    def test_truncated_header_reports_offset_at_end(self):
        with pytest.raises(ParseError, match="byte offset"):
            parse_edf(b"0".ljust(100))

    def test_zero_signals_is_a_parse_error(self):
        data = build_edf_bytes(
            ["C3"], fs=4, digital_rows=[[0, 0, 0, 0]], phys_min=[-1], phys_max=[1]
        )
        broken = data[:252] + b"0   " + data[256:]
        with pytest.raises(ParseError, match="zero signals"):
            parse_edf(broken)

    def test_non_numeric_field_carries_its_byte_offset(self):
        data = build_edf_bytes(
            ["C3"], fs=4, digital_rows=[[0, 0, 0, 0]], phys_min=[-1], phys_max=[1]
        )
        broken = data[:236] + b"oops    " + data[244:]
        with pytest.raises(ParseError, match="byte offset 236"):
            parse_edf(broken)

    # two signals: physical-min[0] opens the signal header's fourth field
    # at 256 + 2*(16 + 80 + 8), samples-per-record[0] its ninth at
    # 256 + 2*(16 + 80 + 8 + 4*8 + 80)
    @pytest.mark.parametrize(
        "pos, text, message, offset",
        [
            (688, "oops    ", "non-integer samples-per-record[0] field", 688),
            (464, "bad     ", "non-numeric physical-min[0] field", 464),
            (356, None, "truncated header", 356),
        ],
    )
    def test_signal_header_errors_name_field_and_offset(
        self, pos, text, message, offset
    ):
        rec = Recording("s01", "s01_r00", 4, ["A", "B"], np.zeros((2, 8)))
        data = write_edf(rec)
        if text is None:  # cut inside the signal header
            broken = data[:pos]
        else:
            broken = data[:pos] + text.encode() + data[pos + len(text) :]
        with pytest.raises(ParseError) as err:
            parse_edf(broken)
        assert str(err.value).startswith(message)
        assert err.value.offset == offset

    def test_header_bytes_mismatch_rejected(self):
        data = build_edf_bytes(
            ["C3"],
            fs=4,
            digital_rows=[[0, 0, 0, 0]],
            phys_min=[-1],
            phys_max=[1],
            header_bytes=9999,
        )
        with pytest.raises(ParseError, match="header-bytes"):
            parse_edf(data)

    def test_mixed_sampling_rates_unsupported(self):
        data = build_edf_bytes(
            ["A", "B"],
            fs=4,
            digital_rows=[[0] * 4, [0] * 4],
            phys_min=[-1, -1],
            phys_max=[1, 1],
        )
        # samples-per-record fields live right before the ns*32 reserved tail
        spr_start = len(data) - (2 * 4 * 2) - 2 * 32 - 2 * 8
        broken = data[:spr_start] + b"4       " + b"8       " + data[spr_start + 16 :]
        with pytest.raises(UnsupportedError, match="mixed sampling rates"):
            parse_edf(broken)

    def test_annotation_channel_unsupported(self):
        data = build_edf_bytes(
            ["EDF Annotations"],
            fs=4,
            digital_rows=[[0, 0, 0, 0]],
            phys_min=[-1],
            phys_max=[1],
        )
        with pytest.raises(UnsupportedError, match="annotation channels"):
            parse_edf(data)

    def test_bad_version_rejected(self):
        data = build_edf_bytes(
            ["C3"],
            fs=4,
            digital_rows=[[0, 0, 0, 0]],
            phys_min=[-1],
            phys_max=[1],
            version="9",
        )
        with pytest.raises(ParseError, match="version"):
            parse_edf(data)

    def test_short_data_section_rejected(self):
        data = build_edf_bytes(
            ["C3"], fs=4, digital_rows=[[1, 2, 3, 4]], phys_min=[-1], phys_max=[1]
        )
        with pytest.raises(ParseError, match="data section"):
            parse_edf(data[:-2])


class TestWriteEdfRoundTrip:
    def _random_recording(self, seed, fs=256, seconds=3, n_channels=3):
        rng = np.random.default_rng(seed)
        samples = rng.normal(scale=85.0, size=(n_channels, fs * seconds))
        return Recording(
            subject_id="s01",
            record_id="s01_r00",
            sample_rate_hz=fs,
            channels=[f"CH{i}" for i in range(n_channels)],
            samples=samples,
        )

    def test_round_trip_error_within_one_quantization_step(self):
        rec = self._random_recording(seed=7)
        back = parse_edf(write_edf(rec))
        assert back.sample_rate_hz == rec.sample_rate_hz
        assert back.channels == rec.channels
        assert back.subject_id == rec.subject_id
        assert back.record_id == rec.record_id
        for c in range(rec.n_channels):
            x = rec.samples[c]
            span = x.max() - x.min()
            step = 1.002 * span / (DIGITAL_MAX - DIGITAL_MIN)
            assert np.max(np.abs(back.samples[c] - x)) <= step

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s01_r00.edf"
        write_edf_file(path, self._random_recording(seed=1))
        before = path.read_bytes()

        def torn_write(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(OSError, match="disk full"):
            write_edf_file(path, self._random_recording(seed=2))
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s01_r00.edf"]

    def test_flat_channel_survives_round_trip(self):
        rec = Recording(
            subject_id="s",
            record_id="r",
            sample_rate_hz=4,
            channels=["Z"],
            samples=np.full((1, 8), 3.25),
        )
        back = parse_edf(write_edf(rec))
        npt.assert_allclose(back.samples[0], 3.25, atol=1e-3)

    def test_non_whole_second_record_rejected(self):
        rec = Recording(
            subject_id="s",
            record_id="r",
            sample_rate_hz=4,
            channels=["Z"],
            samples=np.zeros((1, 6)),
        )
        with pytest.raises(ValueError, match="whole number of seconds"):
            write_edf(rec)


class TestRecordingInvariants:
    def test_overlapping_seizures_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Recording(
                subject_id="s",
                record_id="r",
                sample_rate_hz=4,
                channels=["Z"],
                samples=np.zeros((1, 400)),
                seizures=[SeizureInterval(1, 10), SeizureInterval(5, 20)],
            )

    def test_seizure_past_end_rejected(self):
        with pytest.raises(ValueError, match="lasts"):
            Recording(
                subject_id="s",
                record_id="r",
                sample_rate_hz=4,
                channels=["Z"],
                samples=np.zeros((1, 8)),
                seizures=[SeizureInterval(1, 10)],
            )

    def test_interval_ordering_validated(self):
        with pytest.raises(ValueError, match="interval"):
            SeizureInterval(5, 5)
        with pytest.raises(ValueError, match="interval"):
            SeizureInterval(-1, 5)


def _silent_recording(seconds, fs=256, n_channels=2, seizures=()):
    return Recording(
        subject_id="s01",
        record_id="s01_r00",
        sample_rate_hz=fs,
        channels=[f"CH{i}" for i in range(n_channels)],
        samples=np.zeros((n_channels, fs * seconds)),
        seizures=list(seizures),
    )


def _windows(recordings, window_s):
    """The windows every stage trains on, without normalization."""
    return prepare_recordings(recordings, window_s=window_s, normalization=None)


class TestSegmentWindows:
    def test_hour_at_8s_yields_450_windows(self):
        ds = _windows([_silent_recording(3600)], window_s=8.0)
        assert len(ds) == 450
        assert ds.samples_per_window == 2048

    def test_trailing_partial_window_discarded(self):
        ds = _windows([_silent_recording(100)], window_s=8.0)
        assert len(ds) == 12  # 96 seconds used, 4 discarded

    def test_labels_match_interval_overlap_oracle(self):
        def check(rec, window_s, intervals):
            labels = _windows([rec], window_s).labels().tolist()
            fs = rec.sample_rate_hz
            T = int(round(window_s * fs))
            # brute force: mark each seizure sample, then scan each window
            ictal = np.zeros(rec.n_samples, dtype=bool)
            for a, b in intervals:
                ictal[math.floor(a * fs) : math.ceil(b * fs)] = True
            oracle = [int(ictal[k * T : (k + 1) * T].any()) for k in range(len(labels))]
            events = [0] * len(labels)
            for a, b in truth_events_from_intervals(
                rec.seizures, len(labels), window_s, fs
            ):
                events[a:b] = [1] * (b - a)
            assert labels == oracle == events
            return [k for k, y in enumerate(labels) if y]

        # seizure [100, 130) against 8 s windows: window k covers [8k, 8k+8)
        rec = _silent_recording(200, seizures=[SeizureInterval(100.0, 130.0)])
        assert check(rec, 8.0, [(100.0, 130.0)]) == [12, 13, 14, 15, 16]

        # 37-sample windows at 100 Hz drop samples [999, 1010): fractional
        # bounds, 2.22 s landing on window 6's first sample (222.00000000000003
        # after scaling), one sample, one ending inside the dropped tail and
        # one wholly inside it
        intervals = [
            (0.123, 0.456),
            (2.0, 2.22),
            (5.555, 5.56),
            (9.8, 9.995),
            (10.02, 10.08),
        ]
        rec = Recording(
            subject_id="s01",
            record_id="s01_r00",
            sample_rate_hz=100,
            channels=["CH0", "CH1"],
            samples=np.zeros((2, 1010)),
            seizures=[SeizureInterval(a, b) for a, b in intervals],
        )
        assert check(rec, 0.37, intervals) == [0, 1, 5, 6, 15, 26]

    def test_single_sample_overlap_is_positive(self):
        fs = 256
        rec = _silent_recording(
            24, fs=fs, seizures=[SeizureInterval(8.0, 8.0 + 1.0 / fs)]
        )
        labels = _windows([rec], window_s=8.0).labels().tolist()
        assert labels == [0, 1, 0]

    def test_boundary_touch_is_not_overlap(self):
        rec = _silent_recording(24, seizures=[SeizureInterval(4.0, 8.0)])
        labels = _windows([rec], window_s=8.0).labels().tolist()
        assert labels == [1, 0, 0]

    def test_windows_tile_the_prefix_exactly(self):
        rng = np.random.default_rng(3)
        rec = Recording(
            subject_id="s",
            record_id="r",
            sample_rate_hz=8,
            channels=["A"],
            samples=rng.normal(size=(1, 100)),
        )
        ds = _windows([rec], window_s=2.0)
        rebuilt = np.concatenate([w.data for w in ds.windows], axis=1)
        prefix = rec.samples[:, : rebuilt.shape[1]].astype(np.float32)
        npt.assert_array_equal(rebuilt, prefix)

    def test_bad_window_params_rejected(self):
        rec = _silent_recording(24)
        with pytest.raises(ValueError):
            _windows([rec], window_s=0)


class TestLoadAnnotations:
    def test_parses_comments_blanks_and_merges_overlaps(self):
        text = (
            "# corpus annotations\n"
            "\n"
            "s01_r00,100,130\n"
            "s01_r00,120,150  # overlaps the first\n"
            "s01_r00,200,210\n"
            "s02_r01,5,6\n"
        )
        ann = load_annotations(text)
        assert ann["s01_r00"] == [
            SeizureInterval(100.0, 150.0),
            SeizureInterval(200.0, 210.0),
        ]
        assert ann["s02_r01"] == [SeizureInterval(5.0, 6.0)]

    def test_touching_intervals_stay_separate(self):
        ann = load_annotations("r,10,20\nr,20,30\n")
        assert ann["r"] == [SeizureInterval(10, 20), SeizureInterval(20, 30)]

    def test_errors_carry_line_numbers(self):
        with pytest.raises(AnnotationError, match="line 2"):
            load_annotations("r,1,2\nr,nan?,xyz\n")
        with pytest.raises(AnnotationError, match="line 1"):
            load_annotations("r,1\n")
        with pytest.raises(AnnotationError, match="line 3"):
            load_annotations("r,1,2\nr,2,3\nr,9,4\n")


class TestLoadCorpus:
    def test_reads_directory_with_sidecar_annotations(self, tmp_path):
        rng = np.random.default_rng(11)
        rec = Recording(
            subject_id="s01",
            record_id="s01_r00",
            sample_rate_hz=64,
            channels=["A", "B"],
            samples=rng.normal(size=(2, 64 * 20)),
        )
        (tmp_path / "s01").mkdir()
        write_edf_file(tmp_path / "s01" / "s01_r00.edf", rec)
        (tmp_path / "annotations.csv").write_text("s01_r00,3,7\n")

        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1
        assert loaded[0].subject_id == "s01"
        assert loaded[0].record_id == "s01_r00"
        assert loaded[0].seizures == [SeizureInterval(3.0, 7.0)]

    def test_refuses_one_record_id_under_two_subjects(self, tmp_path):
        # annotations.csv is keyed by record id, so its one line would
        # label both records
        rng = np.random.default_rng(12)
        for subject in ("s00", "s01"):
            rec = Recording(
                subject_id=subject,
                record_id="r01",
                sample_rate_hz=64,
                channels=["A", "B"],
                samples=rng.normal(size=(2, 64 * 30)),
            )
            (tmp_path / subject).mkdir()
            write_edf_file(tmp_path / subject / "r01.edf", rec)
        (tmp_path / "annotations.csv").write_text("r01,10,20\n")
        with pytest.raises(ConfigError, match="'r01'.*'s00' and 's01'"):
            load_corpus(tmp_path)

    def test_prepare_recordings_concatenates(self):
        recs = [_silent_recording(16), _silent_recording(24)]
        ds = _windows(recs, window_s=8.0)
        assert len(ds) == 2 + 3
