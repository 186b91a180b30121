"""Synthetic corpus generator checks.

The band-power oracle is an independent periodogram computed with plain
FFTs; it never reuses the generator's internals beyond the published
subject signature frequency.
"""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from seizenet.eegio import load_corpus
from seizenet.errors import SpecError
from seizenet.synthgen import (
    CorpusSpec,
    generate_corpus,
    generate_recording,
    pink_noise,
    spec_hash,
    subject_signature_hz,
)
from seizenet.rand import Rng
from seizenet.training import prepare_recordings


def small_spec(**overrides) -> CorpusSpec:
    base = dict(
        subjects=2,
        records_per_subject=2,
        record_s=160,
        seizures_per_record=2,
        seizure_len_s=(12.0, 16.0),
        channels=8,
        seed=7,
    )
    base.update(overrides)
    return CorpusSpec(**base)


def band_power(x: np.ndarray, fs: float, lo: float, hi: float) -> float:
    """Mean periodogram power in [lo, hi] Hz, averaged over channels."""
    freqs = np.fft.rfftfreq(x.shape[-1], d=1.0 / fs)
    psd = np.abs(np.fft.rfft(x, axis=-1)) ** 2 / x.shape[-1]
    mask = (freqs >= lo) & (freqs <= hi)
    return float(psd[..., mask].sum(axis=-1).mean())


class TestSpecValidation:
    def test_rejects_low_gain(self):
        with pytest.raises(SpecError):
            small_spec(seizure_gain=2.0)

    def test_rejects_bad_length_range(self):
        with pytest.raises(SpecError):
            small_spec(seizure_len_s=(10.0, 5.0))

    def test_rejects_fractional_seconds(self):
        with pytest.raises(SpecError):
            small_spec(record_s=10.5)

    def test_rejects_frequency_above_nyquist(self):
        with pytest.raises(SpecError):
            small_spec(seizure_freq_range_hz=(3.0, 200.0))

    def test_dict_round_trip(self):
        spec = small_spec()
        assert CorpusSpec(**asdict(spec)) == spec


class TestRecording:
    def test_shapes_and_interval_bounds(self):
        spec = small_spec()
        rec = generate_recording(spec, 0, 1)
        assert rec.samples.shape == (8, 160 * 256)
        assert rec.record_id == "s00_r01"
        assert len(rec.seizures) == 2
        prev_end = 0.0
        for iv in rec.seizures:
            assert iv.start_s - prev_end >= 16.0 - 1e-9
            assert iv.end_s <= 160.0
            assert 12.0 <= iv.end_s - iv.start_s <= 16.0 + 1e-9
            prev_end = iv.end_s

    def test_infeasible_packing_raises(self):
        spec = small_spec(record_s=40, seizures_per_record=2)
        with pytest.raises(SpecError):
            generate_recording(spec, 0, 0)

    def test_zero_seizures(self):
        spec = small_spec(seizures_per_record=0)
        rec = generate_recording(spec, 0, 0)
        assert rec.seizures == []

    def test_deterministic(self):
        spec = small_spec()
        a = generate_recording(spec, 1, 0)
        b = generate_recording(spec, 1, 0)
        assert np.array_equal(a.samples, b.samples)
        assert a.seizures == b.seizures

    def test_records_differ(self):
        spec = small_spec()
        a = generate_recording(spec, 0, 0)
        b = generate_recording(spec, 0, 1)
        assert not np.array_equal(a.samples, b.samples)


class TestSignature:
    def test_in_range_and_varied(self):
        spec = small_spec(subjects=6)
        freqs = [subject_signature_hz(spec, s) for s in range(6)]
        assert all(3.0 <= f <= 12.0 for f in freqs)
        assert len({round(f, 6) for f in freqs}) >= 5

    def test_stable_across_calls(self):
        spec = small_spec()
        assert subject_signature_hz(spec, 1) == subject_signature_hz(spec, 1)


class TestPinkNoise:
    def test_unit_scale_and_shape(self):
        x = pink_noise(Rng(3).child("t"), 4096)
        assert x.shape == (4096,)
        assert abs(x.std() - 1.0) < 1e-9

    def test_low_frequencies_dominate(self):
        x = pink_noise(Rng(3).child("t"), 256 * 64)
        low = band_power(x, 256.0, 0.5, 4.0) / 3.5
        high = band_power(x, 256.0, 60.0, 120.0) / 60.0
        assert low > 10.0 * high


class TestBandPowerOracle:
    def test_seizure_band_ratio(self):
        spec = small_spec()
        rec = generate_recording(spec, 0, 0)
        fs = spec.sample_rate_hz
        freq = subject_signature_hz(spec, 0)
        lo, hi = freq - 1.5, freq + 1.5

        edges = [0.0] + [t for iv in rec.seizures for t in (iv.start_s, iv.end_s)]
        edges.append(float(spec.record_s))
        background_slices = []
        for a, b in zip(edges[0::2], edges[1::2]):
            sl = rec.samples[:, int(a * fs) : int(b * fs)]
            if sl.shape[-1] >= 8 * fs:
                background_slices.append(sl)
        assert len(background_slices) >= 2

        reference = float(
            np.median([band_power(sl, fs, lo, hi) for sl in background_slices])
        )
        for iv in rec.seizures:
            sl = rec.samples[:, int(iv.start_s * fs) : int(iv.end_s * fs)]
            assert band_power(sl, fs, lo, hi) / reference > 2.0
        for sl in background_slices:
            assert band_power(sl, fs, lo, hi) / reference < 1.2


class TestSeparability:
    def test_full_seizure_windows_separate_from_background(self):
        spec = small_spec()
        rec = generate_recording(spec, 1, 0)
        fs = spec.sample_rate_hz
        freq = subject_signature_hz(spec, 1)
        window_s = 4.0
        ds = prepare_recordings([rec], window_s, normalization=None)

        def fully_inside(i):
            a, b = i * window_s, (i + 1) * window_s
            return any(iv.start_s <= a and b <= iv.end_s for iv in rec.seizures)

        seiz = [
            band_power(w.data, fs, freq - 1.5, freq + 1.5)
            for w in ds.windows
            if fully_inside(w.index)
        ]
        bg = [
            band_power(w.data, fs, freq - 1.5, freq + 1.5)
            for w in ds.windows
            if w.label == 0
        ]
        assert seiz and bg
        assert min(seiz) > max(bg)


class TestCorpus:
    def test_layout_counts_and_manifest(self, tmp_path):
        spec = CorpusSpec(
            subjects=3,
            records_per_subject=4,
            record_s=96,
            seizures_per_record=1,
            seizure_len_s=(8.0, 12.0),
            channels=4,
            seed=11,
        )
        manifest = generate_corpus(spec, tmp_path)
        edfs = sorted(tmp_path.glob("*/*.edf"))
        assert len(edfs) == 12
        assert len(manifest["records"]) == 12
        assert manifest["spec_hash"] == spec_hash(spec)
        lines = (tmp_path / "annotations.csv").read_text().splitlines()
        assert len(lines) == 12
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest

    def test_byte_identical_regeneration(self, tmp_path):
        spec = small_spec(channels=4, record_s=96, seizures_per_record=1)
        generate_corpus(spec, tmp_path / "a")
        generate_corpus(spec, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_regenerate_from_manifest(self, tmp_path):
        spec = small_spec(channels=4, record_s=96, seizures_per_record=1)
        manifest = generate_corpus(spec, tmp_path / "orig")
        rebuilt_spec = CorpusSpec(**manifest["spec"])
        manifest2 = generate_corpus(rebuilt_spec, tmp_path / "again")
        assert manifest2 == manifest
        rel = manifest["records"][0]["path"]
        assert (tmp_path / "orig" / rel).read_bytes() == (
            tmp_path / "again" / rel
        ).read_bytes()

    def test_spec_hash_sensitivity(self):
        assert spec_hash(small_spec()) == spec_hash(small_spec())
        assert spec_hash(small_spec()) != spec_hash(small_spec(seed=8))
        assert spec_hash(small_spec()) != spec_hash(small_spec(channels=9))

    def test_round_trip_labels_match_ground_truth(self, tmp_path):
        spec = small_spec(channels=4)
        manifest = generate_corpus(spec, tmp_path)
        loaded = {rec.record_id: rec for rec in load_corpus(tmp_path)}
        assert len(loaded) == 4
        window_s = 4.0
        fs = spec.sample_rate_hz
        T = int(window_s * fs)
        for item in manifest["records"]:
            rec = loaded[item["record_id"]]
            got = prepare_recordings([rec], window_s, normalization=None).labels()
            n_windows = rec.n_samples // T
            expected = []
            for i in range(n_windows):
                a, b = i * T, (i + 1) * T
                hit = any(
                    max(a, math.floor(s * fs)) < min(b, math.ceil(e * fs))
                    for s, e in item["seizures"]
                )
                expected.append(1 if hit else 0)
            assert got.tolist() == expected
            assert sum(expected) > 0

    def test_loaded_samples_match_memory_within_quantization(self, tmp_path):
        spec = small_spec(channels=4)
        generate_corpus(spec, tmp_path)
        mem = generate_recording(spec, 0, 0)
        disk = next(
            r for r in load_corpus(tmp_path) if r.record_id == "s00_r00"
        )
        span = mem.samples.max() - mem.samples.min()
        assert np.max(np.abs(disk.samples - mem.samples)) <= 1.01 * span / 65535
        assert [(iv.start_s, iv.end_s) for iv in disk.seizures] == [
            (iv.start_s, iv.end_s) for iv in mem.seizures
        ]
