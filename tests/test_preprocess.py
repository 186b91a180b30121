"""Filter design and normalization tests.

Frequency-domain properties are checked through the package's own transfer
function evaluator, and time-domain filtering against a naive per-sample
difference-equation recursion written in this file.  Design and filtering
are also compared with ``scipy.signal``, which only these tests import.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizenet.errors import ConfigError, DesignError, SignalError
from seizenet.preprocess import (
    BLOCK,
    FilterSpec,
    apply_filter,
    design_butterworth_bandpass,
    normalize,
    response_db,
    section_poles,
    sos_frequency_response,
)


def naive_sosfilt(sos, x):
    """Direct-form-II-transposed biquad cascade, one sample at a time."""
    y = np.array(x, dtype=np.float64)
    for b0, b1, b2, a0, a1, a2 in np.atleast_2d(sos):
        out = np.empty_like(y)
        z1 = 0.0
        z2 = 0.0
        for n in range(len(y)):
            out[n] = b0 * y[n] + z1
            z1 = b1 * y[n] - a1 * out[n] + z2
            z2 = b2 * y[n] - a2 * out[n]
        y = out
    return y


class TestDesign:
    def setup_method(self):
        self.spec = FilterSpec()
        self.sos = design_butterworth_bandpass(self.spec)

    def test_band_edges_sit_at_minus_3_db(self):
        db = response_db(self.sos, np.array([0.5, 50.0]), 256)
        npt.assert_allclose(db, [-3.0103, -3.0103], atol=0.5)

    def test_dc_is_rejected_below_minus_60_db(self):
        assert response_db(self.sos, np.array([0.0]), 256)[0] < -60.0

    def test_80_hz_attenuated_at_least_20_db(self):
        assert response_db(self.sos, np.array([80.0]), 256)[0] <= -20.0

    def test_midband_is_flat_near_unity(self):
        db = response_db(self.sos, np.array([5.0, 10.0, 20.0]), 256)
        npt.assert_allclose(db, 0.0, atol=0.1)

    def test_all_poles_strictly_inside_unit_circle(self):
        for poles in section_poles(self.sos):
            assert np.all(np.abs(poles) < 1.0)

    def test_sections_have_unit_a0(self):
        npt.assert_allclose(self.sos[:, 3], 1.0)

    def test_bad_band_edges_raise(self):
        with pytest.raises(DesignError):
            FilterSpec(low_hz=50.0, high_hz=0.5)
        with pytest.raises(DesignError):
            FilterSpec(high_hz=200.0)  # above Nyquist for 256 Hz
        with pytest.raises(DesignError):
            FilterSpec(order=0)


class TestApplyFilter:
    def setup_method(self):
        self.sos = design_butterworth_bandpass(FilterSpec())

    def test_matches_naive_difference_equation(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=300)
        npt.assert_allclose(
            apply_filter(self.sos, x), naive_sosfilt(self.sos, x), atol=1e-10
        )

    def test_causal_output_ignores_future_samples(self):
        rng = np.random.default_rng(6)
        x1 = rng.normal(size=400)
        x2 = x1.copy()
        x2[250:] += 100.0
        y1 = apply_filter(self.sos, x1)
        y2 = apply_filter(self.sos, x2)
        npt.assert_array_equal(y1[:250], y2[:250])
        assert not np.allclose(y1[250:], y2[250:])

    def test_filters_along_last_axis_per_channel(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 200))
        y = apply_filter(self.sos, x)
        for c in range(3):
            npt.assert_allclose(y[c], apply_filter(self.sos, x[c]))

    def test_passband_tone_preserved_stopband_tone_removed(self):
        fs = 256
        t = np.arange(20 * fs) / fs
        tone_in = np.sin(2 * np.pi * 10.0 * t)
        tone_out = np.sin(2 * np.pi * 100.0 * t)
        tail = slice(10 * fs, None)  # skip the transient
        gain_in = np.abs(apply_filter(self.sos, tone_in)[tail]).max()
        gain_out = np.abs(apply_filter(self.sos, tone_out)[tail]).max()
        assert gain_in > 0.95
        assert gain_out < 0.01

    def test_non_finite_input_rejected(self):
        x = np.ones(100)
        x[3] = np.nan
        with pytest.raises(SignalError, match="non-finite"):
            apply_filter(self.sos, x)
        with pytest.raises(SignalError, match="empty"):
            apply_filter(self.sos, np.array([]))


# (order, low_hz, high_hz, sample_rate_hz): the default 256 Hz band, the
# 64 Hz band of the small test corpora, and edges close to 0 and to Nyquist
SCIPY_GRID = [
    (order, *band)
    for order in range(1, 9)
    for band in [
        (0.5, 50.0, 256),
        (0.5, 25.0, 64),
        (0.001, 50.0, 256),
        (0.5, 127.99, 256),
        (1e-4, 127.999, 256),
    ]
]


@pytest.mark.parametrize("order, low_hz, high_hz, rate", SCIPY_GRID)
def test_design_equals_scipy_butter(order, low_hz, high_hz, rate):
    signal = pytest.importorskip("scipy.signal")
    spec = FilterSpec(order, low_hz, high_hz, rate)
    want = signal.butter(
        order, [low_hz, high_hz], btype="bandpass", fs=rate, output="sos"
    )
    npt.assert_array_equal(design_butterworth_bandpass(spec), want)


def test_filter_matches_scipy_sosfilt_on_a_full_record():
    signal = pytest.importorskip("scipy.signal")
    sos = design_butterworth_bandpass(FilterSpec())
    # one record of the 20-channel, 320 s, 256 Hz benchmark corpus
    x = np.random.default_rng(9).normal(scale=40.0, size=(20, 320 * 256))
    want = signal.sosfilt(sos, x)
    err = np.max(np.abs(apply_filter(sos, x) - want))
    assert err <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]
)
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_blocked_filter_matches_naive_recursion_at_block_edges(n, lead):
    sos = design_butterworth_bandpass(FilterSpec())
    x = np.random.default_rng(n).normal(size=(*lead, n))
    got = apply_filter(sos, x)
    assert got.shape == x.shape
    want = np.array([naive_sosfilt(sos, row) for row in x.reshape(-1, n)])
    npt.assert_allclose(got.reshape(-1, n), want, rtol=0, atol=1e-12)


def test_sample_after_a_block_boundary_moves_no_earlier_output():
    sos = design_butterworth_bandpass(FilterSpec())
    x1 = np.random.default_rng(10).normal(size=(2, 4 * BLOCK))
    x2 = x1.copy()
    at = 2 * BLOCK + 1
    x2[:, at] += 1.0
    y1, y2 = apply_filter(sos, x1), apply_filter(sos, x2)
    npt.assert_array_equal(y1[:, :at], y2[:, :at])
    assert np.all(y1[:, at] != y2[:, at])


class TestFrequencyResponseEvaluator:
    def test_single_section_identity_filter(self):
        sos = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
        h = sos_frequency_response(sos, np.array([0.0, 10.0, 100.0]), 256)
        npt.assert_allclose(h, 1.0)

    def test_one_pole_section_matches_closed_form(self):
        # y[n] = x[n] + 0.5 y[n-1]  ->  H(z) = 1 / (1 - 0.5 z^-1)
        sos = np.array([[1.0, 0.0, 0.0, 1.0, -0.5, 0.0]])
        f = np.array([17.0])
        z_inv = np.exp(-2j * np.pi * f / 256)
        expected = 1.0 / (1.0 - 0.5 * z_inv)
        npt.assert_allclose(sos_frequency_response(sos, f, 256), expected)


class TestNormalize:
    def test_minmax_maps_range_to_unit_interval(self):
        x = np.array([[0.0, 5.0, 10.0]])
        y = normalize(x, "minmax")
        npt.assert_allclose(y, [[0.0, 0.5, 1.0]], atol=1e-8)

    def test_meanstd_standardizes(self):
        rng = np.random.default_rng(8)
        x = rng.normal(loc=40.0, scale=9.0, size=(4, 500))
        y = normalize(x, "meanstd")
        npt.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        npt.assert_allclose(y.std(axis=-1), 1.0, atol=1e-6)

    def test_constant_channel_maps_to_zeros_both_methods(self):
        x = np.full((2, 16), 7.5)
        npt.assert_array_equal(normalize(x, "minmax"), np.zeros((2, 16)))
        npt.assert_array_equal(normalize(x, "meanstd"), np.zeros((2, 16)))

    def test_stats_are_per_channel_per_window(self):
        x = np.stack(
            [
                np.array([[0.0, 1.0], [0.0, 100.0]]),
                np.array([[5.0, 6.0], [5.0, 5.0]]),
            ]
        )  # (2 windows, 2 channels, 2 samples)
        y = normalize(x, "minmax")
        npt.assert_allclose(y[0, 0], [0.0, 1.0], atol=1e-7)
        npt.assert_allclose(y[0, 1], [0.0, 1.0], atol=1e-7)
        npt.assert_allclose(y[1, 0], [0.0, 1.0], atol=1e-7)
        npt.assert_allclose(y[1, 1], [0.0, 0.0], atol=1e-7)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown normalization"):
            normalize(np.zeros((1, 4)), "zscore")

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=64,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_minmax_output_always_within_unit_interval(self, values):
        y = normalize(np.array([values]), "minmax")
        assert np.all(y >= -1e-9)
        assert np.all(y <= 1.0 + 1e-9)
