"""Band-pass filtering and per-window normalization.

Filtering is causal (forward-only) and applied to whole records before
windowing, so no window sees samples from its own future relative to the
record timeline.  Filters are held as second-order sections for numerical
stability at a 0.5 Hz corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as spsignal

from .errors import ConfigError, DesignError, SignalError


@dataclass(frozen=True)
class FilterSpec:
    """Band-pass design parameters."""

    order: int = 5
    low_hz: float = 0.5
    high_hz: float = 50.0
    sample_rate_hz: int = 256

    def __post_init__(self):
        if self.order < 1:
            raise DesignError(f"filter order must be >= 1, got {self.order}")
        nyquist = self.sample_rate_hz / 2.0
        if not (0.0 < self.low_hz < self.high_hz < nyquist):
            raise DesignError(
                f"band edges must satisfy 0 < {self.low_hz} < {self.high_hz} "
                f"< Nyquist ({nyquist})"
            )


def design_butterworth_bandpass(spec: FilterSpec = FilterSpec()) -> np.ndarray:
    """Design a Butterworth band-pass filter as second-order sections.

    Returns an (n_sections, 6) array of [b0 b1 b2 a0 a1 a2] rows with a0=1.
    Raises DesignError if any pole lies on or outside the unit circle.
    """
    sos = spsignal.butter(
        spec.order,
        [spec.low_hz, spec.high_hz],
        btype="bandpass",
        fs=spec.sample_rate_hz,
        output="sos",
    )
    sos = np.asarray(sos, dtype=np.float64)
    for poles in section_poles(sos):
        if np.any(np.abs(poles) >= 1.0):
            raise DesignError(
                "designed filter is unstable: pole magnitude "
                f"{np.max(np.abs(poles)):.6f} >= 1"
            )
    return sos


def section_poles(sos: np.ndarray) -> list[np.ndarray]:
    """Poles of each biquad section (roots of 1 + a1 z^-1 + a2 z^-2)."""
    return [np.roots(section[3:6]) for section in np.atleast_2d(sos)]


def sos_frequency_response(
    sos: np.ndarray, freqs_hz: np.ndarray, sample_rate_hz: float
) -> np.ndarray:
    """Complex response at the given frequencies, evaluated from first principles.

    H(f) is the product over sections of the biquad transfer function at
    z = exp(i 2 pi f / fs).  Kept free of scipy so it can serve as an
    independent check on the designed coefficients.
    """
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    z_inv = np.exp(-2j * np.pi * freqs_hz / sample_rate_hz)
    h = np.ones_like(z_inv, dtype=np.complex128)
    for b0, b1, b2, a0, a1, a2 in np.atleast_2d(sos):
        num = b0 + b1 * z_inv + b2 * z_inv**2
        den = a0 + a1 * z_inv + a2 * z_inv**2
        h *= num / den
    return h


def response_db(
    sos: np.ndarray, freqs_hz: np.ndarray, sample_rate_hz: float
) -> np.ndarray:
    mag = np.abs(sos_frequency_response(sos, freqs_hz, sample_rate_hz))
    return 20.0 * np.log10(np.maximum(mag, 1e-300))


def apply_filter(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causally filter along the last axis (zero initial conditions)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise SignalError("cannot filter an empty signal")
    if not np.all(np.isfinite(x)):
        raise SignalError("signal contains non-finite samples")
    return spsignal.sosfilt(sos, x, axis=-1)


NORMALIZATION_METHODS = ("minmax", "meanstd")


def normalize(x: np.ndarray, method: str = "minmax") -> np.ndarray:
    """Normalize per channel along the last axis.

    ``minmax`` maps to [0, 1] via (x - min) / (max - min + 1e-8); ``meanstd``
    standardizes via (x - mean) / (std + 1e-8).  A constant channel maps to
    zeros under both methods.  A stack of (C, T) windows is normalized one
    window at a time into the result, which keeps the temporaries in cache
    and changes no value.
    """
    x = np.asarray(x, dtype=np.float64)
    if method not in NORMALIZATION_METHODS:
        raise ConfigError(
            f"unknown normalization {method!r}; expected one of {NORMALIZATION_METHODS}"
        )
    out = np.empty_like(x)
    for window, result in zip(x, out) if x.ndim > 2 else [(x, out)]:
        if method == "minmax":
            shift = window.min(axis=-1, keepdims=True)
            scale = window.max(axis=-1, keepdims=True) - shift + 1e-8
        else:
            shift = window.mean(axis=-1, keepdims=True)
            scale = window.std(axis=-1, keepdims=True) + 1e-8
        np.subtract(window, shift, out=result)
        np.divide(result, scale, out=result)
    return out


def preprocess_recording_samples(
    samples: np.ndarray, spec: FilterSpec = FilterSpec()
) -> np.ndarray:
    """Band-pass filter whole-record samples (channels, n_samples)."""
    sos = design_butterworth_bandpass(spec)
    return apply_filter(sos, samples)
