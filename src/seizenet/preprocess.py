"""Band-pass filtering and per-window normalization.

Filtering is causal (forward-only) and applied to whole records before
windowing, so no window sees samples from its own future relative to the
record timeline.  Filters are designed as second-order sections for
numerical stability at a 0.5 Hz corner, and applied block by block with
matrix products.  The module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DesignError, SignalError


@dataclass(frozen=True)
class FilterSpec:
    """Band-pass design parameters."""

    order: int = 5
    low_hz: float = 0.5
    high_hz: float = 50.0
    sample_rate_hz: int = 256

    def __post_init__(self):
        # past 511, 4.0**order in the design's gain overflows a float
        if self.order != int(self.order) or not 1 <= self.order <= 511:
            raise DesignError(
                f"filter order must be an integer in [1, 511], got {self.order}"
            )
        nyquist = self.sample_rate_hz / 2.0
        if not (0.0 < self.low_hz < self.high_hz < nyquist):
            raise DesignError(
                f"band edges must satisfy 0 < {self.low_hz} < {self.high_hz} "
                f"< Nyquist ({nyquist})"
            )


def design_butterworth_bandpass(spec: FilterSpec = FilterSpec()) -> np.ndarray:
    """Design a Butterworth band-pass filter as second-order sections.

    Returns an (n_sections, 6) array of [b0 b1 b2 a0 a1 a2] rows with a0=1.
    The analog prototype is moved to the pre-warped band edges, mapped by
    the bilinear transform and paired into sections as
    ``scipy.signal.butter(..., output="sos")`` does, with the same
    arithmetic, so the coefficients are equal to scipy's bit for bit: each
    pole pair takes the two nearest zeros, the pole nearest the unit circle
    goes in the last section, and the gain goes in the first.
    Raises DesignError if any pole lies on or outside the unit circle.
    """
    n = spec.order
    edges = np.array([spec.low_hz, spec.high_hz], dtype=np.float64)
    warped = 4.0 * np.tan(np.pi * (edges / (spec.sample_rate_hz / 2.0)) / 2.0)
    bw = warped[1] - warped[0]  # a numpy float: bw**n overflows to inf
    wo = float(np.sqrt(warped[0] * warped[1]))
    # the analog low-pass prototype's poles, moved to the band around wo
    m = np.arange(-n + 1, n, 2, dtype=np.float64)
    poles = -np.exp(1j * np.pi * m / (2 * n)) * bw / 2
    shift = np.sqrt(poles**2 - wo**2)
    poles = np.concatenate((poles + shift, poles - shift))
    # bilinear transform at fs = 2: the n zeros at s = 0 go to z = 1 and
    # the n at infinity to z = -1
    with np.errstate(over="ignore", invalid="ignore"):
        gain = bw**n * np.real(4.0**n / np.prod(4.0 - poles))
    if not 0 < gain < np.inf:
        raise DesignError(f"order {n} is too high: the filter gain is {gain}")
    poles = (4.0 + poles) / (4.0 - poles)
    zeros = np.repeat([-1.0, 1.0], n)
    # one pole per conjugate pair (the pair's mean), by real part, then the
    # real poles: the order in which ties between poles are settled below
    poles = poles[np.lexsort((np.abs(poles.imag), poles.real))]
    real = np.abs(poles.imag) <= 100 * np.finfo(np.float64).eps * np.abs(poles)
    upper = poles[~real & (poles.imag > 0)]
    lower = poles[~real & (poles.imag < 0)]
    poles = np.concatenate(((upper + lower.conj()) / 2, poles[real].real))

    sos = np.zeros((n, 6))
    for row in range(n - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(poles)))
        p1 = poles[i]
        poles = np.delete(poles, i)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(poles))
            i = reals[np.argmin(np.abs(1 - np.abs(poles[reals])))]
            p2 = poles[i]
            poles = np.delete(poles, i)
        else:
            p2 = p1.conj()
        pair = []
        for _ in range(2):
            i = np.argsort(np.abs(zeros - p1))[0]
            pair.append(zeros[i])
            zeros = np.delete(zeros, i)
        sos[row, :3] = np.convolve([1.0, -pair[0]], [1.0, -pair[1]])
        sos[row, 3:] = np.real(np.convolve(np.array([1, -p1]), np.array([1, -p2])))
    sos[0, :3] *= gain
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
    return _run_blocks(_block_system(sos), x)


# Samples per block of the blocked filter: one GEMM computes every block's
# response to its own input, and a short loop carries the state across blocks.
BLOCK = 64


def _block_system(sos: np.ndarray) -> tuple[np.ndarray, ...]:
    """The section cascade as block matrices for ``_run_blocks``.

    The direct-form-II-transposed sections form one state-space system
    x' = A x + B u, y = C x + D u with two states per section.  Over a
    block of BLOCK samples, the input reaches the output through the
    Toeplitz matrix of the impulse response and the next block's state
    through A^j B, and the block's starting state reaches its outputs
    through C A^n and the next starting state through A^BLOCK.
    """
    sos = np.atleast_2d(np.asarray(sos, dtype=np.float64))
    n_states = 2 * len(sos)
    a = np.zeros((n_states, n_states))
    b = np.zeros(n_states)
    c = np.zeros(n_states)  # section input = c @ x + d * u
    d = 1.0
    for s, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        c_out = b0 * c
        c_out[2 * s] += 1.0
        d_out = b0 * d
        a[2 * s] = b1 * c - a1 * c_out
        a[2 * s, 2 * s + 1] += 1.0
        a[2 * s + 1] = b2 * c - a2 * c_out
        b[2 * s] = b1 * d - a1 * d_out
        b[2 * s + 1] = b2 * d - a2 * d_out
        c, d = c_out, d_out
    observe = [c]  # C A^n
    drive = [b]  # A^j B
    step = a  # A^BLOCK, by repeated products: squaring loses a digit
    for _ in range(BLOCK - 1):
        observe.append(observe[-1] @ a)
        drive.append(a @ drive[-1])
        step = a @ step
    observe = np.array(observe)
    impulse = np.concatenate(([d], observe[:-1] @ b))
    lags = np.abs(np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK)))
    forced = np.triu(impulse[lags])  # [m, n]: input m to output n >= m
    return forced, np.array(drive[::-1]), step.T, observe.T


def _run_blocks(system: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """Filter ``x`` along its last axis with ``_block_system``'s matrices."""
    forced, drive, step_t, observe_t = system
    x = np.asarray(x)
    if x.size == 0:
        raise SignalError("cannot filter an empty signal")
    if not np.all(np.isfinite(x)):
        raise SignalError("signal contains non-finite samples")
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    n_blocks = -(-n // BLOCK)
    # zero padding at the tail: the filter is causal, so it moves no output
    u = np.zeros((len(rows), n_blocks * BLOCK))
    u[:, :n] = rows
    u = u.reshape(len(rows), n_blocks, BLOCK)
    y = u @ forced
    inputs = u @ drive
    states = np.empty_like(inputs)  # each block's starting state
    state = np.zeros((len(rows), inputs.shape[-1]))
    for k in range(n_blocks):
        states[:, k] = state
        state = state @ step_t + inputs[:, k]
    y += np.matmul(states, observe_t, out=u)
    return y.reshape(len(rows), -1)[:, :n].reshape(x.shape)


NORMALIZATION_METHODS = ("minmax", "meanstd")


@dataclass(frozen=True)
class PreprocessSpec:
    """The band-pass (``None`` for none) and the per-window normalization
    (``None`` for none) applied to every record before training."""

    filter: FilterSpec | None = FilterSpec()
    normalization: str | None = "meanstd"

    def __post_init__(self):
        if self.filter == "default":
            object.__setattr__(self, "filter", FilterSpec())
        if not (self.filter is None or isinstance(self.filter, FilterSpec)):
            raise ConfigError("preprocess.filter must be null, 'default', or an object")
        if self.normalization not in (None, *NORMALIZATION_METHODS):
            raise ConfigError(
                f"preprocess.normalization must be null or one of "
                f"{NORMALIZATION_METHODS}, got {self.normalization!r}"
            )


def normalize(x: np.ndarray, method: str) -> np.ndarray:
    """Normalize per channel along the last axis.

    ``minmax`` maps to [0, 1] via (x - min) / (max - min + 1e-8); ``meanstd``
    standardizes via (x - mean) / (std + 1e-8).  A constant channel maps to
    zeros under both methods.
    """
    x = np.asarray(x, dtype=np.float64)
    if method == "minmax":
        shift = x.min(axis=-1, keepdims=True)
        scale = x.max(axis=-1, keepdims=True) - shift + 1e-8
        out = x - shift
    elif method == "meanstd":
        # x.std's steps, in the one temporary that then holds the result
        shift = x.mean(axis=-1, keepdims=True)
        out = x - shift
        out *= out
        scale = np.sqrt(out.mean(axis=-1, keepdims=True)) + 1e-8
        np.subtract(x, shift, out=out)
    else:
        raise ConfigError(
            f"unknown normalization {method!r}; expected one of {NORMALIZATION_METHODS}"
        )
    out /= scale
    return out


@lru_cache(maxsize=8)
def _spec_system(spec: FilterSpec) -> tuple[np.ndarray, ...]:
    system = _block_system(design_butterworth_bandpass(spec))
    for matrix in system:
        matrix.flags.writeable = False  # shared by every caller
    return system


def preprocess_recording_samples(
    samples: np.ndarray, spec: FilterSpec = FilterSpec()
) -> np.ndarray:
    """Band-pass filter whole-record samples (channels, n_samples)."""
    return _run_blocks(_spec_system(spec), samples)
