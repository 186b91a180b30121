"""Exception taxonomy shared across the package.

Every error raised by seizenet derives from SeizenetError so callers can
catch the whole family.  The CLI maps subfamilies to exit codes.
"""


class SeizenetError(Exception):
    """Base class for all seizenet errors."""


class ParseError(SeizenetError):
    """Malformed EDF bytes; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class UnsupportedError(SeizenetError):
    """Well-formed input using an EDF feature outside the supported subset."""


class ChannelError(SeizenetError):
    """Records of one corpus disagree in their channel count."""


class AnnotationError(SeizenetError):
    """Bad annotation CSV; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DesignError(SeizenetError):
    """Infeasible filter specification (e.g. edge at/above Nyquist)."""


class SignalError(SeizenetError):
    """Non-finite values in a signal fed to the filter."""


class ShapeError(SeizenetError):
    """Incompatible tensor shapes or axis sizes."""


class NumericsError(SeizenetError):
    """Non-finite values where finite numbers are required."""


class CheckpointError(SeizenetError):
    """Unreadable checkpoint or incompatible parameter shapes."""


class SamplerError(SeizenetError):
    """Oversampler preconditions violated (single class, too few minority)."""


class TrainError(SeizenetError):
    """Training diverged; carries the epoch at which it happened."""

    def __init__(self, message: str, epoch: int | None = None):
        self.epoch = epoch
        if epoch is not None:
            message = f"{message} (epoch {epoch})"
        super().__init__(message)


class ProtocolError(SeizenetError):
    """Cross-validation or pretraining protocol cannot be formed."""


class ConfigError(SeizenetError):
    """Invalid experiment configuration."""


class MetricError(SeizenetError):
    """Degenerate input to a metric (e.g. zero-duration track)."""


class SpecError(SeizenetError):
    """Infeasible synthetic corpus specification."""
