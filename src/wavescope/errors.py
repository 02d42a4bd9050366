"""Exception types shared across the toolkit.

Every error raised by library code derives from :class:`WavescopeError` so
callers can catch one base class at pipeline boundaries.  The CLI maps the
three coarse families (configuration, stage execution, I/O) to exit codes.
An error's message names what it refused, the value or the stage; only
:class:`ParseError` also carries a field, its row.
"""

from __future__ import annotations


class WavescopeError(Exception):
    """Base class for all library errors."""


class ParseError(WavescopeError):
    """Malformed text input.  Carries the 1-based row number when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class ValidationError(WavescopeError):
    """Input data violates a structural contract (NaN, Inf, too short...)."""


class NyquistError(ValidationError):
    """A requested component period is not resolvable at the sample rate."""


class EmbeddingError(WavescopeError):
    """Circulant covariance embedding produced a negative eigenvalue."""


class TooShortError(ValidationError):
    """Signal too short for the requested decomposition depth."""


class InsufficientBandError(WavescopeError):
    """Fit band contains too few usable spectral bins."""


class OutOfRangeError(WavescopeError):
    """A derived quantity fell outside its valid open interval; the
    message states the value."""


class BoundaryValueError(WavescopeError):
    """Exact regime-boundary input where a piecewise map is undefined."""


class ZeroVarianceError(WavescopeError):
    """All segments had zero variance; negative moments are undefined."""


class ZeroVarianceWarning(UserWarning):
    """Some zero-variance segments were dropped from a negative moment."""


class ScaleOutOfRangeError(WavescopeError):
    """Requested wavelet scale outside the resolvable range."""


class LengthMismatchError(WavescopeError):
    """Two series that must be sampled identically are not."""


class InsufficientNeighborsError(WavescopeError):
    """Too few valid neighbor pairs to trace divergence."""


class PoorFitWarning(UserWarning):
    """A least-squares fit fell below the configured r-squared floor."""


class EmbeddingQualityWarning(UserWarning):
    """False-nearest-neighbor fraction suggests the embedding is too small."""


class ConfigError(WavescopeError):
    """Pipeline configuration is invalid.  CLI exit code 2."""


class StageError(WavescopeError):
    """A pipeline stage failed; the message names the stage.  CLI exit code 3."""
