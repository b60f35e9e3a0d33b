"""Exception types shared across the package, and the value checks every
configuration runs on construction."""
import math


class SwphaseError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SwphaseError):
    """A parameter or configuration value is out of its valid range."""


class StreamIntegrityError(SwphaseError):
    """A sample stream carried a non-finite or otherwise invalid value."""


class FileFormatError(SwphaseError):
    """A file failed to parse; message names the offending line or byte."""


class UndefinedStatisticError(SwphaseError):
    """A statistic has no defined value (zero resultant, empty denominator)."""


class RecordingTooShortError(SwphaseError):
    """Recording shorter than the minimum the operation requires."""


class TimerResolutionError(SwphaseError):
    """The benchmark clock is too coarse for per-sample measurement."""


def check_finite(config):
    """Refuse a float field of a config dataclass, or a float member of a
    tuple field, that is not finite."""
    for name, value in vars(config).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigurationError(f"{name} must be finite, got {v!r}")


def check_positive(config, *names):
    """Refuse a config whose named fields are not all above zero."""
    for name in names:
        if not getattr(config, name) > 0:
            raise ConfigurationError(f"{name} must be positive")
