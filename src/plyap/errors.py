"""Exception hierarchy.

Every error raised by this package derives from PlyapError so callers
(and the CLI exit-code mapping) can distinguish our failures from bugs.
"""


class PlyapError(Exception):
    """Base class for all package errors."""


class BasisMismatchError(PlyapError):
    """Two states with different basis descriptors entered a binary operation."""


class InvalidStateError(PlyapError):
    """A state fails its invariants (zero norm, non-finite entries, bad shape)."""


class DomainError(PlyapError, ValueError):
    """A scalar argument is outside the documented domain."""


class SaturationError(PlyapError):
    """Every usable point sits on the bounded-metric plateau."""


class InsufficientDataError(PlyapError):
    """Too few usable points for the requested estimate."""


class DegeneratePathError(PlyapError):
    """The path is stationary in ray space; no exponent is defined."""


class DataFormatError(PlyapError):
    """External data failed validation."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ConfigError(PlyapError):
    """An experiment configuration is malformed."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field

