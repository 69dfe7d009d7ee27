"""Exception hierarchy shared across the package.

The CLI maps each class to a distinct exit code, so library code should
raise the most specific one that applies.
"""


class KickresError(Exception):
    """Base class for all package errors."""


class ValidationError(KickresError):
    """Malformed specification, configuration, or argument."""


class TruncationError(KickresError):
    """Momentum-window tail mass exceeded the configured tolerance."""


class ResourceCapError(KickresError):
    """A lattice or state would exceed the configured memory cap."""
