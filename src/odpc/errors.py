"""Exception types shared across the package.

Everything raised on purpose derives from OdpcError so callers (and the CLI)
can distinguish our failures from genuine bugs. Argument/contract violations
also subclass ValueError to stay friendly to generic handlers.
"""

from __future__ import annotations


class OdpcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(OdpcError, ValueError):
    """A caller-supplied value violates an operation's precondition."""


class ShapeError(InvalidArgumentError):
    """Array dimensions do not match what the operation requires."""


class DegenerateBatchError(InvalidArgumentError):
    """A batch cannot support the requested computation (too small or single-class)."""


class ConfigError(InvalidArgumentError):
    """A configuration object or file failed validation."""


class FormatError(OdpcError):
    """A persisted file has the wrong magic, version, or structure."""


class CorruptFileError(FormatError):
    """A persisted file failed its integrity (CRC) check."""


class GenerationError(OdpcError):
    """Peer-class generation could not produce enough valid labels."""


class DivergenceError(OdpcError):
    """Training reached a loss, or an update wrote parameters, that are not finite."""


class OfflineError(OdpcError):
    """A network-backed provider was required while running offline."""
