"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
anything else -> 3.
"""


class UsageError(Exception):
    """Bad flags, bad config values, or an inconsistent run request."""


class DataError(Exception):
    """Malformed or inconsistent input data."""


class TreebankError(DataError):
    """Unparseable bracketed-tree input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GrammarError(DataError):
    """A grammar that violates the shape restrictions the decoders rely on."""


class ModelFormatError(DataError):
    """Version mismatch, truncation, checksum failure, or a payload that
    does not describe a valid model."""
