"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
anything else -> 3.
"""

from contextlib import contextmanager
from typing import Iterator


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


@contextmanager
def file_errors(action: str, path: str) -> Iterator[None]:
    """Turn an ``OSError`` or a text decoding error raised in the block
    into a DataError naming ``path``: a file that cannot be read or
    written is bad input."""
    try:
        yield
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot {action} {path}: {exc}") from exc
