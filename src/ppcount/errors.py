"""Exception types shared across the library.

Each maps to a distinct failure mode so the CLI can translate them
into stable exit codes.
"""


class PPCountError(Exception):
    """Base class for all library errors."""


class DomainError(PPCountError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class CapacityError(PPCountError):
    """Requested computation exceeds a configured resource ceiling."""


class CoverageError(PPCountError):
    """A zero table (or sieve base) does not cover the requested range."""


class IntegrityError(PPCountError):
    """Loaded data failed a validation gate."""


class TableParseError(PPCountError):
    """Malformed zero-table file."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no
