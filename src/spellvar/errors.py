"""Exception types shared across the package."""


class SpellvarError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SpellvarError):
    """A malformed input file.

    ``line`` is the 1-based line number when the problem is tied to a
    specific line, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingTokenError(SpellvarError, KeyError):
    """A token required for a computation is absent from the vocabulary."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it

    def __init__(self, token: str):
        super().__init__(f"token not in embedding vocabulary: {token!r}")
        self.token = token


class DegenerateVectorError(SpellvarError):
    """A zero vector where a direction is required."""
