"""Exception types shared across the engine."""


class CriError(Exception):
    """Base class for all engine errors."""


class ParseError(CriError):
    """A document could not be parsed at all (malformed XML/JSON/CSV)."""

    def __init__(self, reason: str, line: int | None = None):
        self.line = line
        if line is not None:
            super().__init__(f"line {line}: {reason}")
        else:
            super().__init__(reason)


class ValidationError(CriError):
    """A document parsed but violates a structural or range constraint."""


class ModelError(CriError):
    """A model cannot be constructed or evaluated from the given inputs."""


class CapacityError(CriError):
    """A requested computation exceeds a configured size cap. `estimate`,
    when given, is the size the cap was checked against before the work
    began; the message then ends with it."""

    def __init__(self, message: str, estimate: int | None = None):
        self.estimate = estimate
        super().__init__(message if estimate is None else f"{message} (estimated size {estimate})")


class UsageError(CriError):
    """The caller invoked an operation with unusable arguments."""
