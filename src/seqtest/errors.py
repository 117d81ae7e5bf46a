"""Exception types shared across the package."""

__all__ = [
    "SeqTestError",
    "DomainError",
    "InfeasibleDesignError",
    "StreamExhaustedError",
    "UnsupportedModelError",
    "PlanDocumentError",
]


class SeqTestError(Exception):
    """Base class for all errors raised by this package.  ``context``, where
    given, names the offending field or line; the message ends with it."""

    def __init__(self, message: str, context: str | None = None):
        super().__init__(message)
        self.context = context

    def __str__(self) -> str:
        return f"{self.args[0]} (at {self.context})" if self.context else self.args[0]


class DomainError(SeqTestError, ValueError):
    """A numeric argument lies outside its admissible domain."""


class InfeasibleDesignError(SeqTestError, RuntimeError):
    """No design satisfies the stated constraints within the search budget."""


class StreamExhaustedError(SeqTestError, RuntimeError):
    """An observation stream ended before the test reached a decision."""


class UnsupportedModelError(SeqTestError, TypeError):
    """The requested operation is not defined for the given model."""


class PlanDocumentError(SeqTestError, ValueError):
    """A plan document failed to parse or validate."""
