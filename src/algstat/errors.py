"""Shared exception types.

Two families matter for the CLI exit contract: InputError (bad user
input, exit code 1) and GuardrailError (a computation tripped a
resource or genericity guardrail, exit code 2).
"""


class AlgstatError(Exception):
    """Base class for library errors."""


class InputError(AlgstatError):
    """Malformed or inconsistent user input."""


class ParseError(InputError):
    """Syntax error in a polynomial, ideal, or matrix text."""

    def __init__(self, message, line=None, column=None):
        self.reason = message  # without the line/column prefix
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class NotBinomialIdealError(InputError):
    """Raised when an operation requires a binomial (toric) ideal."""


class GuardrailError(AlgstatError):
    """A computation exceeded a built-in safety bound."""


class DegenerateFiberError(GuardrailError):
    """A likelihood fiber was not zero-dimensional for sampled data."""


class UnstableCountError(GuardrailError):
    """Fiber point counts disagreed across all random trials."""
