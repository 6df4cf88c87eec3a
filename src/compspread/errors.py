"""Exception types shared across the package.

Each carries the CLI exit code used when the error surfaces from a
subcommand.
"""


class CompspreadError(Exception):
    """Base of the package's errors.  ``diagnostics``, when given, is a
    mapping of the numbers behind the error, which the CLI writes to
    ``error.json`` beside the message."""

    exit_code = 1

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConfigError(CompspreadError):
    """Malformed or inconsistent configuration (unknown keys, bad values)."""

    exit_code = 2


class PreconditionError(CompspreadError):
    """A mathematical precondition (hypothesis, ordering, sign) is violated."""

    exit_code = 3


class ConvergenceError(CompspreadError):
    """An iteration exhausted its budget without meeting its tolerance."""

    exit_code = 4


class NumericalGuardError(CompspreadError):
    """A runtime numerical guard fired: blow-up, boundary contact,
    stability-bound violation, or a monotonicity fault."""

    exit_code = 5
