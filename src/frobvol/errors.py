"""Exception taxonomy shared by all modules.

Each error says how a command-line run that it ends exits (`cli.main`):
`exit_code` is 2 for a hypothesis or input violation, 3 for a budget exit
and 4 for a theorem that came out false; `message()` is the one stderr
line; `partial`, when a table command set it, is the table of the rows
finished before a cut-off, written as the payload.
"""


class FrobvolError(Exception):
    """Base class for all library-specific errors."""

    exit_code = 2
    partial = None

    def message(self) -> str:
        return f"error: {self}"


class NonPrimeError(FrobvolError, ValueError):
    """Declared characteristic is not a prime in the supported range."""


class RingMismatchError(FrobvolError, ValueError):
    """Operands live in different rings (or fields)."""


class ExponentOverflowError(FrobvolError, OverflowError):
    """A monomial exponent left the checked 64-bit range."""


class BadInputError(FrobvolError, ValueError):
    """Structurally invalid argument (e.g. q not a power of p)."""


class BadLevelError(FrobvolError, ValueError):
    """Requested level is not available in an explicit p-family."""


class HypothesisViolatedError(FrobvolError, ValueError):
    """A stated hypothesis fails (radical containment, proper ideal, ...)."""


class NotPrimaryError(FrobvolError, ValueError):
    """Quotient has infinite length where a finite one is required."""


class BudgetExceededError(FrobvolError, RuntimeError):
    """Enumeration exceeded its budget (`regions.BudgetCounter` units)."""

    exit_code = 3


class TheoremViolationError(FrobvolError, AssertionError):
    """A relation that is a theorem came out false: an implementation bug.

    `witness` carries the offending point/value.
    """

    exit_code = 4

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness

    def message(self) -> str:
        return f"internal check failure: {self} (witness: {self.witness})"


class PolyParseError(FrobvolError, ValueError):
    """Polynomial text does not match the input grammar."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SpecParseError(FrobvolError, ValueError):
    """Problem-spec text does not match the input grammar."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
