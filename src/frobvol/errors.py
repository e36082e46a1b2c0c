"""Exception taxonomy shared by all modules."""


class FrobvolError(Exception):
    """Base class for all library-specific errors."""


class NonPrimeError(FrobvolError, ValueError):
    """Declared characteristic is not a prime in the supported range."""


class RingMismatchError(FrobvolError, ValueError):
    """Operands live in different rings (or fields)."""


class ExponentOverflowError(FrobvolError, OverflowError):
    """A monomial exponent left the checked 64-bit range.

    `partial` carries the table/rows completed before the overflow, as for
    `BudgetExceededError`, when a table command set it.
    """

    partial = None


class BadInputError(FrobvolError, ValueError):
    """Structurally invalid argument (e.g. q not a power of p)."""


class BadLevelError(FrobvolError, ValueError):
    """Requested level is not available in an explicit p-family."""


class HypothesisViolatedError(FrobvolError, ValueError):
    """A stated hypothesis fails (radical containment, proper ideal, ...)."""


class NotPrimaryError(FrobvolError, ValueError):
    """Quotient has infinite length where a finite one is required."""


class SearchLimitError(FrobvolError, RuntimeError):
    """Incremental power search exceeded its configured cap."""


class BudgetExceededError(FrobvolError, RuntimeError):
    """Enumeration exceeded its membership-call budget.

    `partial` carries whatever table/rows were completed before the cutoff.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class TheoremViolationError(FrobvolError, AssertionError):
    """A relation that is a theorem came out false: an implementation bug.

    `witness` carries the offending point/value.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


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
