"""Shared exception and warning types."""


class BudgetError(RuntimeError):
    """An enumeration or window budget would be exceeded."""


class ParseError(ValueError):
    """A data file is malformed; the message carries file and line context."""


class ConvergenceWarning(UserWarning):
    """An iterative routine stopped short of its target tolerance."""
