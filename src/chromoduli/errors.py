"""Shared exception types."""


class GraphParseError(ValueError):
    """Raised when a graph text file cannot be parsed."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration or term budget would be exceeded."""


class ConvergenceError(RuntimeError):
    """Raised when a chamber's Newton run exhausts its iteration budget, its
    line search stalls, or -H fails to factor at any iterate."""


class EngineConsistencyError(RuntimeError):
    """Raised when independently computed quantities disagree.

    This always signals a bug (or a violated engine invariant such as a
    stratum that is not of top degree at integration), never a property of
    the input.
    """
