"""Exception types shared across the package."""


class HypoexpError(Exception):
    """Base class for all errors raised by hypoexp."""


class ParameterError(HypoexpError, ValueError):
    """A distribution or configuration parameter violates its invariants."""


class DomainError(ParameterError):
    """An evaluation point lies outside the domain of the operation."""


class DataError(HypoexpError, ValueError):
    """A data batch is empty, negative, degenerate, or otherwise unusable."""


class ConvergenceError(HypoexpError, RuntimeError):
    """An iterative fit hit its iteration cap before converging."""
