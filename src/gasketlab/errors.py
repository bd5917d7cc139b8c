"""Exception types shared across the package."""


class GasketLabError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(GasketLabError):
    """A size guard was exceeded (level too deep, ensemble too large)."""


class UsageError(GasketLabError, ValueError):
    """Caller violated a precondition (bad word length, missing values, schema)."""


class NumericOverflowError(GasketLabError, OverflowError):
    """A computed quantity left the floating-point range."""


class SchemeError(GasketLabError, RuntimeError):
    """A numerical scheme failed to converge; carries diagnostics in args."""

