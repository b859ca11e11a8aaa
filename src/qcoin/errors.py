"""Exception types shared across the package."""


class QCoinError(Exception):
    """Base class for all qcoin errors."""


class InvalidParameter(QCoinError, ValueError):
    """A parameter is outside its allowed range."""


class ReducibleChain(QCoinError):
    """The chain has no unique stationary distribution (stay probabilities both 1)."""


class StepCountTooLarge(QCoinError, ValueError):
    """Requested step count exceeds the enumeration bound."""


class DimensionMismatch(QCoinError, ValueError):
    """Two objects that must share a step count or shape do not."""


class NonPhysicalState(QCoinError):
    """A density matrix has a significantly negative eigenvalue."""


class FitDidNotConverge(QCoinError):
    """The dip-curve least-squares fit failed to converge."""


class InternalError(QCoinError):
    """An internal consistency check failed, e.g. a squared overlap above 1 beyond rounding."""


class ConfigError(QCoinError, ValueError):
    """An experiment configuration failed validation."""
