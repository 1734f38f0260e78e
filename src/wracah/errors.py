"""Exception types shared across the package."""


class WracahError(ValueError):
    """Base class for all library errors."""


class InvalidOrderError(WracahError):
    """Deformation order k was not an integer >= 2."""


class InvalidArgumentError(WracahError):
    """Malformed half-integer, parity mismatch, or out-of-range label."""


class SpaceMismatchError(WracahError):
    """Operators defined over different spaces were combined."""


class SubspaceLeakageError(WracahError):
    """An operator does not preserve the fixed-total-occupation subspace."""


class UnsupportedLimitError(WracahError):
    """j = 0 was requested where a nontrivial representation is needed."""


class TableConflictError(WracahError):
    """Two records of a coupling table give one coefficient different values."""


class UndeterminedReducedElementError(WracahError):
    """Every coupling symbol vanished; no reduced matrix element exists."""
