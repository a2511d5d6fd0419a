"""Exception taxonomy shared across the package."""


class QVerifyError(Exception):
    """Base class for all package errors."""


# -- linear algebra / state-level --------------------------------------------

class NonUnitary(QVerifyError):
    pass


class IndexOutOfRange(QVerifyError):
    pass


class DimensionMismatch(QVerifyError):
    pass


class NotNormalized(QVerifyError):
    pass


class ZeroPurity(QVerifyError):
    pass


# -- circuit model ------------------------------------------------------------

class InvalidPartition(QVerifyError):
    pass


class ArityMismatch(QVerifyError):
    pass


class EmptyGateSet(QVerifyError):
    pass


class DegenerateGateSet(QVerifyError):
    """Two materially different gate configurations produce identical states."""


class UnknownGateName(QVerifyError):
    pass


class CircuitSyntaxError(QVerifyError):
    """Malformed circuit file; carries a human-readable location."""

    def __init__(self, message, where=None):
        self.where = where
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))


# -- device -------------------------------------------------------------------

class InvalidRequest(QVerifyError):
    pass


# -- tomography ---------------------------------------------------------------

class InvalidParameter(QVerifyError):
    pass


# -- reconstruction -----------------------------------------------------------

class ReconstructionError(QVerifyError):
    """Base for failures while assembling a layer; ``learn_multi`` sets ``layer``."""

    layer: int | None = None


class AmbiguousMatch(ReconstructionError):
    """Two or more non-equivalent gates sit within the matching tolerance."""


class OverlappingAssignment(ReconstructionError):
    """A qubit was claimed by two-qubit matches in more than one pair window."""


class NoMatch(ReconstructionError):
    """No gate in the set matches; carries the nearest candidates for diagnosis."""

    def __init__(self, message, qubits=None, nearest=None):
        self.qubits = qubits
        self.nearest = nearest or []
        detail = message
        if self.nearest:
            listing = ", ".join(f"{name}: {dist:.4f}" for name, dist in self.nearest)
            detail = f"{message}; nearest candidates: {listing}"
        super().__init__(detail)


class TieWarning(UserWarning):
    """Residual-error search found two candidates with equal scores."""
