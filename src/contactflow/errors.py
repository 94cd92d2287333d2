"""Exception hierarchy used across the package."""


class ContactFlowError(Exception):
    """Base class for all package-specific failures."""


class ContractViolation(ContactFlowError, ValueError):
    """An argument violated a documented precondition (dimension mismatch, off-shell state, ...)."""


class DegeneracyError(ContactFlowError):
    """The momentum gradient of the symbol became radial (touching point); propagation cannot continue."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class NoLiftError(ContactFlowError):
    """No on-shell momentum scaling exists for a front sample on the requested branch."""


class CrossingError(ContactFlowError):
    """A characteristic did not cross the requested phase-space section within the parameter budget."""


class EmptyDiagramError(ContactFlowError):
    """All Monge-cone rays at a point were lightlike; the unit-level section is empty."""


class FitQualityError(ContactFlowError):
    """A power-law fit was requested over too narrow a parameter range to be meaningful."""


class DataQualityError(ContactFlowError):
    """Sampled input data (e.g. an interpolated action function) was too noisy for the requested check."""


class ConfigError(ContactFlowError):
    """A scenario configuration file failed validation; ``key``, if set, is
    the key at fault below the block the caller names."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class InternalConsistencyError(ContactFlowError):
    """An invariant the engine itself guarantees was violated; indicates a bug or corrupted input."""
