"""Exception types shared across the package."""


class IllConditionedError(ValueError):
    """Raised when a linear system is too ill-conditioned to invert reliably."""

    def __init__(self, message: str, condition_number: float):
        super().__init__(message)
        self.condition_number = condition_number


class DegenerateSpectrumError(ValueError):
    """Unperturbed spectrum has (near-)degenerate eigenphases."""


class PairingError(ValueError):
    """Eigenvalue pairing between measured and unperturbed spectra broke down."""


class NonPhysicalStateError(ValueError):
    """A constructed density matrix has a negative eigenvalue."""


class ConfigError(ValueError):
    """A scenario configuration file is malformed or inconsistent."""
