"""Exception types shared across the package."""


class PairsimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PairsimError):
    """Invalid configuration file, parameter value, or CLI usage."""


class ConvergenceError(PairsimError):
    """A solver finished without reaching its stated tolerance."""


class DegenerateSteadyStateError(PairsimError):
    """The Liouvillian null space is not one-dimensional, so there is
    no unique steady state to report."""


class TruncationError(PairsimError):
    """Observables changed beyond tolerance when the Fock truncation was
    doubled, so results at the requested truncation are not trustworthy."""
