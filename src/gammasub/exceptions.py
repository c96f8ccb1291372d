"""Exception hierarchy shared across the package."""


class GammasubError(Exception):
    """Base class for all package errors."""


class DomainError(GammasubError, ValueError):
    """An argument lies outside the mathematical domain of a function."""


class ContractError(GammasubError, ValueError):
    """Inputs violate a documented precondition between operations."""


class ConfigError(GammasubError, ValueError):
    """Inconsistent or malformed run configuration."""


class DataError(GammasubError, ValueError):
    """Observation data unusable as given."""


class DegeneratePathError(GammasubError, RuntimeError):
    """A sampled path's total increment underflowed too far to pin it."""
