"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class ConfigError(ValueError):
    """A scenario configuration is missing or malformed (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy target (CLI exit code 3)."""


class InsufficientBasisError(NumericalError):
    """A truncated eigenbasis cannot represent a state accurately enough."""
