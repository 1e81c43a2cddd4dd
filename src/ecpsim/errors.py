"""Exception types shared across the package."""


class EcpError(Exception):
    """Base class for all package-specific errors."""


class ZeroStateError(EcpError):
    """An operation needed a nonzero state (e.g. normalizing the zero vector)."""


class ShapeMismatchError(EcpError):
    """Two states, or a state and an operation, disagree on basis shape."""


class LinearBasisPhotonError(EcpError):
    """An operation requires a circular-basis photon but got H/V."""


class CircularBasisPhotonError(EcpError):
    """An operation requires a linear-basis photon but got R/L."""


class InvalidCoefficientsError(EcpError):
    """A coefficient triple violates the protocol preconditions."""


class DegenerateCoefficientsError(EcpError):
    """An ancilla photon cannot be prepared from the given coefficients."""


class DomainError(EcpError):
    """An argument lies outside a formula's domain."""


class ConfigError(EcpError):
    """A run configuration file or flag combination is invalid."""


class RoutingError(EcpError):
    """A station's detector routes break the pairing its rounds rely on."""
