"""Exception taxonomy shared across the package.

Contracts distinguish bad data (DomainError), bad scalar arguments
(ParameterError), incompatible objects handed to a run (ConfigurationError),
a failed oracle certificate (CertificationError) and gossip matrices of
disconnected networks (DegenerateNetworkError). The CLI maps
ConfigurationError to exit code 2 and CertificationError to exit code 3.
"""


class DomainError(ValueError):
    """A point or matrix violates a domain precondition (infeasible, non-finite, ...)."""


class ParameterError(ValueError):
    """A scalar argument is out of range (nonpositive epsilon, beta + eta <= 0, ...)."""


class ConfigurationError(ValueError):
    """Problem, schedule or config objects do not fit together."""


class DimensionError(ValueError):
    """Array shapes do not match the declared block structure."""


class CertificationError(RuntimeError):
    """An (M, delta) oracle certificate failed on sampled data."""


class DegenerateNetworkError(ValueError):
    """The gossip matrix's kernel is larger than the consensus line (a
    disconnected network of m >= 2 nodes)."""
