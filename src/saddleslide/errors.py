"""Exception taxonomy shared across the package.

Contracts distinguish bad data (DomainError), bad scalar arguments
(ParameterError), incompatible objects handed to a run (ConfigurationError),
a failed oracle certificate (CertificationError) and gossip matrices of
disconnected networks (DegenerateNetworkError). The CLI maps
ConfigurationError to exit code 2 and CertificationError to exit code 3.

``is_int`` and ``is_real`` are the one definition of a scalar argument: each
entry point checks its integers and reals with them and then their range,
raising its own class with a message that names the argument and ends with
the value's repr.
"""

import math

import numpy as np


def is_int(v) -> bool:
    """A Python or numpy integer, not a bool (YAML's true and false)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v) -> bool:
    """A finite Python or numpy real, not a bool; an int too large for a
    float is not finite."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


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
