"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: configuration errors exit 2,
numerical failures exit 3, precondition failures exit 4. A blowup is an
outcome, not an error: trajectories and hitting times report it in their
results. An array numpy cannot hold is refused as a configuration error
before it is allocated; one it can hold but memory cannot is a MemoryError.
"""

from __future__ import annotations

import numpy as np


class SpdeLabError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(SpdeLabError):
    """Invalid configuration or input: a schema violation, an out-of-range or
    non-finite value, or incompatible arguments."""


class NumericalFailure(SpdeLabError):
    """An iterative or linear-algebra kernel failed to produce a usable result."""


class PreconditionFailure(SpdeLabError):
    """A documented mathematical precondition was violated by the inputs."""


def _refuse_oversized(entries: int, what: str) -> None:
    """Refuse a float64 array of more entries than numpy can hold, before it
    is allocated: numpy raises ValueError for it, not MemoryError."""
    limit = np.iinfo(np.intp).max // 8
    if entries > limit:
        raise ConfigurationError(
            f"{what} needs {entries:.4g} float64 values, more than numpy can hold ({limit:.4g})"
        )
