"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: configuration errors exit 2,
numerical failures exit 3, precondition failures exit 4. A blowup is an
outcome, not an error: trajectories and hitting times report it in their
results.
"""

from __future__ import annotations


class SpdeLabError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(SpdeLabError):
    """Invalid configuration or input: a schema violation, an out-of-range or
    non-finite value, or incompatible arguments."""


class NumericalFailure(SpdeLabError):
    """An iterative or linear-algebra kernel failed to produce a usable result."""


class PreconditionFailure(SpdeLabError):
    """A documented mathematical precondition was violated by the inputs."""

