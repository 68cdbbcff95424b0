"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by the library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting genuine programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment or world was configured with invalid parameters."""


class TopologyError(ReproError):
    """A network topology query or construction failed."""


class GenerationError(ReproError):
    """A network generator could not satisfy its constraints."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class InvariantError(SimulationError):
    """A runtime cross-layer invariant was violated during a step."""


class RoutingError(ReproError):
    """A routing-table operation failed."""


class ExperimentError(ReproError):
    """An experiment definition or run failed."""
