"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all domain errors raised by this package."""


class NodeError(SimulationError):
    """Density at or below the configured node floor where positivity is required."""


class StabilityError(SimulationError):
    """A time step violated its stability bound or produced non-finite fields."""


class SolverError(SimulationError):
    """A linear solve failed or returned non-finite values."""


class BasisError(SimulationError):
    """Device basis failed orthonormality or completeness validation."""


class CellError(SimulationError):
    """Invalid target cell: duplicate, off the grid, or not a target of the device."""


class MonotonicityError(SimulationError):
    """Observable map g(x) is not strictly monotone on the grid."""


class RangeError(SimulationError):
    """Numeric argument outside its admissible range."""


class ZeroEvidenceError(SimulationError):
    """Observed pointer value has zero probability under the likelihood model."""


class TraceCoverageError(SimulationError):
    """Requested advance interval is not covered by the evolution trace."""


class ConfigError(SimulationError):
    """Run configuration failed schema validation."""
