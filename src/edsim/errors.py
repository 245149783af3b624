"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all domain errors raised by this package.

    stage (the engine), step (counted from 1) and t (the time that step
    was taking the run to), when known, say where a run failed; the CLI's
    JSON error line carries them as keys beside error and message."""

    def __init__(self, *args, stage=None, step=None, t=None):
        super().__init__(*args)
        self.stage, self.step, self.t = stage, step, t

    def context(self):
        """{name: value} of the known ones of stage, step and t."""
        where = {"stage": self.stage, "step": self.step, "t": self.t}
        return {k: v for k, v in where.items() if v is not None}


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
