"""Exception types shared across the package."""


class GridPilotError(Exception):
    """Base class for all gridpilot errors."""


class FeederSchemaError(GridPilotError):
    """Feeder file does not parse against the documented schema."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


class FeederTopologyError(GridPilotError):
    """Feeder graph is not a radial tree rooted at the source bus."""


class DanglingReferenceError(GridPilotError):
    """A line, load, or PV unit references a bus or phase that does not exist."""


class NumericalError(GridPilotError):
    """A matrix operation failed (singular impedance or admittance block, non-finite values)."""


class PowerFlowDivergedError(GridPilotError):
    """Power-flow fixed point did not reach tolerance within the iteration
    limit, or its mismatch turned non-finite."""

    def __init__(self, message, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"{message} (residual={residual:.3e} after {iterations} iterations)")


class DatasetError(GridPilotError):
    """Training-set construction failed (too many infeasible scenarios, empty set)."""


class TrainingError(GridPilotError):
    """Loss became non-finite during training."""

    def __init__(self, message, epoch=None):
        self.epoch = epoch
        if epoch is not None:
            message = f"{message} (epoch {epoch})"
        super().__init__(message)


class ModelMismatchError(GridPilotError):
    """A checkpoint was built for a different feeder than the one in use."""


class CheckpointError(GridPilotError):
    """Checkpoint file is malformed or has an unsupported version."""


class InfeasibleScenarioError(GridPilotError):
    """Power flow diverged at every probed action for a scenario."""
