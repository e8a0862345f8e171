"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid model configuration or config file; the message names the offending key."""


class ParameterError(ConfigError):
    """Invalid run parameter (horizon, step, sampling, initial state); the message names it."""


class AssumptionError(RuntimeError):
    """A standing assumption on the model parameters does not hold."""


class BracketError(RuntimeError):
    """Root bracketing failed: no sign change found on the scan grid."""


class IntegrationError(RuntimeError):
    """Fluid integration produced an invalid state."""


class SingularityError(IntegrationError):
    """Integration drove the workload below its safety floor."""


class StepInstabilityError(IntegrationError):
    """A checked run disagreed with the run at twice its step count beyond tolerance."""
