"""Simulator and numerical-analysis toolkit for a multi-venue order-routing
queueing model: exact event-driven simulation of the rescaled discrete system,
integration of its nonlinear fluid limit, stationary-equilibrium solving, and
local/global stability certification.
"""

from .errors import (
    AssumptionError,
    BracketError,
    ConfigError,
    IntegrationError,
    ParameterError,
    SingularityError,
    StepInstabilityError,
)
from .fluid import (
    FluidTrajectory,
    IntegratorConfig,
    fluid_rhs,
    integrate,
)
from .model import (
    DeterministicSize,
    ExponentialType,
    GeometricSize,
    HalfNormalType,
    ModelConfig,
    RoutingBands,
    SizeDistribution,
    TabulatedSize,
    TabulatedType,
    TypeDistribution,
    compute_bands,
    compute_kappa,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from .routing import QueueState, chi, chi_derivative, route, solve_workload_star
from .sim import (
    ConvergenceTable,
    SimConfig,
    SimCounters,
    SimPath,
    replicate,
    simulate,
    sup_distance,
)
from .stability import (
    AssumptionReport,
    Equilibrium,
    GlobalStabilityReport,
    LocalStabilityReport,
    SpectrumReport,
    check_assumptions,
    det_shifted,
    global_stability_experiment,
    jacobian,
    local_stability_experiment,
    solve_equilibrium,
    spectrum,
)

__version__ = "0.1.0"
