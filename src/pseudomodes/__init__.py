"""Structured environments as damped discrete modes, with exact cross checks.

The package maps an environment given by a meromorphic spectral density onto
a finite family of locally damped bosonic modes, rotates complex-coupled
two-mode families into completely positive Lindblad form, integrates the
resulting master equations, unravels them into quantum-jump trajectories, and
validates everything against brute-force single-excitation solvers.
"""

from .errors import (
    ClassificationError,
    ConfigError,
    EngineError,
    InvalidModelError,
    PositivityViolationError,
    RegularizationError,
    SingularRotationError,
    StepUnderflowError,
    TruncationGuardError,
    UnsupportedRegularizationError,
)
from .spectral import (
    CorrelationSpec,
    LorentzianSum,
    LorentzianTerm,
    Pole,
    PoleSet,
    PositivityReport,
    check_positivity_grid,
    correlation,
    default_grid,
    eval_density,
    lorentzian_to_poles,
)
from .mapping import (
    ModeSet,
    RotationCheck,
    build_discrete_modes,
    mode_correlation,
    two_mode_regularize,
    verify_rotation_numeric,
)
from .hilbert import (
    Sector,
    SpaceLayout,
    SystemSpec,
    basis_state,
    destroy,
    eigenoperator,
    expectation,
    vacuum_embedding,
)
from .dynamics import (
    EvolutionResult,
    Generator,
    InvariantViolationError,
    build_generator,
    equivalence_check,
    evolve,
    rotate_frame,
)
from .trajectories import (
    EnsembleResult,
    NoJumpPropagator,
    TrajectoryConfig,
    mcwf_run,
)
from .oracle import (
    AmplitudeState,
    DiscretizedBath,
    damped_rabi_amplitude,
    discretized_bath_solve,
    single_excitation_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeState",
    "ClassificationError",
    "ConfigError",
    "CorrelationSpec",
    "DiscretizedBath",
    "EngineError",
    "EnsembleResult",
    "EvolutionResult",
    "Generator",
    "InvalidModelError",
    "InvariantViolationError",
    "LorentzianSum",
    "LorentzianTerm",
    "ModeSet",
    "NoJumpPropagator",
    "Pole",
    "PoleSet",
    "PositivityReport",
    "PositivityViolationError",
    "RegularizationError",
    "RotationCheck",
    "Sector",
    "SingularRotationError",
    "SpaceLayout",
    "StepUnderflowError",
    "SystemSpec",
    "TrajectoryConfig",
    "TruncationGuardError",
    "UnsupportedRegularizationError",
    "basis_state",
    "build_discrete_modes",
    "build_generator",
    "check_positivity_grid",
    "correlation",
    "damped_rabi_amplitude",
    "default_grid",
    "destroy",
    "discretized_bath_solve",
    "eigenoperator",
    "equivalence_check",
    "eval_density",
    "evolve",
    "expectation",
    "lorentzian_to_poles",
    "mcwf_run",
    "mode_correlation",
    "rotate_frame",
    "single_excitation_solve",
    "two_mode_regularize",
    "vacuum_embedding",
    "verify_rotation_numeric",
]
