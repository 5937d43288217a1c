"""Robust H-infinity estimator synthesis and analysis for uncertain linear
quantum systems.

The package builds doubled-up state-space models of optical squeezer plants
and coherent controllers, factors structured norm-bounded uncertainty,
assembles and solves the scaled H-infinity estimation problem via two
algebraic Riccati equations, and analyses the resulting filters across the
uncertainty window.
"""

__version__ = "0.1.0"

from .analysis import (
    StateSpace,
    SweepResult,
    closed_loop_error_system,
    delta_sweep,
    frequency_response,
    grid_peak_gain,
    hinf_norm,
)
from .augmentation import (
    AugmentedSystem,
    augment,
    lift_uncertainty,
)
from .errors import QreError
from .linalg import (
    CareInstance,
    CareSolution,
    solve_care,
)
from .presets import (
    Study,
    build_study,
    feedback_benchmark_config,
    series_benchmark_config,
)
from .quantum import (
    CoherentController,
    QuantumPlant,
    feedback_squeezer_controller,
    feedback_squeezer_plant,
    homodyne_matrix,
    omega,
    squeezer_controller,
    squeezer_plant,
)
from .synthesis import (
    Estimator,
    ScaledProblem,
    assemble,
    eps_grid_search,
    synthesize,
)
from .uncertainty import (
    DeltaTriple,
    UncertaintyModel,
    evaluate_deltas,
    squeezer_uncertainty,
)

__all__ = [
    "__version__",
    "QreError",
    "CareInstance",
    "CareSolution",
    "solve_care",
    "omega",
    "homodyne_matrix",
    "QuantumPlant",
    "CoherentController",
    "squeezer_plant",
    "squeezer_controller",
    "feedback_squeezer_plant",
    "feedback_squeezer_controller",
    "UncertaintyModel",
    "DeltaTriple",
    "squeezer_uncertainty",
    "evaluate_deltas",
    "AugmentedSystem",
    "augment",
    "lift_uncertainty",
    "ScaledProblem",
    "Estimator",
    "assemble",
    "synthesize",
    "eps_grid_search",
    "StateSpace",
    "SweepResult",
    "closed_loop_error_system",
    "frequency_response",
    "hinf_norm",
    "grid_peak_gain",
    "delta_sweep",
    "Study",
    "build_study",
    "series_benchmark_config",
    "feedback_benchmark_config",
]
