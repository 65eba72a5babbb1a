"""Neural stochastic differential equations over embedding trajectories.

Sequences of embedding vectors are modeled as discrete observations of an
Ito process ``dX = mu(X, t) dt + sigma(X, t) dW`` with small feedforward
networks for the drift ``mu`` and the (diagonal, positive) diffusion
``sigma``.  The package trains both networks from transition data, simulates
new trajectories by Euler-Maruyama integration, and verifies models against
the analytic machinery that justifies the construction: regularity constants,
Lyapunov generators, and moment ODEs.

Everything is deterministic given explicit integer seeds; there is no hidden
global random state anywhere.
"""

from .diagnostics import (
    LyapunovReport,
    MomentReport,
    RegularityEstimate,
    VectorFieldGrid,
    compare_trajectories,
    drift_vector_field,
    estimate_regularity,
    lyapunov_check,
    moment_monte_carlo,
    moment_ode_solve,
    uncertainty_heatmap,
    word_importance,
)
from .cli_io import (
    ModelBundle,
    load_model,
    load_trajectories,
    save_model,
    save_trajectories,
    toy_embed,
)
from .errors import (
    DataFormatError,
    DimensionMismatchError,
    EmbsdeError,
    EstimationError,
    ModelFormatError,
    NumericalError,
    SimulationBlowupError,
    TrainingDivergenceError,
    ValidationError,
)
from .estimation import (
    LossRecord,
    TrainingConfig,
    Transitions,
    extract_transitions,
    fit,
    transition_losses,
)
from .mlp import MlpNetwork, glorot_init, sgd_step
from .numeric_core import PcaResult, RngStream, indexed_normals, pca_fit
from .sde_model import (
    BLOWUP_LIMIT,
    EmbeddingTrajectory,
    LinearSdeSpec,
    SdeModel,
    TimeEncoding,
    generate_answer,
    linear_sde_model,
    sample_linear_trajectories,
    simulate,
    simulate_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "BLOWUP_LIMIT",
    "DataFormatError",
    "DimensionMismatchError",
    "EmbeddingTrajectory",
    "EmbsdeError",
    "EstimationError",
    "LinearSdeSpec",
    "LossRecord",
    "LyapunovReport",
    "MlpNetwork",
    "ModelBundle",
    "ModelFormatError",
    "MomentReport",
    "NumericalError",
    "PcaResult",
    "RegularityEstimate",
    "RngStream",
    "SdeModel",
    "SimulationBlowupError",
    "TimeEncoding",
    "TrainingConfig",
    "TrainingDivergenceError",
    "Transitions",
    "ValidationError",
    "VectorFieldGrid",
    "compare_trajectories",
    "drift_vector_field",
    "estimate_regularity",
    "extract_transitions",
    "fit",
    "generate_answer",
    "glorot_init",
    "indexed_normals",
    "linear_sde_model",
    "load_model",
    "load_trajectories",
    "lyapunov_check",
    "moment_monte_carlo",
    "moment_ode_solve",
    "pca_fit",
    "sample_linear_trajectories",
    "save_model",
    "save_trajectories",
    "sgd_step",
    "simulate",
    "simulate_ensemble",
    "toy_embed",
    "transition_losses",
    "uncertainty_heatmap",
    "word_importance",
    "__version__",
]
