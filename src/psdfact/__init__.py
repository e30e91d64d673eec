"""Slack matrices, semidefinite factorizations, rescaling, and rounding."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DimensionError,
    NotPsdError,
    NumericError,
    PreconditionError,
    PsdfactError,
    ResourceError,
)
from .polytopes import (
    HPolytope,
    SlackMatrix,
    VPolytope,
    build_slack,
    builtin_instance,
    enumerate_01_vertices,
)
from .factorization import (
    FactorizationReport,
    FitResult,
    PsdFactorization,
    diagonal_embed,
    fit_factorization,
    max_operator_norm,
    potential,
    verify_factorization,
)
from .rescaling import (
    JohnDecomposition,
    RescaleConfig,
    RescaleResult,
    balance_scalar,
    descent_step,
    john_decompose,
    perturbation_direction,
    reduce_to_common_space,
    rescale,
)
from .rounding import (
    GridParams,
    MembershipConfig,
    MembershipVerdict,
    ReconstructionReport,
    RoundedSystem,
    build_rounded_system,
    grid_delta,
    membership_test,
    reconstruct,
    round_factor,
    select_subsystem,
)
from .derivatives import dplus_opnorm_additive, dplus_opnorm_congruence
from .pipeline import PipelineConfig, run_pipeline

__all__ = [name for name in dir() if not name.startswith("_")]
