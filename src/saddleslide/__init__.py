"""Mirror-prox sliding for non-smooth convex-concave saddle problems.

The library solves variational inequalities z* with <H(z*) + grad G(z*),
z - z*> >= 0 built from saddle problems, under an inexact (M, delta) first
order oracle for H, and provides a simulated decentralized harness that turns
consensus-constrained multi-agent saddle problems into penalized single
problems of that form.
"""

from .errors import (
    CertificationError,
    ConfigurationError,
    DegenerateNetworkError,
    DimensionError,
    DomainError,
    ParameterError,
)
from .geometry import (
    ENTROPY_CLIP,
    NEGATIVE_ENTROPY,
    SQUARED_EUCLIDEAN,
    TAU_FEAS,
    Box,
    GeometrySpec,
    ProductSet,
    Simplex,
    omega_sq_bound,
)
from .harness import (
    RunConfig,
    RunReport,
    RunTrace,
    build_pipeline,
    emit_outputs,
    make_stochastic_oracle,
    pick_N,
    run_experiment,
)
from .instances import (
    MATCHING_PENNIES,
    CertificateReport,
    certify_inexact_oracle,
    exact_gap_matrix_game,
    l1_saddle_gap,
    make_l1_saddle,
    make_matrix_game,
    operator_bound_L0,
    random_l1_saddle,
    random_matrix_game,
)
from .network import (
    TOPOLOGY_KINDS,
    NetworkModel,
    build_topology,
    consensus_violation,
)
from .penalty import (
    PenaltyCoefficients,
    StackedSPP,
    build_penalized_vi,
    penalty_coefficients,
)
from .sliding import (
    SlidingSchedule,
    VIProblem,
    deterministic_schedule,
    mps_run,
    stochastic_schedule,
)

__all__ = [
    "Box",
    "CertificateReport",
    "CertificationError",
    "ConfigurationError",
    "DegenerateNetworkError",
    "DimensionError",
    "DomainError",
    "ENTROPY_CLIP",
    "GeometrySpec",
    "MATCHING_PENNIES",
    "NEGATIVE_ENTROPY",
    "NetworkModel",
    "ParameterError",
    "PenaltyCoefficients",
    "ProductSet",
    "RunConfig",
    "RunReport",
    "RunTrace",
    "SQUARED_EUCLIDEAN",
    "Simplex",
    "SlidingSchedule",
    "StackedSPP",
    "TAU_FEAS",
    "TOPOLOGY_KINDS",
    "VIProblem",
    "build_pipeline",
    "build_penalized_vi",
    "build_topology",
    "certify_inexact_oracle",
    "consensus_violation",
    "deterministic_schedule",
    "emit_outputs",
    "exact_gap_matrix_game",
    "l1_saddle_gap",
    "make_l1_saddle",
    "make_matrix_game",
    "make_stochastic_oracle",
    "mps_run",
    "omega_sq_bound",
    "operator_bound_L0",
    "penalty_coefficients",
    "pick_N",
    "random_l1_saddle",
    "random_matrix_game",
    "run_experiment",
    "stochastic_schedule",
]

__version__ = "0.1.0"
