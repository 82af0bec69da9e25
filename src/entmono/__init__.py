"""Entanglement monogamy bounds for multiqubit states.

Closed-form concurrence and entanglement-of-formation measures, a family
of parametrized monogamy inequalities (lower bounds for powers >= 2 of
the concurrence and >= sqrt(2) of the EoF, upper bounds for negative
powers), and a deterministic Monte Carlo harness that checks them on
Haar-random pure states.
"""

from .linalg import (
    MAX_QUBITS,
    as_density_matrix,
    as_state_vector,
    num_qubits_of,
    partial_trace,
    reduced_state,
)
from .measures import (
    concurrence_pure,
    convex_roof_upper_bound,
    eof_from_squared_concurrence,
    eof_pure,
    eof_two_qubit_mixed,
    wootters_concurrence,
)
from .monogamy import (
    ALPHA_MIN_CONCURRENCE,
    ALPHA_MIN_EOF,
    AlphaSweep,
    BoundId,
    BoundKind,
    BoundReport,
    PartitionSpec,
    alpha_grid,
    evaluate,
    profile,
    residual_sweep,
)
from .states import (
    SeededSampler,
    basis_state,
    generalized_schmidt,
    ghz_state,
    haar_random_pure,
    random_mixed,
    w_state,
)
from .engine import CampaignConfig, CampaignResult, campaign_state, run_campaign
from .statefile import load_state_file, save_state_file

__version__ = "0.1.0"

__all__ = [
    "ALPHA_MIN_CONCURRENCE",
    "ALPHA_MIN_EOF",
    "AlphaSweep",
    "BoundId",
    "BoundKind",
    "BoundReport",
    "CampaignConfig",
    "CampaignResult",
    "MAX_QUBITS",
    "PartitionSpec",
    "SeededSampler",
    "alpha_grid",
    "as_density_matrix",
    "as_state_vector",
    "basis_state",
    "campaign_state",
    "concurrence_pure",
    "convex_roof_upper_bound",
    "eof_from_squared_concurrence",
    "eof_pure",
    "eof_two_qubit_mixed",
    "evaluate",
    "generalized_schmidt",
    "ghz_state",
    "haar_random_pure",
    "load_state_file",
    "num_qubits_of",
    "partial_trace",
    "profile",
    "random_mixed",
    "reduced_state",
    "residual_sweep",
    "run_campaign",
    "save_state_file",
    "w_state",
    "wootters_concurrence",
]
