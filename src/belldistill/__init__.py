"""Bell-state ensembles, LOCC discrimination/distillation, and
relative-entropy bounds for the uniform four-Bell mixture."""

from .states import (
    ALICE,
    BOB,
    DensityOperator,
    Ket,
    apply_local,
    dm_from_ensemble,
    dm_to_json,
    partial_trace,
    partial_transpose,
    reorder,
)
from .entropies import (
    fidelity_pure,
    herm_eig,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .bell import (
    BellDiagonalState,
    bell_diagonal_kl,
    bell_product_ket,
    invert_permutation,
    parse_permutation,
    rho2_power,
    rho_n,
    sigma_n,
    smolin_flip_check,
    to_dense,
)
from .permutations import (
    ALL_PERMUTATIONS,
    LocalUnitaryPair,
    PermutationAction,
    local_permutation_search,
    permutation_action,
    permutation_table,
)
from .measures import (
    DivergenceReport,
    ErReport,
    PptReport,
    er_bound_even,
    er_bound_odd_doubled,
    er_bound_pair,
    er_search,
    log_negativity,
    ppt_check,
    sample_pairwise_separable,
    sample_separable,
)
from .locc import (
    BranchAnalysis,
    DiscriminationResult,
    DistillationReport,
    ShotState,
    discriminate_two_copies,
    distill,
    distill_exact_branches,
    distill_trivial,
    measure_local,
)

__all__ = [
    "ALICE", "BOB",
    "DensityOperator", "Ket", "apply_local", "dm_from_ensemble", "dm_to_json",
    "partial_trace", "partial_transpose", "reorder",
    "fidelity_pure", "herm_eig", "relative_entropy", "trace_distance",
    "von_neumann_entropy",
    "BellDiagonalState", "bell_diagonal_kl", "bell_product_ket",
    "invert_permutation", "parse_permutation", "rho2_power", "rho_n", "sigma_n",
    "smolin_flip_check", "to_dense",
    "ALL_PERMUTATIONS", "LocalUnitaryPair", "PermutationAction",
    "local_permutation_search", "permutation_action", "permutation_table",
    "DivergenceReport", "ErReport", "PptReport", "er_bound_even",
    "er_bound_odd_doubled", "er_bound_pair", "er_search", "log_negativity",
    "ppt_check", "sample_pairwise_separable", "sample_separable",
    "BranchAnalysis", "DiscriminationResult", "DistillationReport", "ShotState",
    "discriminate_two_copies", "distill", "distill_exact_branches",
    "distill_trivial", "measure_local",
]
__version__ = "0.1.0"
