"""Exact conditional edge-connectivities of Hamming graphs and BC networks.

The closed forms live in :mod:`isocut.closedform`, witnessing vertex sets in
:mod:`isocut.construct`, graph materialization in :mod:`isocut.graphs`, the
brute-force oracle in :mod:`isocut.oracle`, and the named verification suites
in :mod:`isocut.checks`.
"""

from .closedform import (
    BaseDecomposition,
    ConditionKind,
    conditional_connectivity,
    decompose,
    degree_sum_split,
    max_degree_sum,
    min_boundary_binary,
    min_boundary_ternary,
    min_edge_boundary,
    sublayer_block_boundary,
)
from .construct import (
    CutReport,
    SubLayer,
    SubLayerFamily,
    SweepRow,
    evaluate_cut,
    family_census,
    optimal_set,
    prefix_cut_sweep,
    sublayer_families,
)
from .errors import (
    BudgetError,
    CapError,
    DomainError,
    InfeasibleError,
    IsocutError,
    SubsetBudgetError,
    UnsupportedError,
    VerificationError,
)
from .graphs import (
    Graph,
    HammingParams,
    bc_network,
    encode,
    format_digits,
    hamming_graph,
    write_edge_list,
)
from .oracle import (
    FragmentResult,
    OracleBudget,
    bipartite_property_check,
    brute_boundary_profile,
    brute_conditional,
    brute_extra_connectivity,
    brute_min_boundary,
    brute_min_boundary_bilateral,
    brute_min_boundary_connected,
)

__version__ = "1.0.0"

__all__ = [
    "BaseDecomposition",
    "BudgetError",
    "CapError",
    "ConditionKind",
    "CutReport",
    "DomainError",
    "FragmentResult",
    "Graph",
    "HammingParams",
    "InfeasibleError",
    "IsocutError",
    "OracleBudget",
    "SubLayer",
    "SubLayerFamily",
    "SubsetBudgetError",
    "SweepRow",
    "UnsupportedError",
    "VerificationError",
    "bc_network",
    "bipartite_property_check",
    "brute_boundary_profile",
    "brute_conditional",
    "brute_extra_connectivity",
    "brute_min_boundary",
    "brute_min_boundary_bilateral",
    "brute_min_boundary_connected",
    "conditional_connectivity",
    "decompose",
    "degree_sum_split",
    "encode",
    "evaluate_cut",
    "family_census",
    "format_digits",
    "hamming_graph",
    "max_degree_sum",
    "min_boundary_binary",
    "min_boundary_ternary",
    "min_edge_boundary",
    "optimal_set",
    "prefix_cut_sweep",
    "sublayer_block_boundary",
    "sublayer_families",
    "write_edge_list",
]
