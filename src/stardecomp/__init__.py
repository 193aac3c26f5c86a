"""Exact k-star decomposition toolkit: solver, embedder, families, oracles."""

from .embedding import (
    BoundReport,
    EmbeddingCertificate,
    Rejection,
    bound_report,
    degree_pair_check,
    embed,
    embed_large_case,
    guaranteed_s,
    obstacle_required,
)
from .graphs import (
    Graph,
    complete_graph,
    disjoint_cliques,
    graph_from_edges,
    join,
    join_edge_count,
    read_graph,
    write_graph,
)
from .independence import (
    BudgetExceeded,
    independence_number,
    maximum_independent_set,
)
from .solver import (
    DeficiencyWitness,
    Star,
    StarDecomposition,
    decide_star_decomposition,
    decompose_complete,
    deficiency,
    two_star_decompose,
    validate_decomposition,
)

__all__ = [
    "BoundReport",
    "BudgetExceeded",
    "DeficiencyWitness",
    "EmbeddingCertificate",
    "Graph",
    "Rejection",
    "Star",
    "StarDecomposition",
    "bound_report",
    "complete_graph",
    "decide_star_decomposition",
    "decompose_complete",
    "deficiency",
    "degree_pair_check",
    "disjoint_cliques",
    "embed",
    "embed_large_case",
    "graph_from_edges",
    "guaranteed_s",
    "independence_number",
    "join",
    "join_edge_count",
    "maximum_independent_set",
    "obstacle_required",
    "read_graph",
    "two_star_decompose",
    "validate_decomposition",
    "write_graph",
]

__version__ = "0.1.0"
