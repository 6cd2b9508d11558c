"""Hypergraph Turan toolkit: constructions, Lagrangian optimization on the
simplex, symmetrization with cleaning, and exact small-scale extremal search."""

__version__ = "0.1.0"

from .hypergraph import (
    Edge,
    Embedding,
    Hypergraph,
    VertexSet,
    blowup,
    contains_subhypergraph,
    falling_factorial,
    find_embedding,
    kernel_degree,
    max_matching,
)
from .constructions import (
    ExpandedClique,
    PartitionedHypergraph,
    broom_graph,
    complete_hypergraph,
    contains_family_member,
    contains_sigma_member,
    enlargement,
    expanded_clique_with_embedded,
    generalized_triangle,
    is_cancellative,
    path_graph,
    random_hypergraph,
    random_tree,
    single_edge,
    star_graph,
    turan_hypergraph,
)
from .lagrangian import (
    DensitySearchResult,
    LagrangianEstimate,
    WeightVector,
    certificate_label,
    clique_number,
    compute_Mr,
    f_r_eval,
    grad,
    lagrangian,
    lagrangian_constrained,
    lagrangian_density_search,
    motzkin_straus_reference,
    poly_value,
    stability_probe,
)
from .symmetrization import (
    CoreRepresentatives,
    SymmetrizationOutcome,
    SymmetrizationStep,
    SymmetrizationTrace,
    core_representatives,
    equivalence_classes,
    intermediate_graphs,
    is_alpha_dense,
    is_blowup_of_quotient,
    replay_trace,
    run_plain,
    run_with_cleaning,
    symmetrize,
)
from .extremal import (
    CancellativePredicate,
    ExactSearchRefused,
    FamilyFreeExtraction,
    FamilyPredicate,
    ForbiddenPredicate,
    SearchResult,
    SigmaPredicate,
    SubgraphPredicate,
    brute_force_ex,
    family_free_subgraph,
    kernel_clean,
    local_search_lower,
)
from .hgio import ParseError, dump, load, parse_hypergraph, serialize_hypergraph
