"""Exact-arithmetic toolkit for the connected blocks polytope of a graph.

The polytope is the convex hull, in block space, of the indicator
vectors of all blocksets that induce connected subgraphs, the empty set
included.  The package enumerates its vertices and facets exactly,
analyses the polytope graph, computes Ehrhart data, verifies the toric
Groebner basis and the induced unimodular triangulation, and optimizes
linear functionals by dynamic programming on the block-cut tree.
"""

from .corpus import (
    CorpusEntry,
    corpus,
    flower,
    flower_pendant,
    path_graph,
    random_block_tree,
    showcase_graph,
    spider,
    star_graph,
    triangle_chain,
)
from .ehrhart import (
    HStarFlags,
    HStarProfile,
    HStarReport,
    count_lattice_points,
    ehrhart_polynomial,
    evaluate_polynomial,
    hstar_checks,
    hstar_profile,
    hstar_vector,
    narayana_vector,
)
from .errors import (
    AssertionFailure,
    BudgetExceeded,
    CBPError,
    CountOverflow,
    DimensionCap,
    DimensionMismatch,
    EmptyGraph,
    InvalidGraph,
    LeadingTermMismatch,
    NonIntegerHStar,
    NonUnimodalSimplex,
    NotAVertex,
    NotConnected,
    NotConnectedSubset,
    NotCutVertex,
    NotEulerianCactus,
    NotFullDimensional,
    NotTree,
    ParseError,
    ReductionDiverges,
    RowInvalid,
)
from .facets import (
    IndependentBlocksInequality,
    construct_ibis,
    enumerate_ibis,
    facet_certificate,
    h_representation,
    ibi_violations,
    is_independent,
    validate_ibi,
)
from .graphs import (
    Block,
    BlockDecomposition,
    Graph,
    GraphClass,
    block_decomposition,
    blockset_closure,
    classify,
    graph_from_json,
    graph_to_json,
    is_connected,
    parse_edge_list,
    split_components_at,
    steiner_nodes,
)
from .hull import (
    Certificate,
    RationalPolyhedron,
    affine_rank,
    brute_force_facets,
    contains_point,
    normalize_row,
    same_hyperplane,
)
from .optimize import (
    EdgeSolution,
    Solution,
    brute_force_optimum,
    eulerian_adapter,
    max_weight_connected_blockset,
    tree_adapter,
)
from .skeleton import (
    HirschReport,
    PolytopeGraph,
    SimplicityReport,
    adjacent_combinatorial,
    adjacent_geometric,
    build_polytope_graph,
    diameter,
    hirsch_check,
    simplicity_report,
)
from .toric import (
    Binomial,
    SimplicialComplex,
    TermOrder,
    TriangulationReport,
    buchberger_verify,
    fiber_reduction_test,
    groebner_candidates,
    make_term_order,
    triangulation,
    triangulation_checks,
)
from .verify import (
    GraphReport,
    VerificationReport,
    VerifyOptions,
    run_verification,
    verify_graph,
)
from .vertices import enumerate_vertices, is_connected_blockset, to_incidence

__version__ = "0.1.0"
