"""Weighted distance moments of connected graphs, graft products, and
exact closed-form index formulas, all in rational arithmetic.

The moment of a nonnegative vertex weight w is sum over ordered vertex
pairs of w(v) * dist(v, u).  Specific weights recover classical
topological indices (Wiener index, degree distance, MTI); graft products
-- branch graphs glued by their roots onto host receptor vertices --
admit closed forms for these moments, every one of which this package
evaluates and certifies against a brute-force BFS oracle.
"""

from .errors import (
    ArityMismatch,
    DisconnectedGraph,
    DuplicateReceptor,
    EmptyGraph,
    GraftMomentsError,
    GraphFormatError,
    InvalidExtendedCycle,
    NegativeWeight,
    NotATree,
    OrderMismatch,
    TooLarge,
    UnknownVertex,
)
from .graph import (
    DistanceMatrix,
    Graph,
    are_isomorphic,
    bfs_distances,
    complete_graph,
    cycle_graph,
    diamond_graph,
    distance_matrix,
    distance_row_sums,
    graph_from_json_dict,
    graph_to_json_dict,
    is_connected,
    isomorphism_classes,
    path_graph,
    star_graph,
)
from .weights import (
    DEGREE,
    HALF,
    UNIT,
    AffineWeight,
    ConstantWeight,
    DegreeWeight,
    ExplicitWeight,
    Rational,
    WeightFunction,
    describe_weight,
    format_rational,
    parse_rational,
    parse_weight_spec,
)
from .moments import MomentReport, indices, moment, moment_at, zagreb_m1
from .products import (
    Attachment,
    GraftProduct,
    GraftSpec,
    binomial_tree,
    coalescence,
    flower,
    graft,
    graft_product_to_json_dict,
    graft_spec_from_json_dict,
    hierarchical_product,
    permutation_graph,
    rooted_product,
    star_receptor_graft,
)
from .closed_forms import (
    Family,
    attachments_by_receptor,
    concentration_difference_formula,
    cycle_distance_row_sum,
    extended_cycle_degree_distance,
    extended_cycle_edge_count,
    family_graft_moment_formula,
    flower_moment_formula,
    graft_moment_formula,
    permutation_degree_distance,
    permutation_mean_distance,
    permutation_moment_formula,
    permutation_unit_moment,
    proper_cycle_degree_distance,
    unicyclic_degree_distance,
)
from .verify import FORMULAS, Mismatch, VerificationReport, run_verification

__version__ = "0.1.0"
