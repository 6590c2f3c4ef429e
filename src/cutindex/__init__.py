"""Wiener and Szeged indices of partial cubes via the cut method.

The package recognizes partial cubes through the Djokovic-Winkler relation,
decomposes the indices over edge-class cuts and coarser-partition quotient
graphs, generates C4C8 and benzenoid systems, and computes both indices of
weighted trees, hence of both systems, in O(n log n) (the paper's bound is
linear); brute-force evaluators from the definitions serve as oracles.
"""

from .chem import (
    DIRECTIONS,
    BenzenoidSpec,
    C4C8Spec,
    build_benzenoid,
    build_c4c8,
    c4c8_indices,
    c4c8_report,
    c4c8_theta_partition,
    direction_partition,
    direction_tag,
)
from .core import (
    UNREACHABLE,
    Graph,
    GraphError,
    IndexOverflowError,
    bfs_distances,
    build_graph,
    components_after_removal,
    distance_matrix,
    is_bipartite,
)
from .indices import (
    VertexEdgeWeightedGraph,
    VertexWeightedGraph,
    cut_class_summaries,
    indices_from_rows,
    partition_rows,
    szeged_brute,
    szeged_cut,
    szeged_via_partition,
    szeged_weighted,
    wiener_brute,
    wiener_cut,
    wiener_via_partition,
    wiener_weighted,
)
from .quotient import (
    CoarserPartition,
    CutRow,
    WeightedQuotient,
    coarsest_partition,
    finest_partition,
    quotient_by_edge_classes,
    quotient_theta_classes,
    validate_coarser,
)
from .theta import (
    PartialCube,
    RecognitionWitness,
    ThetaPartition,
    class_sides,
    recognize_partial_cube,
    theta_related,
    theta_star_classes,
)
from .treedp import szeged_tree_linear, tree_cut_rows, tree_indices, wiener_tree_linear

__all__ = [
    "DIRECTIONS",
    "BenzenoidSpec",
    "C4C8Spec",
    "CoarserPartition",
    "CutRow",
    "Graph",
    "GraphError",
    "IndexOverflowError",
    "PartialCube",
    "RecognitionWitness",
    "ThetaPartition",
    "UNREACHABLE",
    "VertexEdgeWeightedGraph",
    "VertexWeightedGraph",
    "WeightedQuotient",
    "bfs_distances",
    "build_benzenoid",
    "build_c4c8",
    "build_graph",
    "c4c8_indices",
    "c4c8_report",
    "c4c8_theta_partition",
    "class_sides",
    "coarsest_partition",
    "components_after_removal",
    "cut_class_summaries",
    "direction_partition",
    "direction_tag",
    "distance_matrix",
    "finest_partition",
    "indices_from_rows",
    "is_bipartite",
    "partition_rows",
    "quotient_by_edge_classes",
    "quotient_theta_classes",
    "recognize_partial_cube",
    "szeged_brute",
    "szeged_cut",
    "szeged_tree_linear",
    "szeged_via_partition",
    "szeged_weighted",
    "theta_related",
    "theta_star_classes",
    "tree_cut_rows",
    "tree_indices",
    "validate_coarser",
    "wiener_brute",
    "wiener_cut",
    "wiener_tree_linear",
    "wiener_via_partition",
    "wiener_weighted",
]

__version__ = "0.1.0"
