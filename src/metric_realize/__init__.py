"""metric_realize: decide which weighted-graph classes realize a family of
pairwise distances (2-weights), and reconstruct a realizing graph.

Supported classes: snakes (paths), caterpillars, labeled trees, polygons,
pruned complete graphs, (pruned complete) bipartite graphs, planar graphs.
"""

from .bipartite import (
    Bipartition,
    bigraph_check,
    bipartition,
    cobigraph_check,
    complete_check,
)
from .classify import ClassificationReport, classify
from .comparison import Cmp, DEFAULT_TOL, EXACT
from .family import (
    DistanceFamily,
    FamilyError,
    PairPredicateReport,
    check_four_point,
    check_median,
    check_triangle,
    is_indecomposable,
)
from .generators import GenSpec, GenerationError, generate
from .graph import (
    GraphError,
    WeightedGraph,
    prune,
    support_graph,
    two_weights,
    verify_realization,
)
from .planar import PlanarWitness, planar_check
from .polygons import polygon_check, pruned_polygon_check
from .realization import Realization
from .trees import caterpillar_check, snake_check, tree_check

__all__ = [
    "Bipartition",
    "ClassificationReport",
    "Cmp",
    "DEFAULT_TOL",
    "DistanceFamily",
    "EXACT",
    "FamilyError",
    "GenSpec",
    "GenerationError",
    "GraphError",
    "PairPredicateReport",
    "PlanarWitness",
    "Realization",
    "WeightedGraph",
    "bigraph_check",
    "bipartition",
    "caterpillar_check",
    "check_four_point",
    "check_median",
    "check_triangle",
    "classify",
    "cobigraph_check",
    "complete_check",
    "generate",
    "is_indecomposable",
    "planar_check",
    "polygon_check",
    "prune",
    "pruned_polygon_check",
    "snake_check",
    "support_graph",
    "tree_check",
    "two_weights",
    "verify_realization",
]

__version__ = "0.1.0"
