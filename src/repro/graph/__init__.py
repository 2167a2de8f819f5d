"""The two-layer join graph and its search-support structures (Section 4).

``lattice``
    The attribute-set lattice (AS-lattice) of a single instance (Def. 4.1).
``join_graph``
    The two-layer join graph (Def. 4.2): instance layer (I-vertices/I-edges)
    plus the per-edge join-attribute weights that, by Property 4.1, fully
    determine all AS-edge weights.
``target``
    Source/target vertex sets (Def. 4.3) and the target graph (Def. 4.4) with
    its price, weight, quality and correlation evaluation.
``landmarks``
    Landmark-based approximate shortest paths on the I-layer (Gubichev et al.).
``steiner``
    The minimal-weight I-graph construction (Step 1 of the online search).
"""

from repro.graph.lattice import AttributeSetLattice
from repro.graph.join_graph import JoinGraph, IEdge
from repro.graph.target import TargetGraph, TargetGraphEvaluation, enumerate_covering_sets
from repro.graph.landmarks import (
    LandmarkIndex,
    canonical_landmark_seed,
    derive_landmark_seed,
)
from repro.graph.steiner import minimal_weight_igraph, minimal_weight_igraphs
from repro.graph.export import (
    join_graph_to_dict,
    join_graph_to_dot,
    target_graph_to_dict,
    target_graph_to_dot,
)

__all__ = [
    "join_graph_to_dict",
    "join_graph_to_dot",
    "target_graph_to_dict",
    "target_graph_to_dot",
    "AttributeSetLattice",
    "JoinGraph",
    "IEdge",
    "TargetGraph",
    "TargetGraphEvaluation",
    "enumerate_covering_sets",
    "LandmarkIndex",
    "canonical_landmark_seed",
    "derive_landmark_seed",
    "minimal_weight_igraph",
    "minimal_weight_igraphs",
]
