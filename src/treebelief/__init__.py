"""Belief updating in tree-structured probabilistic networks.

Exact two-pass propagation, a path-bounded incremental engine, and a
contraction-hierarchy engine with logarithmic-time evidence updates and
belief queries, plus join-tree, polytree, and protein chain frontends.
"""

from .contract import ContractionHierarchy, build_hierarchy
from .dynamic import DynamicEngine
from .errors import (
    DimensionError,
    FormatError,
    InconsistentEvidenceError,
    ScaleError,
    StructureError,
    TreeBeliefError,
    UsageError,
)
from .exact import PropagationState, joint_marginals, propagate_all
from .formats import parse_btn, parse_ptn, serialize_btn
from .jointree import CliqueNode, build_projection, clique_evidence, marginalize
from .linalg import FactoredMatrix, OpCounter
from .polytree import Polytree, PolytreeEngine
from .protein import ChainTables, ProteinChain, mutagenesis, parse_corpus, train
from .tree import CausalTree, RawTree, binarize

__version__ = "0.1.0"

__all__ = [
    "CausalTree",
    "ChainTables",
    "CliqueNode",
    "ContractionHierarchy",
    "DimensionError",
    "DynamicEngine",
    "FactoredMatrix",
    "FormatError",
    "InconsistentEvidenceError",
    "OpCounter",
    "Polytree",
    "PolytreeEngine",
    "PropagationState",
    "ProteinChain",
    "RawTree",
    "ScaleError",
    "StructureError",
    "TreeBeliefError",
    "UsageError",
    "binarize",
    "build_hierarchy",
    "build_projection",
    "clique_evidence",
    "joint_marginals",
    "marginalize",
    "mutagenesis",
    "parse_btn",
    "parse_corpus",
    "parse_ptn",
    "propagate_all",
    "serialize_btn",
    "train",
]
