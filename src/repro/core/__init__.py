"""The paper's contribution: interval-compressed transitive closure."""

from repro.core.chain_cover import ChainCoverIndex
from repro.core.condensation import CondensedIndex
from repro.core.engine import EngineCapabilities, TCEngine
from repro.core.frozen import FrozenTCIndex
from repro.core.hybrid import HybridTCIndex
from repro.core.index import DEFAULT_GAP, IndexStats, IntervalTCIndex
from repro.core.select import GraphStats, graph_stats, recommend_engine
from repro.core.serialize import (
    frozen_from_dict,
    frozen_to_dict,
    hybrid_from_dict,
    hybrid_to_dict,
    index_from_dict,
    index_to_dict,
    save_frozen_index,
    save_hybrid_index,
    save_index,
)
from repro.core.intervals import Interval, IntervalSet, intervals_from_points
from repro.core.labeling import (
    Labeling,
    assign_postorder,
    check_laminar,
    label_graph,
    merge_all,
    propagate_intervals,
)
from repro.core.tree_cover import (
    POLICIES,
    VIRTUAL_ROOT,
    TreeCover,
    all_tree_covers,
    build_tree_cover,
)

__all__ = [
    "ChainCoverIndex",
    "CondensedIndex",
    "DEFAULT_GAP",
    "EngineCapabilities",
    "FrozenTCIndex",
    "GraphStats",
    "HybridTCIndex",
    "IndexStats",
    "Interval",
    "IntervalSet",
    "IntervalTCIndex",
    "Labeling",
    "POLICIES",
    "TCEngine",
    "TreeCover",
    "VIRTUAL_ROOT",
    "all_tree_covers",
    "assign_postorder",
    "build_tree_cover",
    "check_laminar",
    "frozen_from_dict",
    "frozen_to_dict",
    "graph_stats",
    "hybrid_from_dict",
    "hybrid_to_dict",
    "index_from_dict",
    "index_to_dict",
    "intervals_from_points",
    "label_graph",
    "merge_all",
    "propagate_intervals",
    "recommend_engine",
    "save_frozen_index",
    "save_hybrid_index",
    "save_index",
]
