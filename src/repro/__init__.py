"""repro — interval-labeled transitive closure compression.

A full reproduction of *Efficient Management of Transitive Relationships
in Large Data and Knowledge Bases* (Agrawal, Borgida & Jagadish, SIGMOD
1989): the optimal tree-cover interval index, the Section 4 incremental
update algorithms, every baseline the paper compares against, a simulated
secondary-storage layer, a knowledge-base taxonomy built on the index, and
benchmark harnesses regenerating each figure of the evaluation.

Quick start::

    from repro import DiGraph, IntervalTCIndex

    graph = DiGraph([("animal", "mammal"), ("mammal", "dog"), ("animal", "fish")])
    index = IntervalTCIndex.build(graph)
    assert index.reachable("animal", "dog")
    assert not index.reachable("fish", "dog")

Or through the front door, which dispatches on what it is given (graph,
saved index, durable store directory) and can wire observability::

    from repro import open_index
    engine = open_index("closure.json")        # any TCEngine
"""

from repro.core import (
    ChainCoverIndex,
    CondensedIndex,
    FrozenTCIndex,
    GraphStats,
    HybridTCIndex,
    Interval,
    IntervalSet,
    IntervalTCIndex,
    TreeCover,
    VIRTUAL_ROOT,
    build_tree_cover,
    graph_stats,
    recommend_engine,
)
from repro.core.engine import EngineCapabilities, TCEngine
from repro.errors import (
    ArcNotFoundError,
    CycleError,
    GraphError,
    IndexStateError,
    NodeNotFoundError,
    NumberingExhaustedError,
    ReproError,
    StorageError,
    TaxonomyError,
)
from repro.factory import open_index
from repro.graph import DiGraph

__version__ = "1.0.0"

__all__ = [
    "ArcNotFoundError",
    "ChainCoverIndex",
    "CondensedIndex",
    "CycleError",
    "DiGraph",
    "EngineCapabilities",
    "FrozenTCIndex",
    "GraphError",
    "GraphStats",
    "HybridTCIndex",
    "IndexStateError",
    "Interval",
    "IntervalSet",
    "IntervalTCIndex",
    "NodeNotFoundError",
    "NumberingExhaustedError",
    "ReproError",
    "StorageError",
    "TCEngine",
    "TaxonomyError",
    "TreeCover",
    "VIRTUAL_ROOT",
    "build_tree_cover",
    "graph_stats",
    "open_index",
    "recommend_engine",
    "__version__",
]
