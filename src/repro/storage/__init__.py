"""Database-flavoured substrate: storage accounting, paging, materialised views,
and the alpha-extended relational algebra of Section 6."""

from repro.storage.algebra import (
    AlgebraEngine,
    Alpha,
    AlphaPlus,
    Compose,
    Difference,
    Expression,
    Intersect,
    Inverse,
    Rel,
    Select,
    Steps,
    Union,
)
from repro.storage.database import ClosureDatabase
from repro.storage.model import (
    StorageComparison,
    compare_storage,
    compressed_closure_units,
    full_closure_units,
    inverse_closure_units,
    relation_units,
)
from repro.storage.pager import (
    DEFAULT_PAGE_CAPACITY,
    BufferPool,
    IOCounters,
    PagedIntervalStore,
    PagedSuccessorStore,
)
from repro.storage.relation import BinaryRelation, MaterializedClosureView

__all__ = [
    "AlgebraEngine",
    "Alpha",
    "AlphaPlus",
    "BinaryRelation",
    "ClosureDatabase",
    "Compose",
    "Difference",
    "Expression",
    "Intersect",
    "Inverse",
    "Rel",
    "Select",
    "Steps",
    "Union",
    "BufferPool",
    "DEFAULT_PAGE_CAPACITY",
    "IOCounters",
    "MaterializedClosureView",
    "PagedIntervalStore",
    "PagedSuccessorStore",
    "StorageComparison",
    "compare_storage",
    "compressed_closure_units",
    "full_closure_units",
    "inverse_closure_units",
    "relation_units",
]
