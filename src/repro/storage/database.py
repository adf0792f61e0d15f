"""A tiny persistent database of binary relations with closure views.

Ties the storage layer together the way the paper's Section 2 imagines a
deployment: several named base relations, each optionally carrying a
*materialised transitive-closure view* kept in sync through the Section 4
incremental algorithms, an algebra engine for queries across relations,
and persistence in a directory (edge lists for relations; closure views
are recomputed on load).

>>> db = ClosureDatabase()
>>> db.create_relation("part_of", materialize=True)
>>> db.insert("part_of", "wheel", "car")
>>> db.closure("part_of").query("wheel", "car")
True
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.errors import StorageError
from repro.storage.algebra import AlgebraEngine, Expression
from repro.storage.relation import BinaryRelation, MaterializedClosureView

PathLike = Union[str, Path]

_CATALOG_FILE = "catalog.json"


class ClosureDatabase:
    """Named relations + materialised closure views + algebra queries."""

    def __init__(self) -> None:
        self._relations: Dict[str, BinaryRelation] = {}
        self._views: Dict[str, MaterializedClosureView] = {}

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def create_relation(self, name: str, *, materialize: bool = False,
                        tuples: Iterable[tuple] = ()) -> None:
        """Create a base relation, optionally with a closure view."""
        if name in self._relations:
            raise StorageError(f"relation {name!r} already exists")
        if name == _CATALOG_FILE:
            raise StorageError(f"{name!r} is a reserved name")
        relation = BinaryRelation(tuples)
        self._relations[name] = relation
        if materialize:
            self._views[name] = MaterializedClosureView.over(relation)

    def drop_relation(self, name: str) -> None:
        """Drop a relation and its view."""
        self._require(name)
        del self._relations[name]
        self._views.pop(name, None)

    def materialize(self, name: str) -> None:
        """Add a closure view to an existing relation (idempotent)."""
        self._require(name)
        if name not in self._views:
            self._views[name] = MaterializedClosureView.over(self._relations[name])

    def relation_names(self) -> List[str]:
        """All relation names, sorted."""
        return sorted(self._relations)

    def has_view(self, name: str) -> bool:
        """Whether ``name`` carries a materialised closure view."""
        return name in self._views

    def _require(self, name: str) -> None:
        if name not in self._relations:
            raise StorageError(
                f"unknown relation {name!r}; known: {self.relation_names()}")

    # ------------------------------------------------------------------
    # data manipulation
    # ------------------------------------------------------------------
    def insert(self, name: str, source, destination) -> None:
        """Insert a tuple; the closure view (if any) updates incrementally."""
        self._require(name)
        view = self._views.get(name)
        if view is not None:
            view.insert(source, destination)
        else:
            self._relations[name].insert(source, destination)

    def delete(self, name: str, source, destination) -> None:
        """Delete a tuple; the closure view (if any) updates incrementally."""
        self._require(name)
        view = self._views.get(name)
        if view is not None:
            view.delete(source, destination)
        else:
            self._relations[name].delete(source, destination)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def relation(self, name: str) -> BinaryRelation:
        """The base relation (mutate through :meth:`insert`/:meth:`delete`)."""
        self._require(name)
        return self._relations[name]

    def closure(self, name: str) -> MaterializedClosureView:
        """The materialised closure view of ``name``."""
        self._require(name)
        try:
            return self._views[name]
        except KeyError:
            raise StorageError(
                f"relation {name!r} has no materialised view; "
                f"call materialize({name!r}) first") from None

    def evaluate(self, expression: Expression):
        """Run an alpha-algebra expression over the current relations."""
        return AlgebraEngine(self._relations).evaluate(expression)

    @property
    def storage_units(self) -> int:
        """Total paper units across all materialised views."""
        return sum(view.storage_units for view in self._views.values())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: PathLike) -> None:
        """Persist the database into ``directory``.

        Layout: ``catalog.json`` (names + view flags), one ``<name>.edges``
        edge list per relation.  Closure views are *not* serialised — they
        are recomputed on load, which keeps them optimal (the paper's
        "rebuild after sufficient update activity" advice applied at
        restart time).  Labels must be strings for edge-list fidelity.
        """
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        catalog = {
            "relations": {name: {"materialized": name in self._views}
                          for name in self._relations},
        }
        (base / _CATALOG_FILE).write_text(json.dumps(catalog, indent=2))
        from repro.graph.io import dumps_edge_list
        for name, relation in self._relations.items():
            (base / f"{name}.edges").write_text(
                dumps_edge_list(relation.to_graph()))

    @classmethod
    def load(cls, directory: PathLike) -> "ClosureDatabase":
        """Load a database previously written by :meth:`save`."""
        base = Path(directory)
        catalog_path = base / _CATALOG_FILE
        if not catalog_path.exists():
            raise StorageError(f"{directory}: no {_CATALOG_FILE} found")
        catalog = json.loads(catalog_path.read_text())
        database = cls()
        from repro.graph.io import load_edge_list
        for name, meta in catalog.get("relations", {}).items():
            graph = load_edge_list(base / f"{name}.edges")
            database.create_relation(
                name, materialize=meta.get("materialized", False),
                tuples=graph.arcs())
        return database

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClosureDatabase(relations={self.relation_names()}, "
                f"views={sorted(self._views)})")
