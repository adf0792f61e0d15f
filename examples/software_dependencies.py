#!/usr/bin/env python3
"""Impact analysis over a (cyclic) software dependency graph.

The paper's motivation section cites Lassie, "a classification-based
software retrieval system", as evidence that real hierarchies compress
well.  This example applies the machinery to the neighbouring problem
every build system has: *which modules are affected if X changes?*

Module dependency graphs contain cycles (mutually recursive modules), so
the example exercises :class:`repro.core.condensation.CondensedIndex` —
the paper's SCC-collapse extension — and the hybrid engine's reverse
interval index for where-used queries under updates.

Run:  python examples/software_dependencies.py
"""

import random

from repro.core.condensation import CondensedIndex
from repro.core.hybrid import HybridTCIndex
from repro.graph.digraph import DiGraph
from repro.graph.scc import strongly_connected_components

rng = random.Random(1989)

# ----------------------------------------------------------------------
# 1. A synthetic code base: layered modules with some dependency cycles.
#    Arc (a, b) means "a depends on b".
# ----------------------------------------------------------------------
graph = DiGraph()
layers = {
    "app": [f"app.{name}" for name in ("web", "cli", "admin", "reports")],
    "service": [f"svc.{name}" for name in
                ("users", "billing", "catalog", "orders", "search")],
    "lib": [f"lib.{name}" for name in
            ("db", "cache", "http", "auth", "config", "log")],
}
for app in layers["app"]:
    for dep in rng.sample(layers["service"], 3):
        graph.add_arc(app, dep)
for service in layers["service"]:
    for dep in rng.sample(layers["lib"], 3):
        graph.add_arc(service, dep)
# Everyone logs; config and log are mutually recursive (a classic).
for module in layers["service"] + layers["lib"]:
    if module != "lib.log":
        graph.add_arc(module, "lib.log")
graph.add_arc("lib.log", "lib.config")      # closes a cycle with config->log
# A service-level cycle: orders <-> billing.
graph.add_arc("svc.billing", "svc.orders")
graph.add_arc("svc.orders", "svc.billing")

print(f"dependency graph: {graph.num_nodes} modules, {graph.num_arcs} edges")
cycles = [c for c in strongly_connected_components(graph) if len(c) > 1]
print(f"dependency cycles: {[sorted(c) for c in cycles]}")

# ----------------------------------------------------------------------
# 2. Index the cyclic graph: SCCs collapse, intervals index the DAG.
# ----------------------------------------------------------------------
index = CondensedIndex.build(graph)
print(f"\ncondensation: {index.num_components} components, "
      f"{index.storage_units} storage units")

print(f"  app.web depends (transitively) on "
      f"{len(index.successors('app.web')) - 1} modules")
print(f"  svc.billing depends on svc.orders AND vice versa: "
      f"{index.reachable('svc.billing', 'svc.orders')} / "
      f"{index.reachable('svc.orders', 'svc.billing')}")

# ----------------------------------------------------------------------
# 3. Impact analysis = predecessor queries: who rebuilds when X changes?
# ----------------------------------------------------------------------
print("\n== rebuild impact ==")
for changed in ("lib.db", "lib.log", "svc.orders"):
    impacted = index.predecessors(changed, reflexive=False)
    print(f"  change {changed:12} -> rebuild {len(impacted):2} modules")

# ----------------------------------------------------------------------
# 4. For acyclic slices, the hybrid engine answers where-used in
#    O(answer) from its frozen base's reverse interval index, and keeps
#    answering as modules are added (the delta overlay corrects the base).
# ----------------------------------------------------------------------
member_of = {}
for component in strongly_connected_components(graph):
    for module in component:
        member_of[module] = component
acyclic = DiGraph(nodes=graph.nodes())
for source, destination in graph.arcs():
    if member_of[source] is not member_of[destination]:
        acyclic.add_arc(source, destination)

hybrid = HybridTCIndex.build(acyclic)
users_of_db = hybrid.predecessors("lib.db", reflexive=False)
print(f"\nwhere-used (cycle arcs removed): lib.db is used by "
      f"{len(users_of_db)} modules")
hybrid.add_node("app.new")
hybrid.add_arc("app.new", "lib.db")
users_after = hybrid.predecessors("lib.db", reflexive=False)
assert users_after == users_of_db | {"app.new"}
print(f"after adding app.new -> lib.db: {len(users_after)} modules")
hybrid.verify()

print("\nindexes verified against pointer chasing")
