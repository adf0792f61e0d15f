"""Op-level correctness: every endpoint against the set-closure oracle."""

from __future__ import annotations

import pytest

from repro.core.hybrid import HybridTCIndex
from repro.core.index import IntervalTCIndex
from repro.errors import CycleError, NodeNotFoundError
from repro.graph.generators import random_dag
from repro.server.client import ServerError
from repro.server.inprocess import ServerBackedEngine, ServerThread
from repro.testing.oracle import SetClosureOracle, compare_engine

from .harness import connected, run


def _engine_and_oracle(seed: int = 7, nodes: int = 24):
    graph = random_dag(nodes, 1.8, seed)
    oracle = SetClosureOracle(arcs=graph.arcs(), nodes=graph.nodes())
    return HybridTCIndex.build(graph), oracle


class TestQueryOps:
    def test_every_query_op_matches_oracle(self):
        engine, oracle = _engine_and_oracle()
        nodes = sorted(oracle.nodes(), key=repr)

        async def scenario():
            async with connected(engine) as (_, client):
                pairs = [(u, v) for u in nodes[:8] for v in nodes[:8]]
                answers = await client.check_many(pairs)
                assert answers == [oracle.reachable(u, v) for u, v in pairs]
                for node in nodes[:6]:
                    assert set(await client.expand(node)) == \
                        set(oracle.successors(node))
                    assert set(await client.list_reaching(node)) == \
                        oracle.predecessors(node)
                sources, sinks = nodes[:3], nodes[-3:]
                expected_any = any(oracle.reachable(u, v)
                                   for u in sources for v in sinks)
                assert await client.semijoin_any(sources, sinks) == \
                    expected_any
                forward = set.union(*(set(oracle.successors(u))
                                      for u in sources))
                assert set(await client.semijoin_forward(sources)) == forward
                backward = set.union(*(oracle.predecessors(v)
                                       for v in sinks))
                assert set(await client.semijoin_backward(sinks)) == backward
        run(scenario())

    def test_reflexive_flag(self):
        async def scenario():
            engine = HybridTCIndex.from_arcs([("a", "b")])
            async with connected(engine) as (_, client):
                assert await client.expand("a") == ["a", "b"]
                assert await client.expand("a", reflexive=False) == ["b"]
                assert await client.list_reaching("b", reflexive=False) \
                    == ["a"]
        run(scenario())

    def test_not_found_is_typed(self):
        async def scenario():
            engine = HybridTCIndex.from_arcs([("a", "b")])
            async with connected(engine) as (_, client):
                with pytest.raises(NodeNotFoundError):
                    await client.check("a", "ghost")
                with pytest.raises(NodeNotFoundError):
                    await client.expand("ghost")
                with pytest.raises(NodeNotFoundError):
                    await client.check_many([("a", "b"), ("ghost", "a")])
        run(scenario())


class TestWriteOps:
    def test_writes_become_visible_with_their_epoch(self):
        async def scenario():
            engine = HybridTCIndex.from_arcs([("a", "b")])
            async with connected(engine) as (server, client):
                epoch = await client.add_node("c", parents=["b"])
                assert epoch >= 1
                assert await client.check("a", "c")
                epoch2 = await client.remove_arc("b", "c")
                assert epoch2 > epoch
                assert not await client.check("a", "c")
                await client.add_arc("a", "c")
                assert await client.check("a", "c")
                await client.remove_node("c")
                with pytest.raises(NodeNotFoundError):
                    await client.check("a", "c")
        run(scenario())

    def test_cycle_rejected_with_cycle_code(self):
        async def scenario():
            engine = HybridTCIndex.from_arcs([("a", "b"), ("b", "c")])
            async with connected(engine) as (server, client):
                before = server.state.epoch
                with pytest.raises(CycleError):
                    await client.add_arc("c", "a")
                # A rejected write publishes nothing.
                assert server.state.epoch == before
                assert await client.check("a", "c")
        run(scenario())

    def test_read_only_server_refuses_writes(self):
        async def scenario():
            frozen = IntervalTCIndex.build(
                random_dag(12, 1.5, 3)).freeze()
            async with connected(frozen) as (server, client):
                assert server.state.read_only
                with pytest.raises(ServerError) as excinfo:
                    await client.add_arc("anything", "else")
                assert excinfo.value.code == "read-only"
                # Reads still fine.
                assert await client.ping() == "pong"
        run(scenario())

    def test_failed_write_does_not_poison_the_batch(self):
        async def scenario():
            engine = HybridTCIndex.from_arcs([("a", "b")])
            async with connected(engine) as (_, client):
                with pytest.raises(NodeNotFoundError):
                    await client.add_arc("ghost", "b")
                epoch = await client.add_node("z2", parents=["b"])
                assert epoch >= 1
                assert await client.check("a", "z2")
        run(scenario())


class TestIntrospectionOps:
    def test_stats_and_epoch(self):
        async def scenario():
            engine = HybridTCIndex.from_arcs([("a", "b")])
            async with connected(engine) as (_, client):
                stats = await client.stats()
                assert stats["epoch"] == 0
                assert stats["nodes"] == 2
                assert stats["read_only"] is False
                assert stats["coalescer"]["enabled"] is True
                assert await client.epoch() == 0
                await client.add_node("c", parents=["b"])
                assert await client.epoch() == 1
        run(scenario())

    def test_shutdown_op(self):
        async def scenario():
            engine = HybridTCIndex.from_arcs([("a", "b")])
            async with connected(engine) as (server, client):
                assert await client.shutdown() == "bye"
                # run() would now unblock; here just observe the flag.
                assert server._shutdown.is_set()
        run(scenario())


class TestInProcessHarness:
    def test_server_backed_engine_matches_oracle(self):
        """The fuzzer's bridge: full compare_engine over a live server."""
        graph = random_dag(18, 1.6, 11)
        oracle = SetClosureOracle(arcs=graph.arcs(), nodes=graph.nodes())
        with ServerThread(lambda: HybridTCIndex.build(graph)) as thread:
            engine = ServerBackedEngine(thread)
            checks = compare_engine("server", engine, oracle,
                                    predecessors=True)
            # successors and predecessors per node, one all-pairs
            # reachable_many, six reachable_from_set groups
            assert checks == 2 * len(oracle) + 1 + 6

    @pytest.mark.parametrize("missing", [
        pytest.param(99, id="int"), pytest.param(0.5, id="float"),
        pytest.param("ghost", id="string"),
        pytest.param("it's", id="quoted-string")])
    def test_not_found_keeps_the_node_id(self, missing):
        """The client reads the missing node back out of the error, so
        ``.node`` and the message match the in-process exception."""
        graph = random_dag(12, 1.6, 3)
        expected = NodeNotFoundError(missing)
        with ServerThread(lambda: HybridTCIndex.build(graph)) as thread:
            for op, fields in [("check", {"u": missing, "v": 0}),
                               ("check", {"u": 0, "v": missing}),
                               ("check-many", {"pairs": [[0, 1],
                                                         [missing, 1]]})]:
                with pytest.raises(NodeNotFoundError) as caught:
                    thread.call(op, **fields)
                assert caught.value.node == missing
                assert type(caught.value.node) is type(missing)
                assert str(caught.value) == str(expected)

    def test_harness_surfaces_factory_errors(self):
        def explode():
            raise RuntimeError("factory boom")
        with pytest.raises(RuntimeError, match="factory boom"):
            ServerThread(explode)
