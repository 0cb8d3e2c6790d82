"""A cluster whose set-up fails closes every socket it opened.

``EpochOrchestrator.run`` binds the receivers' servers and connects the
uplinks one by one; an ``OSError`` partway through (a port the kernel
refuses, a connect that fails) must not leave the servers already bound
and the uplinks already connected open: they are closed, then the error
is raised.  A leaked socket shows as a ``ResourceWarning`` once it is
collected, so the test records those too.
"""

from __future__ import annotations

import asyncio
import gc
import warnings

import pytest

from repro.cluster.node import ClusterNode
from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.topology import build_complete_tree

pytestmark = pytest.mark.cluster

N = 16


def test_a_failed_connect_closes_every_server_and_uplink(monkeypatch: pytest.MonkeyPatch) -> None:
    tree = build_complete_tree(N, fanout=4)
    orchestrator = EpochOrchestrator(
        SIESProtocol(num_sources=N, seed=1),
        tree,
        UniformWorkload(N, 0, 500, seed=1),
        ClusterConfig(num_epochs=2),
    )
    servers: list[asyncio.Server] = []
    uplinks: list[asyncio.BaseTransport] = []
    start, connect = ClusterNode.start, ClusterNode.connect_uplink

    async def recorded_start(node: ClusterNode) -> int:
        port = await start(node)
        servers.append(node._server)
        return port

    async def failing_connect(node: ClusterNode, port: int) -> None:
        if len(uplinks) == 9:
            raise OSError("injected failure of the 10th connect")
        await connect(node, port)
        uplinks.append(node._parent._transport)

    monkeypatch.setattr(ClusterNode, "start", recorded_start)
    monkeypatch.setattr(ClusterNode, "connect_uplink", failing_connect)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError, match="10th connect"):
            asyncio.run(orchestrator.run())
        assert len(uplinks) == 9
        # Only nodes that receive bind a server: the aggregators and the querier.
        assert len(servers) == len(tree.aggregator_ids) + 1
        open_servers = sum(server.is_serving() or bool(server.sockets) for server in servers)
        open_uplinks = sum(not transport.is_closing() for transport in uplinks)
        # Whatever is still open warns once it is collected.
        del orchestrator
        servers.clear()
        uplinks.clear()
        gc.collect()
    assert (open_servers, open_uplinks) == (0, 0)
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
