"""Callback serving: exact kernel-event costs of one RPC, and its outcomes."""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.cluster.messages import (
    ReadRequest,
    ReadResponse,
    ReadRowRequest,
    WriteAck,
    WriteRequest,
)
from repro.common import Cell
from repro.errors import NoSuchTableError

from tests.cluster.conftest import make_config


def idle_cluster():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.env.run()
    return cluster


def count_events(cluster, request):
    """Kernel events popped while one RPC and its side work run out."""
    counts = Counter()
    cluster.env.set_event_watcher(
        lambda event: counts.update((type(event).__name__,)))
    event = cluster.network.rpc(1, cluster.nodes[0], request)
    cluster.env.run()
    cluster.env.set_event_watcher(None)
    assert event.processed and event.ok
    return counts


def test_read_rpc_costs_three_kernel_events():
    # Delivery timer, CPU completion, response timer.
    counts = count_events(idle_cluster(), ReadRequest("T", "k", ("a",)))
    assert sum(counts.values()) == 3
    assert counts["Initialize"] == 0 and counts["Process"] == 0


def test_write_rpc_costs_four_kernel_events():
    # ... plus the completion of the deferred background write work.
    counts = count_events(idle_cluster(),
                          WriteRequest("T", "k", {"a": Cell.make(1, 10)}))
    assert sum(counts.values()) == 4
    assert counts["Initialize"] == 0 and counts["Process"] == 0


def test_run_until_rpc_event_returns_the_response():
    cluster = idle_cluster()
    node = cluster.nodes[0]
    node.engine.apply("T", "k", {"a": Cell.make(5, 3)})
    event = cluster.network.rpc(2, node, ReadRequest("T", "k", ("a",)))
    response = cluster.env.run(until=event)
    assert isinstance(response, ReadResponse)
    assert response.cells["a"] == Cell.make(5, 3)
    # Fixed 0.1 ms each way plus the read's 0.30 + 0.008 ms of CPU.
    assert cluster.env.now == pytest.approx(0.2 + 0.308)


def test_error_before_the_cpu_charge_fails_the_rpc_without_cpu():
    cluster = idle_cluster()
    node = cluster.nodes[0]
    event = cluster.network.rpc(1, node, ReadRowRequest("UNKNOWN", "k"))
    with pytest.raises(NoSuchTableError):
        cluster.env.run(until=event)
    assert node.busy_time == 0.0
    assert node.requests_handled == 1


def test_queued_requests_share_the_cores_fifo():
    """Three writes delivered at once to a dual-core node: the third
    waits for the first core and is acknowledged one service time later."""
    cluster = idle_cluster()
    node = cluster.nodes[0]
    events = [cluster.network.rpc(1, node, WriteRequest(
        "T", f"k{i}", {"a": Cell.make(i, 10)})) for i in range(3)]
    acked = []
    for event in events:
        event.callbacks.append(lambda e: acked.append(cluster.env.now))
    cluster.env.run()
    assert all(isinstance(event.value, WriteAck) for event in events)
    service = 0.025 + 0.008
    assert acked == pytest.approx([0.2 + service, 0.2 + service,
                                   0.2 + 2 * service])


def test_dispatch_adapter_serves_inside_a_process():
    cluster = idle_cluster()
    node = cluster.nodes[0]

    def client():
        return (yield from node.dispatch(
            WriteRequest("T", "k", {"a": Cell.make(1, 10)})))

    ack = cluster.env.run(until=cluster.env.process(client()))
    assert isinstance(ack, WriteAck) and ack.applied
    assert node.engine.read("T", "k", ("a",))["a"] == Cell.make(1, 10)
