"""Microbenchmark topics: the simulator's hot paths in isolation.

Each topic exercises one layer with a fixed, deterministic workload:

- ``kernel_events`` — raw event scheduling/dispatch throughput of the
  discrete-event kernel (timer wheels of interleaved processes);
- ``record_ops`` — cell encode + LWW compare/merge throughput of the
  record model (what every replica write and quorum merge pays);
- ``message_rpc`` — coordinator → replica request/response round trips
  through the simulated network and a node's serve/CPU path;
- ``propagation_chain`` — full Algorithm 1/2 view propagation driven one
  update at a time, measuring simulated end-to-end propagation latency.
"""

from __future__ import annotations

from repro.bench.harness import BenchParams, TopicResult

__all__ = ["TOPICS"]


def kernel_events(params: BenchParams) -> TopicResult:
    """Event-heap throughput: N processes racing interleaved timers.

    ``simulated_ops`` counts timeout events processed.  Delays vary per
    process so the heap continually reorders, which is the realistic
    (and expensive) regime.
    """
    from repro.sim.kernel import Environment

    processes = 50
    ticks = params.scaled(200, 2_000)
    env = Environment()

    def ticker(index: int):
        delay = 0.5 + (index % 7)
        for _ in range(ticks):
            yield env.timeout(delay)

    for index in range(processes):
        env.process(ticker(index), name=f"ticker-{index}")
    env.run()
    return TopicResult(
        simulated_ops=processes * ticks,
        params={"processes": processes, "ticks": ticks},
        simulated_duration_ms=env.now,
    )


def record_ops(params: BenchParams) -> TopicResult:
    """Record-model throughput: cell encode, LWW compare, replica merge.

    One op = build a cell, apply it to a row, and merge a 3-replica
    response set for the same column — the per-write/per-read record
    work a storage node and coordinator perform.
    """
    from repro.common.records import Cell, Row, cell_wins, merge_cells

    ops = params.scaled(20_000, 200_000)
    row = Row()
    wins = 0
    for i in range(ops):
        column = f"c{i % 16}"
        cell = Cell.make(f"value-{i}", i)
        if row.apply(column, cell):
            wins += 1
        stale = Cell.make(f"value-{i - 1}", max(0, i - 1))
        merged = merge_cells((cell, stale, None))
        if cell_wins(merged, stale):
            wins += 1
    return TopicResult(
        simulated_ops=ops,
        params={"ops": ops, "columns": 16},
        metrics={"lww_wins": wins},
    )


def message_rpc(params: BenchParams) -> TopicResult:
    """Coordinator→replica message path: sequential write round trips.

    One op = one ``WriteRequest`` RPC (request delay, serve + CPU
    charge at the replica, response delay) awaited to completion.
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.cluster.messages import WriteRequest
    from repro.common.records import Cell

    ops = params.scaled(2_000, 20_000)
    cluster = Cluster(ClusterConfig(nodes=4, replication_factor=3,
                                    seed=params.seed))
    cluster.create_table("B")
    env = cluster.env
    replica = cluster.nodes[1]

    def driver():
        for i in range(ops):
            request = WriteRequest("B", i % 64, {"v": Cell.make(i, i + 1)})
            yield cluster.network.rpc(0, replica, request)

    process = env.process(driver(), name="rpc-driver")
    env.run(until=process)
    return TopicResult(
        simulated_ops=ops,
        params={"ops": ops, "nodes": 4},
        simulated_duration_ms=env.now,
        metrics={"messages_sent": cluster.network.messages_sent},
    )


def propagation_chain(params: BenchParams) -> TopicResult:
    """End-to-end view maintenance: view-key updates driven one at a time.

    One op = one base Put whose view-key change runs Algorithms 1–3 to
    completion (client ack plus the full asynchronous propagation).
    ``propagation_latency`` is the simulated ms from Put issue to a
    fully drained propagation.
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.views import ViewDefinition
    from repro.workloads.stats import LatencyRecorder

    ops = params.scaled(150, 800)
    cluster = Cluster(ClusterConfig(nodes=4, replication_factor=3,
                                    seed=params.seed))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "vk", ("m",)))
    env = cluster.env
    handle = cluster.client()
    recorder = LatencyRecorder()

    for i in range(ops):
        began = env.now
        process = env.process(
            handle.put("T", i % 8, {"vk": f"k{i % 5}", "m": i}),
            name=f"bench-put-{i}")
        env.run(until=process)
        cluster.run_until_idle()
        recorder.record(env.now - began)

    manager = cluster.view_manager
    return TopicResult(
        simulated_ops=ops,
        params={"ops": ops, "base_rows": 8, "view_keys": 5},
        simulated_duration_ms=env.now,
        propagation_latency={
            "mean_ms": round(recorder.mean, 6),
            "p99_ms": round(recorder.percentile(99), 6),
        },
        metrics={
            "completed_propagations": manager.completed_propagations,
            "chain_hops": manager.maintainer.metrics.chain_hops,
        },
    )


TOPICS = {
    "kernel_events": kernel_events,
    "record_ops": record_ops,
    "message_rpc": message_rpc,
    "propagation_chain": propagation_chain,
}
