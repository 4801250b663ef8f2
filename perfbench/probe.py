"""The traced run: spans, counters and host time per layer.

Everything here observes the program from outside.  :class:`Probe`
wraps public entry points of each layer (class attributes, restored on
``stop``) to record simulated-time spans and call counts, counts kernel
events through ``Environment.set_event_watcher``, reads the layers' own
counters before and after the measured window, and runs ``cProfile`` to
attribute host self time to layers by module.  None of it schedules an
event or draws a random number, so the traced simulation is the
untraced one; ``run.py`` checks that its simulated metrics are equal.
"""

from __future__ import annotations

import cProfile
import gzip
import json
import pstats
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cluster.client import ClientHandle
from repro.cluster.coordinator import Coordinator
from repro.cluster.metrics import UtilizationTracker
from repro.cluster.network import Network
from repro.cluster.node import StorageNode
from repro.repair import ViewScrubber
from repro.views.locks import LockService
from repro.views.maintenance import ViewMaintainer
from repro.views.manager import ViewManager
from repro.views.outbox import NodeOutbox
from repro.views.skew import SkewService

from perfbench.workloads import nearest_rank

__all__ = ["Probe", "HOST_LAYERS", "layer_of"]

# Generator entry points wrapped in spans, by class.
GENERATOR_SPANS = (
    (ClientHandle, ("put", "get", "get_view", "get_view_fresh")),
    (Coordinator, ("get", "get_row", "put")),
    (ViewManager, ("base_put", "view_get", "view_get_fresh")),
    (ViewMaintainer, ("propagate_update",)),
    (LockService, ("acquire",)),
    (SkewService, ("flush_for_read",)),
    (ViewScrubber, ("run_round",)),
)
CLIENT_OPS = {f"ClientHandle.{name}" for name in GENERATOR_SPANS[0][1]}

# Plain functions whose calls are counted (quorum rounds per op).
COUNTED = (
    (Coordinator, ("scatter_read", "scatter_read_row", "scatter_write",
                   "scatter_get_then_put")),
)

# Module path fragment -> host-time layer; first match wins.  Modules of
# the standard library and built-ins are charged to their callers.
_LAYER_PATHS = (
    ("/repro/sim/", "sim"),
    ("/repro/cluster/network.py", "network"),
    ("/repro/cluster/messages.py", "network"),
    ("/repro/cluster/coordinator.py", "coordinator"),
    ("/repro/cluster/node.py", "node"),
    ("/repro/cluster/storage.py", "node"),
    ("/repro/cluster/", "cluster_other"),
    ("/repro/views/outbox.py", "outbox"),
    ("/repro/views/maintenance.py", "maintenance"),
    ("/repro/views/locks.py", "locks"),
    ("/repro/views/session.py", "session_read"),
    ("/repro/views/read.py", "session_read"),
    ("/repro/views/skew.py", "skew"),
    ("/repro/views/", "views_other"),
    ("/repro/freshness/", "freshness"),
    ("/repro/repair/", "repair"),
    ("/repro/", "repro_other"),
    ("/perfbench/probe.py", "trace"),
    ("/perfbench/", "bench"),
)
HOST_LAYERS = tuple(dict.fromkeys(layer for _path, layer in _LAYER_PATHS))


def layer_of(filename: str) -> Optional[str]:
    """The host-time layer of a module file, or ``None`` (stdlib/C)."""
    path = filename.replace("\\", "/")
    for fragment, layer in _LAYER_PATHS:
        if fragment in path:
            return layer
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Probe:
    """Observes one repetition between ``start`` and ``stop``."""

    def __init__(self):
        self.env = None
        self.cluster = None
        self.spans: List[list] = []     # [id, name, start, end, parent, op]
        self.calls: Counter = Counter()
        self.events: Counter = Counter()
        self.max_outbox_depth = 0       # deepest node outbox in the window
        self._stacks: Dict[object, List[int]] = defaultdict(list)
        # (id(request), node id) -> (request, rpc span, op); holding the
        # request keeps its id from being reused while the link exists.
        self._rpc_links: Dict[Tuple[int, int], tuple] = {}
        self._next_op = 0
        self._saved: List[Tuple[type, str, object]] = []
        self._profiler = cProfile.Profile()
        self._before: Dict[str, float] = {}
        self.metrics: Dict[str, float] = {}
        self.profiled_s = 0.0

    # -- lifecycle ------------------------------------------------------------

    def start(self, cluster) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self._before = snapshot(cluster)
        self._util = UtilizationTracker(cluster)
        self._util.start()
        self._install()
        self.env.set_event_watcher(self._watch)
        self._profiler.enable()

    def pause(self) -> None:
        self._profiler.disable()

    def resume(self) -> None:
        self._profiler.enable()

    def stop(self, counts: Dict[str, int]) -> None:
        """Close the window; ``counts`` holds the client-side totals
        ``ops`` (completed), ``view_reads`` and ``writes``."""
        self._profiler.disable()
        self.env.set_event_watcher(None)
        self._uninstall()
        util = self._util.stop()
        after = snapshot(self.cluster)
        delta = {key: after[key] - self._before.get(key, 0.0)
                 for key in after}
        delta.update(counts)
        ops = counts["ops"]
        self.metrics = self._layer_metrics(delta, after, util, ops)
        self.metrics.update(self._host_metrics(ops))

    # -- kernel events -----------------------------------------------------------

    def _watch(self, event) -> None:
        self.events[type(event).__name__] += 1

    # -- spans --------------------------------------------------------------------

    def _open(self, name: str, parent: Optional[int], op: Optional[int]
              ) -> int:
        sid = len(self.spans)
        if op is None and name in CLIENT_OPS:
            self._next_op += 1
            op = self._next_op
        self.spans.append([sid, name, self.env.now, None, parent, op])
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = self.env.now

    def _enclosing(self, proc) -> Tuple[Optional[int], Optional[int]]:
        stack = self._stacks.get(proc)
        if not stack:
            return None, None
        top = stack[-1]
        return top, self.spans[top][5]

    def _traced(self, name: str, gen, link=None):
        proc = self.env.active_process
        parent, op = link if link is not None else self._enclosing(proc)
        sid = self._open(name, parent, op)
        stack = self._stacks[proc]
        stack.append(sid)
        try:
            return (yield from gen)
        finally:
            self._close(sid)
            if sid in stack:
                stack.remove(sid)
            if not stack:
                self._stacks.pop(proc, None)

    def _patch(self, cls: type, attr: str, replacement) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _install(self) -> None:
        probe = self
        for cls, names in GENERATOR_SPANS:
            for attr in names:
                original = getattr(cls, attr)
                label = f"{cls.__name__}.{attr}"

                def wrapper(*args, _original=original, _label=label,
                            **kwargs):
                    return probe._traced(_label, _original(*args, **kwargs))

                self._patch(cls, attr, wrapper)
        for cls, names in COUNTED:
            for attr in names:
                original = getattr(cls, attr)
                label = f"{cls.__name__}.{attr}"

                def counted(*args, _original=original, _label=label,
                            **kwargs):
                    probe.calls[_label] += 1
                    return _original(*args, **kwargs)

                self._patch(cls, attr, counted)

        rpc = Network.rpc

        def traced_rpc(network, src_id, dst, request):
            parent, op = probe._enclosing(probe.env.active_process)
            sid = probe._open("Network.rpc", parent, op)
            probe._rpc_links[(id(request), dst.node_id)] = (request, sid, op)
            event = rpc(network, src_id, dst, request)
            event.callbacks.append(lambda _event: probe._close(sid))
            return event

        self._patch(Network, "rpc", traced_rpc)

        dispatch = StorageNode.dispatch

        def traced_dispatch(node, request):
            gen = dispatch(node, request)
            _request, *link = probe._rpc_links.pop(
                (id(request), node.node_id), (None, None, None))
            return probe._traced("StorageNode.dispatch", gen, link)

        self._patch(StorageNode, "dispatch", traced_dispatch)

        fold = SkewService.fold

        def traced_fold(service, *args, **kwargs):
            parent, op = probe._enclosing(probe.env.active_process)
            sid = probe._open("SkewService.fold", parent, op)
            try:
                return fold(service, *args, **kwargs)
            finally:
                probe._close(sid)

        self._patch(SkewService, "fold", traced_fold)

        append = NodeOutbox.append

        def tracked_append(outbox, *args, **kwargs):
            record = append(outbox, *args, **kwargs)
            probe.max_outbox_depth = max(probe.max_outbox_depth,
                                         outbox.depth)
            return record

        self._patch(NodeOutbox, "append", tracked_append)

    def _uninstall(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()
        self._rpc_links.clear()

    def write_spans(self, path: Path) -> None:
        """Write the spans as gzip JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "op")
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")

    def span_durations(self, *names: str) -> List[float]:
        wanted = set(names)
        return [span[3] - span[2] for span in self.spans
                if span[1] in wanted and span[3] is not None]

    # -- metrics ---------------------------------------------------------------------

    def _layer_metrics(self, d: Dict[str, float], after: Dict[str, float],
                       util, ops: int) -> Dict[str, float]:
        calls = self.calls
        reads = d["view_reads"]
        started = d["maintenance.started"]
        quorum_reads = (calls["Coordinator.scatter_read"]
                        + calls["Coordinator.scatter_read_row"])
        quorum_writes = (calls["Coordinator.scatter_write"]
                         + calls["Coordinator.scatter_get_then_put"])
        propagate = self.span_durations("ViewMaintainer.propagate_update")
        return {
            "sim.events_per_op": _ratio(sum(self.events.values()), ops),
            "sim.timeouts_per_op": _ratio(self.events["Timeout"], ops),
            "sim.processes_per_op": _ratio(self.events["Initialize"], ops),
            "network.messages_per_op": _ratio(d["network.messages"], ops),
            "coordinator.quorum_reads_per_op": _ratio(quorum_reads, ops),
            "coordinator.quorum_writes_per_op": _ratio(quorum_writes, ops),
            "coordinator.quorum_read_ms_p50": nearest_rank(
                self.span_durations("Coordinator.get", "Coordinator.get_row"),
                0.50),
            "node.requests_per_op": _ratio(d["node.requests"], ops),
            "node.cpu_util_mean": util.mean_utilization(),
            "node.cpu_util_max": util.max_utilization(),
            "outbox.appended_per_write": _ratio(d["outbox.appended"],
                                                d["writes"]),
            "outbox.coalesce_ratio": _ratio(d["outbox.coalesced"],
                                            d["outbox.appended"]),
            "outbox.max_depth": self.max_outbox_depth,
            "maintenance.success_ratio": _ratio(
                d["maintenance.succeeded"], started),
            "maintenance.guess_failures_per_propagation": _ratio(
                d["maintenance.guess_failures"], started),
            "maintenance.retry_rounds_per_propagation": _ratio(
                d["maintenance.retry_rounds"], started),
            "maintenance.chain_hops_per_propagation": _ratio(
                d["maintenance.chain_hops"], d["maintenance.succeeded"]),
            "maintenance.propagate_ms_p50": nearest_rank(propagate, 0.50),
            "maintenance.propagate_ms_p99": nearest_rank(propagate, 0.99),
            "locks.contention_ratio": _ratio(d["locks.contentions"],
                                             d["locks.acquisitions"]),
            "locks.wait_ms_per_acquisition": _ratio(
                d["locks.wait_ms"], d["locks.acquisitions"]),
            "locks.max_queue_depth": after["locks.max_queue_depth"],
            "session.blocked_get_ratio": _ratio(d["session.blocked_gets"],
                                                reads),
            "read.init_spins_per_view_read": _ratio(d["read.init_spins"],
                                                    reads),
            "skew.fold_ratio": _ratio(d["skew.folded"], d["outbox.appended"]),
            "skew.read_barrier_flushes_per_read": _ratio(
                d["skew.read_barrier_flushes"], reads),
            "skew.tick_flushes": d["skew.tick_flushes"],
            "skew.heavy_keys": after["skew.heavy_keys"],
            "cache.hit_ratio": _ratio(
                d["cache.hits"], d["cache.hits"] + d["cache.misses"]),
            "freshness.escalation_ratio": _ratio(
                d["freshness.escalations"], d["freshness.bounded_reads"]),
            "freshness.bound_miss_ratio": _ratio(
                d["freshness.bound_misses"], d["freshness.bounded_reads"]),
            "freshness.compensated_keys_per_escalation": _ratio(
                d["freshness.compensated_keys"], d["freshness.escalations"]),
            "freshness.wounds_opened": d["freshness.wounds_opened"],
            "freshness.wounds_healed": d["freshness.wounds_healed"],
            "repair.rows_scanned": d["repair.rows_scanned"],
            "repair.divergences_found": d["repair.divergences_found"],
            "repair.repair_ratio": _ratio(d["repair.repairs_applied"],
                                          d["repair.divergences_found"]),
            "repair.rounds": d["repair.rounds"],
            "propagations.lost": d["propagations.lost"],
        }

    def _host_metrics(self, ops: int) -> Dict[str, float]:
        self_s = attribute_host_time(pstats.Stats(self._profiler).stats)
        total = sum(self_s.values())
        self.profiled_s = total
        metrics = {}
        for layer in HOST_LAYERS:
            seconds = self_s.get(layer, 0.0)
            metrics[f"host.{layer}.self_share"] = _ratio(seconds, total)
            metrics[f"host.{layer}.self_us_per_op"] = _ratio(seconds * 1e6,
                                                             ops)
        return metrics


def attribute_host_time(stats) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats.stats``.

    A function outside the project (standard library, built-in) is
    charged to its callers, split by the time it spent under each.
    """
    shares: Dict[tuple, Dict[str, float]] = {}

    def split(func, depth: int) -> Dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        shares[func] = {"other": 1.0}          # cycle guard
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[2] for edge in callers.values())
        if depth > 32 or total <= 0:
            return shares[func]
        mix: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            for layer, part in split(caller, depth + 1).items():
                mix[layer] += part * edge[2] / total
        shares[func] = dict(mix)
        return shares[func]

    seconds: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, part in split(func, 0).items():
            seconds[layer] += tt * part
    return dict(seconds)


def snapshot(cluster) -> Dict[str, float]:
    """Raw counters of every layer, read from the layers' own state."""
    manager = cluster.view_manager
    outbox = manager.outbox_stats()
    maintenance = manager.maintainer.metrics
    locks = manager.locks
    skew = manager.skew
    cache = skew.cache
    slo = manager.freshness_slo
    scrubbers = [s.metrics for s in cluster.scrubbers]
    return {
        "network.messages": cluster.network.messages_sent,
        "node.requests": sum(n.requests_handled for n in cluster.nodes),
        "outbox.appended": outbox["appended"],
        "outbox.coalesced": outbox["coalesced"],
        "maintenance.started": maintenance.propagations_started,
        "maintenance.succeeded": maintenance.propagations_succeeded,
        "maintenance.guess_failures": maintenance.guess_failures,
        "maintenance.retry_rounds": maintenance.retry_rounds,
        "maintenance.chain_hops": maintenance.chain_hops,
        "locks.acquisitions": locks.acquisitions,
        "locks.contentions": locks.contentions,
        "locks.wait_ms": locks.wait_time_total,
        "locks.max_queue_depth": locks.max_queue_depth,
        "session.blocked_gets": manager.sessions.blocked_gets,
        "read.init_spins": manager.read_stats.init_spins,
        "skew.folded": skew.folded_records,
        "skew.read_barrier_flushes": skew.read_barrier_flushes,
        "skew.tick_flushes": skew.tick_flushes,
        "skew.heavy_keys": skew.heavy_keys,
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "freshness.bounded_reads": slo.reads_bounded,
        "freshness.escalations": slo.escalations,
        "freshness.bound_misses": slo.bound_misses,
        "freshness.compensated_keys": slo.compensated_keys,
        "freshness.wounds_opened": manager.freshness.wounds_opened,
        "freshness.wounds_healed": manager.freshness.wounds_healed,
        "repair.rows_scanned": sum(m.rows_scanned for m in scrubbers),
        "repair.divergences_found": sum(m.divergences_found
                                        for m in scrubbers),
        "repair.repairs_applied": sum(m.repairs_applied for m in scrubbers),
        "repair.rounds": sum(m.rounds for m in scrubbers),
        "propagations.lost": manager.lost_propagations,
    }
