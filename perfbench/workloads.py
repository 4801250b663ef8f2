"""The benchmark's workloads: inputs, load loops, convergence and checks.

Each workload is a :class:`Spec` written out in full here — cluster
config overrides included — so retuning an experiment preset elsewhere
in the repository cannot move the benchmark.  :func:`run_rep` builds a
fresh cluster, loads it, drives one load phase, waits for convergence
and checks the outputs.  Every simulated quantity it returns is a pure
function of the spec and the seed; host times are measured with
``time.process_time`` (the simulator is single-threaded).
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.chaos import ChaosMonkey
from repro.errors import NodeDownError, QuorumError, ViewError
from repro.freshness import BoundedReadObservation, check_bounded_reads
from repro.repair import divergent_base_keys
from repro.views import BaseUpdate, ViewDefinition
from repro.views.definition import BASE_KEY_COLUMN
from repro.views.invariants import check_view

__all__ = ["SPECS", "Spec", "Rep", "run_rep", "nearest_rank",
           "percentile_metric"]

TABLE = "DATA"
KEY_COLUMN = "vk"
PAYLOAD = "payload"
VIEW = "DATA_BY_VK"

# The paper's testbed shape (4 nodes, N = 3, dual-core), shared by all
# workloads; per-workload overrides are applied on top.
BASE_CONFIG = dict(nodes=4, replication_factor=3, cores_per_node=2)

# Client errors a failover retry may absorb (a crashed coordinator, a
# quorum shortfall, an Init-timeout on a view row).
RETRIABLE = (NodeDownError, QuorumError, ViewError)

# How long a crashed coordinator stays down (sim-ms).
CRASH_DOWNTIME_MS = 15.0

# Simulated-ms cap on the convergence wait; not converging by then is a
# correctness failure.
CONVERGE_CAP_MS = 60_000.0


@dataclass(frozen=True)
class Spec:
    """One workload: load shape, sizes, and cluster overrides."""

    name: str
    why: str
    rows: int
    ops: int                       # client ops issued in the load phase
    overrides: Dict[str, object] = field(default_factory=dict)
    clients: int = 8               # closed loop
    rate_per_ms: float = 0.0       # open loop: mean arrivals per sim-ms
    theta: float = 0.0             # Zipf exponent over base keys
    groups: int = 0                # open loop: view-key population
    bound_ms: float = 0.0          # open loop: max_staleness_ms
    crash_stride: int = 0          # lose every n-th eager propagation
    scrub: Dict[str, float] = field(default_factory=dict)
    write_quorum: int = 1
    sessions: bool = False         # closed loop: one session per client
    epochs: int = 1                # quiesce points

    def scaled(self, factor: float) -> "Spec":
        """A smaller copy (smoke tests): fewer rows and ops."""
        return replace(self, rows=max(32, int(self.rows * factor)),
                       ops=max(40, int(self.ops * factor)),
                       epochs=max(2, int(self.epochs * factor)))


SPECS: Dict[str, Spec] = {
    "read_mostly": Spec(
        name="read_mostly",
        why=("90% view reads: the read path does the work while "
             "maintenance, skew, freshness and repair idle"),
        rows=2_000, ops=24_000, clients=8, epochs=32,
        overrides=dict(propagation_pipeline="outbox",
                       max_pending_propagations=32),
    ),
    "write_churn": Spec(
        name="write_churn",
        why=("80% view-key moves under sessions: maintenance, locks, "
             "backpressure and the session barrier dominate"),
        rows=2_000, ops=6_400, clients=8, epochs=32,
        sessions=True,
        overrides=dict(propagation_pipeline="outbox",
                       max_pending_propagations=32),
    ),
    "hot_lossy": Spec(
        name="hot_lossy",
        why=("Zipf open loop with crashes, scrubber, folding, cache and "
             "bounded reads: the only load on skew, freshness and repair"),
        rows=256, ops=9_600, rate_per_ms=0.4, theta=1.2, groups=128,
        bound_ms=20.0, crash_stride=10, epochs=32, write_quorum=2,
        scrub=dict(interval=40.0, row_budget=256, rate_limit=0.05),
        overrides=dict(propagation_pipeline="outbox",
                       max_pending_propagations=32,
                       propagation_max_rounds=24,
                       skew_adaptive=True,
                       skew_promote_threshold=2.0,
                       skew_demote_threshold=1.0,
                       skew_decay_half_life=800.0,
                       skew_fold_interval=20.0,
                       view_cache_capacity=32),
    ),
}


class Zipf:
    """Inverse-CDF Zipf sampler over ``count`` ranks (rank 0 hottest)."""

    def __init__(self, count: int, theta: float):
        weights = [1.0 / math.pow(rank + 1, theta) for rank in range(count)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random())


@dataclass
class Recorder:
    """Client-side outcomes of one load phase."""

    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    view_reads: int = 0
    violations: List[str] = field(default_factory=list)


@dataclass
class Rep:
    """Everything one repetition measured."""

    sim: Dict[str, object]         # deterministic simulated metrics
    host: Dict[str, float]         # host-time metrics of this rep
    attempted: int
    failed: int
    violations: List[str]
    converge_host: List[float]     # host s of each quiesce point


def nearest_rank(samples: List[float], q: float) -> float:
    """Nearest-rank ``q`` percentile of ``samples`` (0.0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def percentile_metric(samples: List[float], q: float
                      ) -> Optional[Tuple[float, int]]:
    """Nearest-rank ``q`` percentile and its sample count, or ``None``
    when fewer than 10 samples lie beyond it."""
    n = len(samples)
    if n * (1.0 - q) < 10:
        return None
    return nearest_rank(samples, q), n


# -- set-up -------------------------------------------------------------------


def view_definition() -> ViewDefinition:
    """The view every workload reads: keyed on ``vk``, payload copied."""
    return ViewDefinition(VIEW, TABLE, KEY_COLUMN, (PAYLOAD,))


def initial_key(spec: Spec, row: int) -> str:
    if spec.groups:
        return f"g{row % spec.groups}"
    return f"k{row}.0"


def setup(spec: Spec, seed: int) -> Cluster:
    """Build the cluster, load ``spec.rows`` rows, drain propagation.

    Rows carry explicit timestamps 1..rows so the open-loop audit can
    replay them; the load writes every replica (W = N).
    """
    config = ClusterConfig(seed=seed, **BASE_CONFIG, **spec.overrides)
    cluster = Cluster(config)
    cluster.create_table(TABLE)
    cluster.create_view(view_definition())
    loader = cluster.client()
    env = cluster.env

    def load():
        for row in range(spec.rows):
            yield from loader.put(TABLE, row, {
                KEY_COLUMN: initial_key(spec, row),
                PAYLOAD: f"p{row}",
            }, config.replication_factor, row + 1)

    env.run(until=env.process(load(), name="bench-load-rows"))
    cluster.run_until_idle()
    return cluster


# -- convergence ------------------------------------------------------------------


@dataclass
class Phase:
    """Host and simulated time of the load and its quiesce points."""

    load_host: float = 0.0
    window_ms: float = 0.0
    converge_ms: List[float] = field(default_factory=list)
    converge_host: List[float] = field(default_factory=list)
    converged: bool = True


class _NoProbe:
    """Stand-in for the traced run's probe: observes nothing."""

    def start(self, cluster):
        pass

    def pause(self):
        pass

    def resume(self):
        pass

    def stop(self, counts):
        pass


def _converge(cluster, probe, phase: Phase, check: bool) -> None:
    """Run until outboxes and folded deltas drain and (with ``check``)
    the view agrees with the base table; records sim ms and host s.

    The loop advances one event time at a time.  Its host time is taken
    over the whole wait, less the introspective divergence checks (which
    also run outside the profiler): timing every step separately would
    put hundreds of clock reads into a millisecond-long wait.
    Once the pipeline has drained, only the scrubber changes the view,
    so divergence is re-checked only after a repair or a clean round.
    """
    env = cluster.env
    manager = cluster.view_manager
    scrubbers = cluster.scrubbers
    view = view_definition()
    started = env.now
    checks = 0.0
    mark = None
    t0 = time.process_time()
    while env.now - started < CONVERGE_CAP_MS:
        if manager.outbox_pending() == 0:
            progress = (sum(s.metrics.repairs_applied for s in scrubbers),
                        sum(s.metrics.clean_rounds for s in scrubbers))
            clean = not check
            if check and progress != mark:
                mark = progress
                probe.pause()
                c0 = time.process_time()
                clean = not divergent_base_keys(cluster, view)
                checks += time.process_time() - c0
                probe.resume()
            if clean:
                phase.converge_ms.append(env.now - started)
                phase.converge_host.append(time.process_time() - t0
                                           - checks)
                return
        nxt = env.peek()
        if nxt == math.inf:
            break
        env.run(until=nxt)
    phase.converged = False


# -- load phases ----------------------------------------------------------------


def _timed_run(cluster, until, phase: Phase) -> None:
    env = cluster.env
    started = env.now
    t0 = time.process_time()
    env.run(until=until)
    phase.load_host += time.process_time() - t0
    phase.window_ms += env.now - started


def _closed_loop(cluster, spec: Spec, rng, rec: Recorder, op_for,
                 probe, phase: Phase) -> None:
    """``spec.clients`` closed-loop clients issue ``spec.ops`` ops in
    ``spec.epochs`` equal epochs.  Each epoch ends at a quiesce point:
    the clients stop, the pipeline drains (untimed), every client issues
    one write, and the wait for convergence is measured from the last
    of those acknowledgements.  The drain first gives every point the
    same starting state, so the points are comparable samples.
    ``op_for(index, handle, client_rng, final)`` returns ``(kind,
    generator)`` for a client's next op; a ``final`` op must be a
    write."""
    env = cluster.env
    handles = [cluster.client() for _ in range(spec.clients)]
    if spec.sessions:
        for handle in handles:
            handle.begin_session()
    rngs = [random.Random(rng.getrandbits(64)) for _ in handles]
    issued = [0]

    def one_op(index: int, final: bool):
        rec.attempted += 1
        kind, op = op_for(index, handles[index], rngs[index], final)
        started = env.now
        try:
            yield from op
        except RETRIABLE:
            rec.failed += 1
            return
        if kind == "read":
            rec.reads.append(env.now - started)
        elif kind == "write":
            rec.writes.append(env.now - started)

    def client(index: int, target: int):
        while issued[0] < target:
            issued[0] += 1
            yield from one_op(index, False)

    def run_all(make) -> None:
        procs = [env.process(make(i), name=f"bench-client-{i}")
                 for i in range(spec.clients)]
        _timed_run(cluster, env.all_of(procs), phase)

    for epoch in range(spec.epochs):
        target = spec.ops * (epoch + 1) // spec.epochs - spec.clients
        run_all(lambda i: client(i, target))
        _settle(cluster)
        issued[0] += spec.clients
        run_all(lambda i: one_op(i, True))
        _converge(cluster, probe, phase, _check_at(spec, epoch))
        if not phase.converged:
            return


def _settle(cluster) -> None:
    """Step, untimed, until no propagation is pending."""
    env = cluster.env
    manager = cluster.view_manager
    while manager.outbox_pending() and env.peek() != math.inf:
        env.run(until=env.peek())


def _move(handle, row, keys, versions, timestamp=None):
    """Put a fresh view key on ``row``; returns it once acknowledged."""
    versions[row] += 1
    new_key = f"k{row}.{versions[row]}"
    yield from handle.put(TABLE, row, {KEY_COLUMN: new_key}, 1, timestamp)
    keys[row] = new_key
    return new_key


def load_read_mostly(cluster, spec, rng, rec, state, probe, phase):
    """90% view reads of the key last written for a uniform row, 5%
    base reads, 5% view-key moves."""
    keys, versions = state["keys"], state["versions"]

    def op_for(_index, handle, crng, final):
        row = crng.randrange(spec.rows)
        draw = 1.0 if final else crng.random()
        if draw < 0.90:
            rec.view_reads += 1
            return "read", handle.get_view(VIEW, keys[row], (PAYLOAD,))
        if draw < 0.95:
            return "base_read", handle.get(TABLE, row, (PAYLOAD,))
        return "write", _move(handle, row, keys, versions)

    _closed_loop(cluster, spec, rng, rec, op_for, probe, phase)


def load_write_churn(cluster, spec, rng, rec, state, probe, phase):
    """80% view-key moves, 20% session reads of the client's own last
    written view key; each read must see that write (Section V)."""
    keys, versions = state["keys"], state["versions"]
    newest: Dict[int, int] = {}        # row -> highest timestamp issued
    last: Dict[int, Tuple[int, str, int]] = {}

    def write(index, handle, row):
        ts = handle.oracle.next()
        newest[row] = max(ts, newest.get(row, 0))
        key = yield from _move(handle, row, keys, versions, ts)
        last[index] = (row, key, ts)

    def session_read(index, handle):
        row, key, ts = last[index]
        rec.view_reads += 1
        results = yield from handle.get_view(VIEW, key,
                                             (PAYLOAD, BASE_KEY_COLUMN))
        seen = any(res.base_key == row
                   and res.values[BASE_KEY_COLUMN][1] >= ts
                   for res in results)
        # A newer write to the row (any client) may have moved it on.
        if not seen and newest[row] <= ts:
            rec.violations.append(
                f"session read of {key!r} at {cluster.env.now:.3f} missed "
                f"the client's own write of row {row} (ts {ts})")

    def op_for(index, handle, crng, final):
        if index in last and not final and crng.random() < 0.20:
            return "read", session_read(index, handle)
        return "write", write(index, handle, crng.randrange(spec.rows))

    _closed_loop(cluster, spec, rng, rec, op_for, probe, phase)


def load_hot_lossy(cluster, spec, rng, rec, state, probe, phase):
    """Open loop: Poisson arrivals of Zipf view-key moves and bounded
    reads, coordinator crashes mid-propagation, scrubber running."""
    env = cluster.env
    config = cluster.config
    applied: List[BaseUpdate] = state["applied"]
    observations: List[BoundedReadObservation] = state["observations"]
    row_zipf = Zipf(spec.rows, spec.theta)
    group_zipf = Zipf(spec.groups, spec.theta)
    plan = ["w"] * (spec.ops // 2) + ["r"] * (spec.ops - spec.ops // 2)
    rng.shuffle(plan)
    handles = [cluster.client(coordinator_id=i) for i in range(config.nodes)]
    attempts = 12

    def write(step, due, row, group, ts):
        for attempt in range(attempts):
            handle = handles[(step + attempt) % config.nodes]
            try:
                yield from handle.put(TABLE, row, {KEY_COLUMN: group},
                                      spec.write_quorum, ts)
            except RETRIABLE:
                yield env.timeout(5.0)
                continue
            applied.append(BaseUpdate(row, KEY_COLUMN, group, ts,
                                      acked_at=env.now))
            rec.writes.append(env.now - due)
            return
        # Ambiguous: may have applied; never required, only an excuse.
        applied.append(BaseUpdate(row, KEY_COLUMN, group, ts,
                                  acked_at=math.inf))
        rec.failed += 1

    def read(step, due, group):
        for attempt in range(attempts):
            handle = handles[(step + attempt) % config.nodes]
            try:
                fresh = yield from handle.get_view_fresh(
                    VIEW, group, (PAYLOAD,), 1,
                    max_staleness_ms=spec.bound_ms)
            except RETRIABLE:
                yield env.timeout(5.0)
                continue
            rec.reads.append(env.now - due)
            cert = fresh.certificate
            observations.append(BoundedReadObservation(
                view_key=group, bound_ms=spec.bound_ms, as_of=cert.as_of,
                rows=tuple((res.base_key, dict(res.values))
                           for res in fresh.results),
                escalated=fresh.escalated, bound_met=bool(cert.bound_met),
                issued_at=env.now))
            return
        rec.failed += 1

    writes = [0]

    def arrivals(start: int, stop: int, ops: list):
        due = env.now
        for step in range(start, stop):
            due += rng.expovariate(spec.rate_per_ms)
            if env.now < due:
                yield env.timeout(due - env.now)
            rec.attempted += 1
            if plan[step] == "w":
                writes[0] += 1
                op = write(step, due, row_zipf.draw(rng),
                           f"g{rng.randrange(spec.groups)}",
                           spec.rows + writes[0])
            else:
                rec.view_reads += 1
                op = read(step, due, f"g{group_zipf.draw(rng)}")
            ops.append(env.process(op, name=f"bench-op-{step}"))

    # Epochs replay the arrival schedule in segments; the clock pauses
    # (no arrivals) while each quiesce point converges.
    for epoch in range(spec.epochs):
        start = spec.ops * epoch // spec.epochs
        stop = spec.ops * (epoch + 1) // spec.epochs
        ops: list = []
        _timed_run(cluster, env.process(arrivals(start, stop, ops),
                                        name="bench-arrivals"), phase)
        _timed_run(cluster, env.all_of(ops), phase)
        _converge(cluster, probe, phase, _check_at(spec, epoch))
        if not phase.converged:
            return


def _check_at(spec: Spec, epoch: int) -> bool:
    """Whether quiesce point ``epoch`` waits on the divergence check.

    Without a scrubber only propagation writes the view, and a drained
    pipeline leaves nothing to change it, so checking the last point is
    enough; with one, every point waits for the scrubber's repairs.
    """
    return bool(spec.scrub) or epoch == spec.epochs - 1


LOADS = {
    "read_mostly": load_read_mostly,
    "write_churn": load_write_churn,
    "hot_lossy": load_hot_lossy,
}


# -- one repetition ---------------------------------------------------------------


def _arm_faults(cluster, spec: Spec):
    """Crash every ``crash_stride``-th eager propagation's coordinator
    and start the scrubber, as the spec asks; returns both (or None)."""
    monkey = scrubber = None
    if spec.crash_stride:
        monkey = ChaosMonkey(cluster, auto=False)
        seen = [0]

        def every_stride(_view, _key, _base_ts) -> bool:
            seen[0] += 1
            return seen[0] % spec.crash_stride == 0

        # At most one propagation per op: ``ops`` never runs out.
        monkey.crash_during_propagation(count=spec.ops,
                                        downtime=CRASH_DOWNTIME_MS,
                                        match=every_stride)
    if spec.scrub:
        scrubber = cluster.start_scrubber([VIEW], **spec.scrub)
    return monkey, scrubber


def run_rep(spec: Spec, seed: int, probe=None, check: bool = True) -> Rep:
    """Set up, load, converge and (with ``check``) verify one cluster."""
    probe = probe or _NoProbe()
    gc.collect()
    t0 = time.process_time()
    cluster = setup(spec, seed)
    setup_s = time.process_time() - t0

    rng = random.Random(f"perfbench:{spec.name}:{seed}")
    state = {
        "keys": {row: initial_key(spec, row) for row in range(spec.rows)},
        "versions": {row: 0 for row in range(spec.rows)},
        "applied": [BaseUpdate(row, column, value, row + 1, acked_at=0.0)
                    for row in range(spec.rows)
                    for column, value in ((KEY_COLUMN, initial_key(spec, row)),
                                          (PAYLOAD, f"p{row}"))],
        "observations": [],
    }
    monkey, scrubber = _arm_faults(cluster, spec)
    rec = Recorder()
    phase = Phase()
    gc.collect()
    probe.start(cluster)
    LOADS[spec.name](cluster, spec, rng, rec, state, probe, phase)
    completed = rec.attempted - rec.failed
    counts = {"ops": completed, "view_reads": rec.view_reads,
              "writes": len(rec.writes)}
    probe.stop(counts)

    violations = list(rec.violations)
    if not phase.converged:
        violations.append("view did not converge within "
                          f"{CONVERGE_CAP_MS:.0f} sim-ms of the load's end")
    if scrubber is not None:
        scrubber.stop()
    if monkey is not None:
        monkey.stop()
    cluster.run_until_idle()
    if check:
        violations.extend(_final_checks(cluster, spec, state))

    sim: Dict[str, object] = {
        "sim_throughput_ops_s": completed / (phase.window_ms / 1000.0),
        "converge_ms": (statistics.median(phase.converge_ms)
                        if phase.converge_ms else math.nan),
        "converge_ms.samples": len(phase.converge_ms),
        "failed_op_ratio": rec.failed / rec.attempted,
        "load_window_ms": phase.window_ms,
        "ops_completed": completed,
    }
    for name, samples in (("read", rec.reads), ("write", rec.writes)):
        for q, label in ((0.50, "p50"), (0.99, "p99")):
            value = percentile_metric(samples, q)
            if value is not None:
                sim[f"{name}_{label}_ms"] = value[0]
                sim[f"{name}_{label}_ms.samples"] = value[1]
    host = {
        "sim_ops_per_host_s": completed / phase.load_host,
        "setup_s": setup_s,
        "window_host_s": phase.load_host + sum(phase.converge_host),
    }
    return Rep(sim=sim, host=host, attempted=rec.attempted,
               failed=rec.failed, violations=violations,
               converge_host=phase.converge_host)


def _final_checks(cluster, spec: Spec, state) -> List[str]:
    """Post-quiescence correctness: divergence, Definition 3, audit."""
    view = view_definition()
    failures = []
    divergent = divergent_base_keys(cluster, view)
    if divergent:
        failures.append(f"{len(divergent)} divergent base keys after "
                        f"convergence, e.g. {divergent[:3]!r}")
    structure = check_view(cluster, view)
    if structure:
        failures.append(f"check_view: {len(structure)} violations, e.g. "
                        f"{structure[:2]!r}")
    if spec.bound_ms:
        audit = _audit(view, state["observations"], state["applied"])
        if audit:
            failures.append(f"bounded-read audit: {len(audit)} violations, "
                            f"e.g. {audit[:2]!r}")
    return failures


def _audit(view, observations, applied) -> List[str]:
    """``check_bounded_reads``, one view key at a time.

    A read's verdict depends only on the base keys ever mapped to its
    view key and the keys it returned, so each view key's reads are
    audited against those keys' updates alone: the same verdicts, at a
    fraction of the all-keys cost.
    """
    reads: Dict[str, list] = {}
    for obs in observations:
        reads.setdefault(obs.view_key, []).append(obs)
    updates: Dict[int, list] = {}
    lived_in: Dict[str, set] = {}
    for update in applied:
        updates.setdefault(update.key, []).append(update)
        if update.column == KEY_COLUMN:
            lived_in.setdefault(update.value, set()).add(update.key)
    failures = []
    for view_key, group in reads.items():
        keys = lived_in.get(view_key, set()) | {
            key for obs in group for key, _values in obs.rows}
        subset = [u for key in keys for u in updates.get(key, ())]
        failures.extend(check_bounded_reads(view, group, subset))
    return failures
