"""View manager: Algorithm 1 orchestration and the view read path.

The manager owns the view registry and glues together everything a
coordinator needs when a base-table Put touches view-relevant columns
(paper Algorithm 1):

1. read the current view-key versions from the base row's replicas (all
   versions, not just the latest) — combined with the Put into one
   replica round trip when ``combined_get_then_put`` is enabled;
2. perform the base Put and acknowledge the client at W replicas;
3. append the update to its coordinator node's
   :class:`~repro.views.outbox.NodeOutbox`; per-node background
   consumer processes drain the log in batches, coalescing superseded
   same-``(view, key)`` updates on the way (see :mod:`repro.views.
   outbox` for the log format and coalescing rule), and drive
   ``PropagateUpdate`` (Algorithm 2), retrying over the collected
   guesses until one succeeds.  Session barriers use outbox offsets.

Concurrency control per Section IV-F is pluggable: a per-base-row lock
service (shared for materialized-column propagation, exclusive for
view-key propagation) or dedicated per-row propagators.  Locks are
released between retry rounds — holding them across a failed round would
block the very propagation that must run before the retry can succeed.
Retries back off exponentially (capped) with deterministic jitter so
contending propagations de-synchronize instead of colliding every round.

Coordinators bound their outstanding propagations
(``max_pending_propagations``); base Puts block when the backlog is full,
modelling the prototype's finite maintenance capacity.  The bound covers
queued plus in-flight records, and coalescing returns the superseded
record's slot immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.common.records import Cell, ColumnName
from repro.errors import (
    CoordinatorCrashError,
    NoSuchViewError,
    PropagationDeadlineError,
    PropagationError,
    QuorumError,
    SessionError,
    ViewDefinitionError,
    ViewExistsError,
)
from repro.freshness.certificate import FreshnessTracker
from repro.freshness.read import fresh_view_get
from repro.freshness.slo import FreshnessSLO
from repro.views import read as view_read
from repro.views.definition import ViewDefinition
from repro.views.locks import LockService
from repro.views.maintenance import ViewKeyGuess, ViewMaintainer
from repro.views.outbox import NodeOutbox
from repro.views.propagators import PropagatorPool
from repro.views.session import SessionManager
from repro.views.skew import SkewService

__all__ = ["BackfillReport", "ViewManager"]

# One round trip to the lock service per acquire/release (ms).
LOCK_SERVICE_LATENCY_MS = 0.05
# Consumer processes per node outbox, and the most records one consumer
# claims per wakeup.
OUTBOX_CONSUMERS = 2
OUTBOX_BATCH_SIZE = 8
# Backoff between Algorithm 1 retry rounds (ms): exponential from
# RETRY_BACKOFF_MS, doubling per round up to RETRY_BACKOFF_CAP_MS.
RETRY_BACKOFF_MS = 0.5
RETRY_BACKOFF_CAP_MS = 8.0

# How a claimed record that failed for good is accounted, most specific
# exception first: counters bumped, wound provenance, trace message.  A
# crash loses the claimed work (at-most-once); a deadline returns the
# backpressure token instead of spinning out the round budget (the
# hot-chain livelock mitigation); exhausted retries mean no guess ever
# became a valid chain entry point.  Either way the row has diverged
# and the scrubber (repro.repair) heals it.
_FAILED_OUTCOMES = (
    (CoordinatorCrashError, ("lost_propagations",), "crash-lost",
     "lost to coordinator crash"),
    (PropagationDeadlineError,
     ("abandoned_propagations", "deadline_abandoned_propagations"),
     "deadline-abandoned", "abandoned by deadline"),
    (PropagationError, ("abandoned_propagations",), "retries-abandoned",
     "abandoned after retries"),
)


@dataclass
class BackfillReport:
    """Outcome of :meth:`ViewManager.backfill`.

    ``skipped`` lists base keys that could not be loaded because no
    replica of the row was reachable (all down, or quorum reads timed
    out) — callers re-run backfill for them, or leave them to the
    background scrubber (:mod:`repro.repair`).
    """

    loaded: int = 0
    batches: int = 0
    skipped: Tuple[Hashable, ...] = ()


class ViewManager:
    """Registry plus maintenance/read orchestration for one cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        self.config = cluster.config
        self.maintainer = ViewMaintainer(cluster)
        self.sessions = SessionManager(cluster.env)
        self.locks = LockService(cluster.env,
                                 latency=LOCK_SERVICE_LATENCY_MS)
        self.propagators = (PropagatorPool(cluster)
                            if self.config.propagation_concurrency
                            == "propagators" else None)
        self._rng = cluster.streams.stream("view-propagation")
        self._views: Dict[str, ViewDefinition] = {}
        self._joins: Dict[str, "JoinViewDefinition"] = {}
        self._by_table: Dict[str, List[ViewDefinition]] = {}
        self._outboxes: Dict[int, NodeOutbox] = {}
        # Observability.
        self.completed_propagations = 0
        self.lost_propagations = 0
        self.abandoned_propagations = 0
        self.deadline_abandoned_propagations = 0
        self.folded_propagations = 0
        self.read_stats = view_read.ViewReadStats()
        # Fault-injection hooks (ChaosMonkey.crash_during_propagation):
        # consulted once per consumed record, after the scheduling delay
        # but before Algorithm 2 runs; a hook returning True crashes the
        # coordinator, losing the propagation.
        self._crash_hooks: List[Callable] = []
        # One log per node, drained by its own consumer pool.  Idle
        # consumers block on unscheduled events, so they never keep
        # run_until_idle() alive.
        for node in cluster.nodes:
            outbox = NodeOutbox(
                self.env, node.node_id,
                capacity=self.config.max_pending_propagations)
            self._outboxes[node.node_id] = outbox
            for index in range(OUTBOX_CONSUMERS):
                self.env.process(
                    self._consume_outbox(outbox),
                    name=f"outbox-consumer:{node.node_id}:{index}")
        # Skew-adaptive maintenance + hot-view cache (repro.views.skew);
        # inert (no processes, no cache) unless configured on.
        self.skew = SkewService(self)
        if self.skew.cache.enabled:
            self.maintainer.on_view_write = self.skew.cache.invalidate
        # Freshness subsystem (repro.freshness): staleness certificates
        # derived from outbox/fold/wound metadata, plus the SLO
        # accounting for bounded-staleness reads.
        self.freshness = FreshnessTracker(self)
        self.freshness_slo = FreshnessSLO()

    # -- registry -----------------------------------------------------------

    def register(self, definition: ViewDefinition) -> None:
        """Register a view and create its backing table."""
        if definition.name in self._views:
            raise ViewExistsError(definition.name)
        if definition.base_table in self._views:
            raise ViewDefinitionError(
                f"base table {definition.base_table!r} is itself a view; "
                "views on views are not supported")
        if not self.cluster.has_table(definition.base_table):
            raise ViewDefinitionError(
                f"base table {definition.base_table!r} does not exist")
        if self.cluster.has_table(definition.name):
            raise ViewDefinitionError(
                f"a table named {definition.name!r} already exists")
        self.cluster.create_table(definition.name)
        self._views[definition.name] = definition
        self._by_table.setdefault(definition.base_table, []).append(definition)

    def view(self, name: str) -> ViewDefinition:
        """Look up a registered view by name."""
        try:
            return self._views[name]
        except KeyError:
            raise NoSuchViewError(name) from None

    def is_view(self, name: str) -> bool:
        """True if ``name`` is a registered view."""
        return name in self._views

    def view_names(self) -> List[str]:
        """All registered view names."""
        return list(self._views)

    def views_on(self, table: str) -> List[ViewDefinition]:
        """The views defined on ``table``."""
        return list(self._by_table.get(table, ()))

    # -- equi-join views (Section III extension) ---------------------------------

    def register_join(self, definition) -> None:
        """Register an equi-join view (two projection child views)."""
        if definition.name in self._joins or definition.name in self._views:
            raise ViewExistsError(definition.name)
        left, right = definition.child_definitions()
        self.register(left)
        self.register(right)
        self._joins[definition.name] = definition

    def join_view(self, name: str):
        """Look up a registered join view by name."""
        try:
            return self._joins[name]
        except KeyError:
            raise NoSuchViewError(name) from None

    def join_get(self, coordinator, join_name: str, join_key,
                 left_columns: Tuple[ColumnName, ...],
                 right_columns: Tuple[ColumnName, ...], r: int,
                 session=None):
        """Read matched pairs of a join view for one join-key value.

        Two single-partition view Gets (both child views are keyed by
        the join key) plus in-coordinator pairing — the PNUTS locality
        property for remote view tables.
        """
        from repro.views.joins import pair_results

        definition = self.join_view(join_name)
        left_rows = yield from self.view_get(
            coordinator, definition.left_view_name, join_key,
            tuple(left_columns), r, session=session)
        right_rows = yield from self.view_get(
            coordinator, definition.right_view_name, join_key,
            tuple(right_columns), r, session=session)
        return pair_results(join_key, left_rows, right_rows)

    def views_affected(self, table: str, cells: Dict[ColumnName, Any]) -> bool:
        """True if a Put touching ``cells`` requires any propagation."""
        return any(view.affects(cells) for view in self.views_on(table))

    # -- Algorithm 1: base Put with update propagation ------------------------

    def base_put(self, coordinator, table: str, key: Hashable,
                 cells: Dict[ColumnName, Cell], w: int, session=None):
        """Put with propagation; returns after W base-replica acks.

        Propagation to each affected view continues asynchronously; with
        ``session`` the outbox offsets are registered for the Section V
        guarantee.
        """
        affected = [view for view in self.views_on(table)
                    if view.affects(cells)]
        if not affected:
            yield from coordinator.put(table, key, cells, w)
            return

        yield coordinator.node.charge_cpu(self.config.service.coordinator)
        read_columns = tuple(dict.fromkeys(
            view.view_key_column for view in affected))

        if self.config.combined_get_then_put:
            # Single round trip: each replica reads its pre-update view
            # keys and applies the write atomically.
            collector = coordinator.scatter_get_then_put(
                table, key, cells, read_columns, w)
            yield collector.wait(w)

            def extract(response, column):
                return response.pre_cells.get(column)
        else:
            # The prototype's two-step path (Alg. 1 lines 2-3): Get the
            # current view keys, then Put.
            collector = coordinator.scatter_read(table, key, read_columns, w)
            yield collector.wait(w)
            put_collector = coordinator.scatter_write(table, key, cells, w)
            yield put_collector.wait(w)

            def extract(response, column):
                return response.cells.get(column)

        base_ts = max(cell.timestamp for cell in cells.values())
        self.cluster.trace("base_put", "acked; scheduling propagation",
                           table=table, key=key, ts=base_ts,
                           views=[view.name for view in affected])
        outbox = self._outboxes[coordinator.node.node_id]
        for view in affected:
            # Back-pressure: block the Put while the node's outbox
            # (queued + in-flight records) is full.
            yield outbox.backpressure.acquire()
            # The completion event resolves when the record's
            # propagation does; session barriers use the outbox
            # offset instead, so nobody is obligated to consume it.
            completion = self.env.event().defuse()
            before = outbox.coalesced
            record = outbox.append(
                view, table, key, self._update_values(view, cells),
                base_ts, (collector, extract), completion)
            if outbox.coalesced != before:
                self.cluster.trace(
                    "outbox", "coalesced superseded update",
                    view=view.name, key=key, seq=record.seq)
            if session is not None:
                self.sessions.register_offset(session, view.name,
                                              outbox, record.seq)

    # -- fault injection -----------------------------------------------------

    def add_crash_hook(self, hook: Callable) -> None:
        """Arm ``hook(coordinator, view, base_key, base_ts) -> bool``.

        Consulted once per asynchronous propagation — by the outbox
        consumer after it has claimed the record, once the view-key
        collection settles and the scheduling delay elapses but before
        Algorithm 2 runs.  That is the window
        in which a real coordinator crash silently loses the
        propagation: the record is already out of the log, the view not
        yet written.  A hook returning True raises
        :class:`~repro.errors.CoordinatorCrashError` there, which counts
        the propagation as lost (``lost_propagations``) instead of
        escalating.
        """
        self._crash_hooks.append(hook)

    def remove_crash_hook(self, hook: Callable) -> None:
        """Disarm a hook registered with :meth:`add_crash_hook`."""
        try:
            self._crash_hooks.remove(hook)
        except ValueError:
            pass

    def _maybe_crash(self, coordinator, view: ViewDefinition,
                     key: Hashable, base_ts: int) -> None:
        for hook in list(self._crash_hooks):
            if hook(coordinator, view, key, base_ts):
                raise CoordinatorCrashError(
                    f"coordinator {coordinator.node.node_id} crashed before "
                    f"propagating base key {key!r} (ts {base_ts}) to view "
                    f"{view.name!r}")

    # -- outbox pipeline ----------------------------------------------------

    @staticmethod
    def _update_values(view: ViewDefinition,
                       cells: Dict[ColumnName, Cell]) -> Dict[ColumnName, Any]:
        """A Put's watched columns as raw values (None for tombstones)."""
        return {
            column: (None if cell.tombstone else cell.value)
            for column, cell in cells.items()
            if column in view.watched_columns
        }

    def _consume_outbox(self, outbox: NodeOutbox):
        """One background consumer: drain the node's log in batches."""
        while True:
            batch = yield from outbox.next_batch(OUTBOX_BATCH_SIZE)
            for record in batch:
                yield from self._process_record(outbox, record)

    def _process_record(self, outbox: NodeOutbox, record):
        """Propagate one claimed outbox record (Algorithm 1 lines 4-7)."""
        view, key, base_ts = record.view, record.key, record.base_ts
        try:
            # Gather guesses from every source round trip (Alg. 1:
            # propagation starts only after the Get has heard from all
            # copies of the base row, or timed out).  A coalesced record
            # carries its riders' sources too, widening the guess set.
            gathered = []
            for collector, extract in record.sources:
                responses = yield collector.settled
                gathered.append((responses, extract))
            # Heavy/light fork (repro.views.skew): records for heavy
            # chains fold into a per-chain delta — no scheduling delay,
            # no locks, no chain walk — and resolve immediately, so the
            # backpressure token returns at once.  The fold invalidates
            # the hot-view cache for every key the record could move
            # before resolving, keeping session barriers honest.
            if self.skew.should_fold(outbox.node_id, view, key):
                self.skew.fold(outbox.node_id, record, gathered)
                self.folded_propagations += 1
                self.cluster.trace("propagation", "folded into skew delta",
                                   view=view.name, key=key, ts=base_ts)
                record.resolve()
                return
            # Scheduling delay: maintenance work queues behind other
            # maintenance work.
            yield self.env.timeout(
                self.config.propagation_delay.sample(self._rng))
            coordinator = self.cluster.coordinator(outbox.node_id)
            self._maybe_crash(coordinator, view, key, base_ts)

            guesses = self._guesses(view, gathered)
            origin = record.appended_at
            self.freshness.eager_begin(view.name, key, outbox.node_id,
                                       origin, base_ts)
            success = False
            try:
                yield from self._propagate_with_retries(
                    coordinator, view, record.table, key, guesses,
                    record.update_values, base_ts, started_at=origin)
                success = True
            finally:
                self.freshness.eager_end(view.name, key, outbox.node_id,
                                         origin, base_ts, success)
            self.completed_propagations += 1
            self.cluster.trace("propagation", "completed", view=view.name,
                               key=key, ts=base_ts)
            record.resolve()
        except (CoordinatorCrashError, PropagationError) as exc:
            counters, provenance, message = next(
                outcome for error, *outcome in _FAILED_OUTCOMES
                if isinstance(exc, error))
            for counter in counters:
                setattr(self, counter, getattr(self, counter) + 1)
            self.freshness.note_wound(view.name, key, record.appended_at,
                                      provenance)
            self.cluster.trace("propagation", message, view=view.name,
                               key=key, ts=base_ts)
            record.resolve(exc)
        except Exception as exc:
            record.resolve(exc)
            raise
        finally:
            outbox.done(record)
            outbox.backpressure.release()

    def outbox_pending(self, view_name: Optional[str] = None) -> int:
        """Unresolved outbox records, optionally for one view only.

        The scrubber consults this to defer digest comparison while
        propagation is merely behind (backlog, not divergence) — folded
        deltas awaiting a flush count as backlog too: lazy maintenance
        is lag, never divergence."""
        if view_name is None:
            return (sum(outbox.depth for outbox in self._outboxes.values())
                    + self.skew.pending_chains())
        return (sum(outbox.pending_for(view_name)
                    for outbox in self._outboxes.values())
                + self.skew.pending_chains(view_name))

    def outbox_stats(self, hot_key_count: int = 5) -> Dict[str, Any]:
        """Queue depth / lag / coalescing counters across node outboxes.

        ``hot_keys`` ranks the most-appended (view, base key) chains —
        the producer-side ground truth for auditing the skew tracker's
        heavy/light classification."""
        appended = sum(o.appended for o in self._outboxes.values())
        coalesced = sum(o.coalesced for o in self._outboxes.values())
        hot: Dict[Tuple[str, Hashable], int] = {}
        for o in self._outboxes.values():
            for chain, count in o.chain_appends.items():
                hot[chain] = hot.get(chain, 0) + count
        ranked = sorted(hot.items(),
                        key=lambda item: (-item[1], repr(item[0])))
        return {
            "appended": appended,
            "coalesced": coalesced,
            "coalesce_ratio": (coalesced / appended) if appended else 0.0,
            "depth": sum(o.depth for o in self._outboxes.values()),
            "max_depth": max(
                (o.max_depth for o in self._outboxes.values()), default=0),
            "lag": sum(o.lag for o in self._outboxes.values()),
            "folded": self.folded_propagations,
            "hot_keys": [
                {"view": chain[0], "key": chain[1], "appends": count}
                for chain, count in ranked[:hot_key_count]
            ],
            "per_node": {
                node_id: {
                    "appended": o.appended,
                    "coalesced": o.coalesced,
                    "depth": o.depth,
                    "max_depth": o.max_depth,
                    "low_watermark": o.low_watermark,
                    "lag": o.lag,
                }
                for node_id, o in sorted(self._outboxes.items())
            },
        }

    def skew_stats(self) -> Dict[str, Any]:
        """Heavy/light maintenance and hot-view cache counters."""
        stats = self.skew.stats()
        stats["folded_propagations"] = self.folded_propagations
        return stats

    @staticmethod
    def _merge_guesses(guesses) -> List[ViewKeyGuess]:
        """Distinct view-key guesses, most recent timestamp first.

        Deduplicates by key, keeping the max timestamp and preserving
        the pristine-NULL property: if ANY replica reported the view key
        as never-written, the NULL guess keeps its virtual-anchor
        fallback even when another replica already shows this update's
        own tombstone."""
        seen: Dict[Any, ViewKeyGuess] = {}
        for guess in guesses:
            existing = seen.get(guess.key)
            if existing is None:
                seen[guess.key] = guess
            else:
                seen[guess.key] = ViewKeyGuess(
                    guess.key,
                    max(existing.timestamp, guess.timestamp),
                    existing.allow_virtual or guess.allow_virtual)
        return sorted(seen.values(), key=lambda g: g.timestamp, reverse=True)

    def _guesses(self, view: ViewDefinition, gathered) -> List[ViewKeyGuess]:
        """Guesses from settled ``(responses, extract)`` round trips."""
        column = view.view_key_column
        return self._merge_guesses(
            ViewKeyGuess.from_cell(view, extract(response, column))
            for responses, extract in gathered for response in responses)

    def _propagate_with_retries(self, coordinator, view: ViewDefinition,
                                table: str, key: Hashable,
                                guesses: List[ViewKeyGuess],
                                update_values: Dict[ColumnName, Any],
                                base_ts: int,
                                started_at: Optional[float] = None):
        """Algorithm 1 lines 5-7: retry guesses until one propagates.

        ``started_at`` is when the update entered the pipeline; with
        ``propagation_deadline_ms`` configured, retrying past the
        deadline raises :class:`PropagationDeadlineError` (the first
        attempt always runs, even for a record consumed late).
        """
        exclusive = view.view_key_column in update_values
        mode = self.config.propagation_concurrency
        deadline = self.config.propagation_deadline_ms
        rounds = 0
        while True:
            rounds += 1
            if rounds > self.config.propagation_max_rounds:
                raise PropagationError(
                    f"update for base key {key!r} could not be propagated "
                    f"to view {view.name!r} after {rounds - 1} rounds")
            if (deadline > 0 and started_at is not None and rounds > 1
                    and self.env.now - started_at >= deadline):
                raise PropagationDeadlineError(
                    f"update for base key {key!r} exceeded the "
                    f"{deadline:g} ms propagation deadline for view "
                    f"{view.name!r} (age {self.env.now - started_at:.1f} ms "
                    f"after {rounds - 1} rounds)")
            if mode == "locks":
                yield from self.locks.acquire(view.name, key, exclusive)
                try:
                    success = yield from self._attempt_round(
                        coordinator, view, key, guesses, update_values,
                        base_ts)
                finally:
                    self.locks.release(view.name, key, exclusive)
            elif mode == "propagators":
                def job(propagation_coordinator):
                    return self._attempt_round(
                        propagation_coordinator, view, key, guesses,
                        update_values, base_ts)

                success = yield self.propagators.submit(
                    coordinator.node.node_id, view.name, key, job)
            else:
                success = yield from self._attempt_round(
                    coordinator, view, key, guesses, update_values, base_ts)
            if success:
                return
            self.maintainer.metrics.retry_rounds += 1
            self.cluster.trace("propagation", "round failed; backing off",
                               view=view.name, key=key, round=rounds)
            yield self.env.timeout(self._retry_delay(rounds))
            if rounds % 4 == 0:
                # Refresh guesses from the base replicas: slow peers may
                # have propagated by now, giving us a valid entry point.
                fresh = yield from self._refresh_guesses(
                    coordinator, view, table, key)
                guesses[:] = self._merge_guesses((*guesses, *fresh))

    def _retry_delay(self, rounds: int) -> float:
        """Backoff before retry round ``rounds + 1``: exponential from
        ``RETRY_BACKOFF_MS``, capped at ``RETRY_BACKOFF_CAP_MS``,
        jittered into ``[d/2, d)`` by the deterministic sim RNG.  A
        fixed interval would retry every contending propagation in
        lockstep, re-colliding on the same lock/chain state each round;
        the jitter spreads the wakeups."""
        delay = min(RETRY_BACKOFF_MS * (2.0 ** (rounds - 1)),
                    RETRY_BACKOFF_CAP_MS)
        return delay * (0.5 + 0.5 * self._rng.random())

    def _attempt_round(self, coordinator, view: ViewDefinition,
                       key: Hashable, guesses: List[ViewKeyGuess],
                       update_values: Dict[ColumnName, Any], base_ts: int):
        """Try each guess once; True on success.

        ``PropagationError`` means the guess is not (yet) a valid chain
        entry point; ``QuorumError`` means a transient replica shortfall
        (loss, timeout) during an internal view Get/Put.  Both cases are
        retried on a later round — Algorithm 2's writes are idempotent,
        so re-running a partially applied propagation is safe.
        """
        for guess in guesses:
            try:
                yield from self.maintainer.propagate_update(
                    coordinator, view, key, guess, update_values, base_ts)
                return True
            except (PropagationError, QuorumError):
                continue
        return False

    def _refresh_guesses(self, coordinator, view: ViewDefinition,
                         table: str, key: Hashable):
        collector = coordinator.scatter_read(
            table, key, (view.view_key_column,), 1)
        responses = yield collector.settled
        fresh: List[ViewKeyGuess] = []
        for response in responses:
            cell = response.cells.get(view.view_key_column)
            fresh.append(ViewKeyGuess.from_cell(view, cell))
        return fresh

    # -- view reads (Algorithm 4 + Section V) ---------------------------------------

    def view_get(self, coordinator, view_name: str, view_key: Any,
                 columns: Tuple[ColumnName, ...], r: int, session=None):
        """Read live rows for ``view_key``; blocks on session barriers."""
        view = self.view(view_name)
        yield from self._read_barrier(coordinator, view, view_key, session)
        results = yield from self._view_get_inner(coordinator, view,
                                                  view_key, columns, r)
        return results

    def view_get_fresh(self, coordinator, view_name: str, view_key: Any,
                       columns: Tuple[ColumnName, ...], r: int,
                       max_staleness_ms: Optional[float] = None,
                       session=None):
        """Bounded-staleness view read (repro.freshness).

        Returns a :class:`~repro.freshness.read.FreshViewRead`: the live
        rows plus the staleness certificate they were served under.
        With ``max_staleness_ms`` set, a certificate over the bound
        escalates to a base-table compensation read for the lagging
        keys; ``None`` attaches the certificate without ever escalating.
        """
        result = yield from fresh_view_get(
            self, coordinator, view_name, view_key, tuple(columns), r,
            max_staleness_ms, session)
        return result

    def _read_barrier(self, coordinator, view: ViewDefinition, view_key: Any,
                      session) -> Any:
        """Session barrier + lazy-delta flush preceding any view read."""
        if session is not None:
            if session.coordinator_id != coordinator.node.node_id:
                raise SessionError(
                    "session guarantee requires all requests to use the "
                    "session's coordinator "
                    f"(session: {session.coordinator_id}, "
                    f"request: {coordinator.node.node_id})")
            pending = session.pending_barriers(view.name)
            if pending:
                self.cluster.trace("session", "view Get blocking",
                                   view=view.name,
                                   session=session.session_id,
                                   pending=pending)
            yield from self.sessions.barrier(session, view.name)
        # Merge-on-read: lazy (heavy-key) deltas that could hide this
        # view key's live rows must materialize before the read — the
        # session barrier above only waited for records to *resolve*,
        # which for a folded record happens at fold time.
        yield from self.skew.flush_for_read(coordinator, view, view_key)

    def _view_get_inner(self, coordinator, view: ViewDefinition,
                        view_key: Any, columns: Tuple[ColumnName, ...],
                        r: int):
        """The cache + Algorithm 4 core, after barriers have run."""
        yield coordinator.node.charge_cpu(self.config.service.coordinator)
        cache = self.skew.cache
        if cache.enabled:
            cached = cache.lookup(view.name, view_key, columns, r)
            if cached is not None:
                return cached
            token = cache.version(view.name, view_key)
        results = yield from view_read.view_get(
            self.env, coordinator, view, view_key, columns, r,
            stats=self.read_stats)
        if cache.enabled:
            # Read-through populate, guarded by the version token: a
            # propagation that invalidated this key while our quorum
            # read was in flight wins — the stale result is not stored.
            cache.store(view.name, view_key, columns, r, token, results)
        return results

    def freshness_stats(self) -> Dict[str, Any]:
        """Freshness tracker + SLO + read-path counters."""
        stats = self.freshness.stats()
        stats["slo"] = self.freshness_slo.stats()
        stats["init_spins"] = self.read_stats.init_spins
        stats["init_timeouts"] = self.read_stats.init_timeouts
        stats["deadline_abandoned"] = self.deadline_abandoned_propagations
        return stats

    # -- backfill (views defined over populated tables) --------------------------------

    def backfill(self, view_name: str, coordinator_id: int = 0,
                 batch_size: int = 64, batch_pause: float = 0.0):
        """Build a view's contents from existing base rows; a process.

        Registering a view over a populated base table requires an
        initial load (the paper assumes views start correctly
        initialized).  Each base row's current view-key and materialized
        cells are propagated through the normal maintenance machinery
        (:func:`~repro.repair.repairer.repropagate_row` — backfill is a
        repair of every row against an empty view), so the resulting
        versioned view is exactly what incremental maintenance would
        have produced.

        The scan is incremental: rows are loaded in ``batch_size``
        batches with a ``batch_pause`` yield between them, so concurrent
        traffic interleaves instead of stalling behind one monolithic
        scan.  Returns a :class:`BackfillReport`; keys whose replicas
        were all unreachable are reported in ``skipped`` rather than
        silently dropped.
        """
        from repro.repair.repairer import repropagate_row  # late: no cycle

        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_pause < 0:
            raise ValueError("batch_pause must be non-negative")
        view = self.view(view_name)
        coordinator = self.cluster.coordinator(coordinator_id)
        ordered = sorted(self.cluster.alive_keys(view.base_table), key=repr)
        report = BackfillReport()
        skipped: List[Hashable] = []
        full = min(self.config.replication_factor, self.config.nodes)
        for start in range(0, len(ordered), batch_size):
            if start:
                # Yield between batches: lets queued traffic run even at
                # a zero pause (same-instant events fire FIFO).
                yield self.env.timeout(batch_pause)
            report.batches += 1
            for key in ordered[start:start + batch_size]:
                replicas = self.cluster.replicas_for(view.base_table, key)
                alive = sum(1 for replica in replicas if not replica.is_down)
                if alive == 0:
                    skipped.append(key)
                    continue
                try:
                    # Read every reachable replica: backfill wants the
                    # freshest base state it can see.
                    loaded = yield from repropagate_row(
                        self, coordinator, view, key, r=min(full, alive))
                except QuorumError:
                    skipped.append(key)
                    continue
                if loaded:
                    report.loaded += 1
        report.skipped = tuple(skipped)
        self.cluster.trace("backfill", "completed", view=view_name,
                           loaded=report.loaded, batches=report.batches,
                           skipped=len(report.skipped))
        return report
