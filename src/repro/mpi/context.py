"""Shared state of a simulated SPMD world.

A :class:`SpmdContext` owns the mailboxes through which the ranks of a
world exchange messages, the coordination structures backing collective
setup operations (communicator split), and an abort flag so one rank's
exception unblocks everyone instead of deadlocking the world.

Messages are addressed by ``(comm_id, destination world rank)`` and
matched on ``(source comm rank, tag)``, giving each (sub)communicator an
isolated message space with MPI's per-channel FIFO ordering guarantee.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import CommunicatorError, RankFailedError, WorldAbortedError
from .costmodel import CostModel
from .tuning import CollectiveTuning

__all__ = ["SpmdContext", "Envelope"]

# Default seconds a blocking receive waits before declaring deadlock.
# Functional tests run in milliseconds; a stuck match is a bug, not load.
DEFAULT_RECV_TIMEOUT = 120.0


@dataclass
class Envelope:
    """A message in flight: payload plus logical-clock send timestamp.

    ``moved`` records whether the payload was transferred by reference
    (zero-copy move semantics) rather than snapshotted; moved ndarray
    payloads are frozen (read-only) so sender-side reuse cannot race
    the receiver.  ``nbytes`` carries the sender's modeled wire size so
    receive-side tallies never re-measure the payload.

    ``seq`` and ``checksum`` are populated only under a
    :class:`~repro.faults.Resilience` configuration: ``seq`` is the
    sender's per-(destination, tag) sequence number (receivers discard
    duplicates), ``checksum`` the payload digest receivers verify to
    detect injected bit corruption and wait for the retransmission.
    """

    payload: Any
    send_time: float
    moved: bool = False
    nbytes: int = 0
    # Sender provenance (a repro.sanitize MoveOrigin / call-site record),
    # populated only when a Sanitizer is attached to the world.
    origin: Any = None
    seq: int | None = None
    checksum: int | None = None


def _wait(cond: threading.Condition, attempt: Callable[[], Any],
          poll: Callable[[], None], timeout: float, interval: float,
          expired: Callable[[], Exception]) -> Any:
    """The one blocked wait of the runtime (receives and rendezvous).

    Each pass runs ``poll()`` *outside* ``cond`` — it may raise to abort
    the wait, and may inspect other mailboxes or tables, so it must not
    run under any of their locks — then ``attempt()`` under ``cond``,
    returning its first non-None result.  Between passes the wait
    sleeps at most ``interval`` seconds, or until ``cond`` is notified
    (a delivery, a rendezvous freeze, or a world state change); once
    ``timeout`` seconds have passed it raises ``expired()``.
    """
    deadline = time.monotonic() + timeout
    while True:
        poll()
        with cond:
            result = attempt()
            if result is not None:
                return result
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise expired()
            cond.wait(timeout=min(interval, remaining))


class _Mailbox:
    """Per-(comm, destination-rank) mailbox with blocking matched receive."""

    def __init__(self, abort_event: threading.Event) -> None:
        self._cond = threading.Condition()
        self._queues: dict[tuple[int, int], deque[Envelope]] = defaultdict(deque)
        self._abort = abort_event

    def put(self, source: int, tag: int, envelope: Envelope) -> None:
        with self._cond:
            self._queues[(source, tag)].append(envelope)
            self._cond.notify_all()

    def get(self, source: int, tag: int, timeout: float,
            poll: Callable[[], None], interval: float) -> Envelope:
        """Blocking matched receive; ``poll`` runs as in :func:`_wait`."""

        def attempt() -> Envelope | None:
            q = self._queues.get((source, tag))
            if q:
                return q.popleft()
            if self._abort.is_set():
                raise WorldAbortedError("SPMD world aborted while receiving")
            return None

        return _wait(self._cond, attempt, poll, timeout, interval, lambda: (
            CommunicatorError(
                f"receive timed out after {timeout}s waiting for "
                f"(source={source}, tag={tag}) — likely deadlock"
            )
        ))

    def has(self, source: int, tag: int) -> bool:
        """True when a matched message is queued (no dequeue)."""
        with self._cond:
            q = self._queues.get((source, tag))
            return bool(q)

    def pending(self) -> dict[tuple[int, int], int]:
        """Snapshot of queued message counts per (source, tag)."""
        with self._cond:
            return {k: len(q) for k, q in self._queues.items() if q}

    def pending_envelopes(self) -> dict[tuple[int, int], list[Envelope]]:
        """Snapshot of the queued envelopes per (source, tag)."""
        with self._cond:
            return {k: list(q) for k, q in self._queues.items() if q}

    def try_get(self, source: int, tag: int) -> Envelope | None:
        """Non-blocking matched receive; None when no message is ready."""
        with self._cond:
            if self._abort.is_set():
                raise WorldAbortedError("SPMD world aborted while receiving")
            q = self._queues.get((source, tag))
            if q:
                return q.popleft()
            return None

    def wake_all(self) -> None:
        with self._cond:
            self._cond.notify_all()


class _Rendezvous:
    """One round of a collective setup op: split/dup, shrink or replace.

    Every member contributes one value under ``cond``; the op's freeze
    rule publishes ``result`` once the round is complete.  ``respawns``
    counts, for a replace round, the respawns issued per world rank
    (capped by the context so a rank that dies instantly forever cannot
    spin).
    """

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.contributions: dict[int, Any] = {}
        self.result: Any = None
        self.respawns: dict[int, int] = {}

    def contributed(self) -> set[int]:
        with self.cond:
            return set(self.contributions)


class SpmdContext:
    """All shared state for one simulated world of ``world_size`` ranks."""

    def __init__(
        self,
        world_size: int,
        *,
        cost_model: CostModel | None = None,
        recv_timeout: float = DEFAULT_RECV_TIMEOUT,
        comm_trace=None,
        tuning: CollectiveTuning | None = None,
        tracer=None,
        sanitizer=None,
        faults=None,
        resilience=None,
        transport=None,
        recorder=None,
        telemetry=None,
    ) -> None:
        if world_size <= 0:
            raise CommunicatorError("world size must be positive")
        if transport is None:
            from .transport.threads import ThreadTransport

            transport = ThreadTransport()
        self.transport = transport
        self.world_size = world_size
        self.cost_model = cost_model
        self.recv_timeout = recv_timeout
        self.comm_trace = comm_trace
        self.tracer = tracer  # repro.obs.Tracer bound per rank thread
        self.sanitizer = sanitizer  # repro.sanitize.Sanitizer, or None
        self.faults = faults  # repro.faults.FaultInjector, or None
        self.resilience = resilience  # repro.faults.Resilience, or None
        self.recorder = recorder  # repro.obs.FlightRecorder, or None
        self.telemetry = telemetry  # repro.obs.TelemetryHub, or None
        # Sanitizer deadlock report (wait-for-graph edges + open spans),
        # stored by the watchdog just before it aborts the world so the
        # postmortem bundle can carry it.
        self.last_deadlock: dict | None = None
        self.tuning = tuning if tuning is not None else CollectiveTuning()
        self.abort_event = threading.Event()
        self.abort_reason: str | None = None
        self._mailboxes: dict[tuple[int, int], _Mailbox] = {}
        self._mailbox_lock = threading.Lock()
        self._comm_id_counter = itertools.count(1)
        self._comm_id_lock = threading.Lock()
        self._last_comm_id = 0
        # Rendezvous rounds of split/dup, shrink and replace, keyed by
        # (op, parent comm id, op sequence number) — (op, round) for
        # replace.
        self._rendezvous: dict[tuple, _Rendezvous] = {}
        self._rendezvous_lock = threading.Lock()
        # Epoch revocation (ULFM MPI_Comm_revoke analogue): operations on
        # any communicator with id below this threshold raise
        # CommRevokedError.  Monotone non-decreasing; 0 disables.
        self.revoked_below = 0
        self.revoke_reason: str | None = None
        # Per-rank revocation *visibility*: entry-point checks compare
        # against the threshold each rank has observed — at a blocking
        # wait, at its own revoke(), or seeded at respawn — never the
        # live global above.  A survivor is therefore interrupted at an
        # op index that is a function of program state alone, not of
        # when the asynchronous revocation happened to land, which keeps
        # fault-injection op counters and rng draw streams replayable.
        self._revoked_seen: dict[int, int] = defaultdict(int)
        # World ranks between "caught a failure" (their revoke) and
        # "joined the recovery rendezvous" (table freeze).  A blocked
        # wait on a revoked epoch raises only when the awaited partner
        # is dead, finalized, or in this set — i.e. when the message
        # can never arrive — so consume-vs-raise is never a wall-clock
        # race against a still-progressing peer.
        self._recovering: set[int] = set()
        # Per-rank "node memory" for in-memory distributed checkpoints:
        # holder world rank -> {key: entry}.  A holder only ever reads
        # its *own* slot (buddy copies travel as real messages), so rank
        # death makes the dead rank's slot unreachable — exactly the
        # failure model of node-local RAM checkpoints.
        self._node_store: dict[int, dict] = defaultdict(dict)
        self._node_store_lock = threading.Lock()
        # Lifecycle of each world rank: "running" -> "finalized"|"failed".
        # Blocked receives consult this (via their poll hook) so waiting
        # on a rank that can never send again raises RankFailedError
        # instead of deadlocking until the receive timeout.
        self._rank_status = ["running"] * world_size
        self._status_lock = threading.Lock()
        # Transport hooks: run on abort / revocation so backends with
        # out-of-process ranks can propagate the state change promptly.
        self._abort_hooks: list = []
        self._revoke_hooks: list = []
        # Elastic recovery: the transport installs a respawner so a
        # replace rendezvous can relaunch failed ranks at their original
        # position; the context tracks incarnations and a recovery log
        # for the postmortem bundle and live telemetry.
        self._respawner = None
        self._respawn_lock = threading.Lock()
        self._replace_round = 0
        self.max_respawns_per_round = 8
        self.rank_incarnations = [0] * world_size
        self.recovery_log: list[dict] = []
        self._recovery_log_lock = threading.Lock()
        if sanitizer is not None:
            sanitizer.attach(self)

    # -- mailboxes -----------------------------------------------------
    def mailbox(self, comm_id: int, world_rank: int) -> _Mailbox:
        """The (lazily created) mailbox of one rank in one communicator."""
        key = (comm_id, world_rank)
        with self._mailbox_lock:
            box = self._mailboxes.get(key)
            if box is None:
                box = _Mailbox(self.abort_event)
                self._mailboxes[key] = box
            return box

    def mailboxes(self):
        """Snapshot of ``((comm_id, world_rank), mailbox)`` pairs."""
        with self._mailbox_lock:
            return list(self._mailboxes.items())

    # -- delivery (routed through the transport) -----------------------
    def deliver(self, comm_id: int, dest_world: int, source: int,
                tag: int, envelope: Envelope) -> None:
        """Hand one envelope to the transport (blocking handoff)."""
        self.transport.deliver(
            self, comm_id, dest_world, source, tag, envelope
        )

    def deliver_async(self, comm_id: int, dest_world: int, source: int,
                      tag: int, envelope: Envelope):
        """Nonblocking handoff; a completion token, or None when done."""
        return self.transport.deliver_async(
            self, comm_id, dest_world, source, tag, envelope
        )

    def wake_all_mailboxes(self) -> None:
        """Wake every blocked receiver so it re-runs its poll hook."""
        for _key, box in self.mailboxes():
            box.wake_all()
        self.wake_rendezvous()

    def wake_rendezvous(self) -> None:
        """Wake ranks blocked in a split/shrink/replace rendezvous (re-poll)."""
        with self._rendezvous_lock:
            tables = list(self._rendezvous.values())
        for table in tables:
            with table.cond:
                table.cond.notify_all()

    # -- rank lifecycle ------------------------------------------------
    def rank_status(self, world_rank: int) -> str:
        """``"running"``, ``"finalized"``, or ``"failed"``."""
        with self._status_lock:
            return self._rank_status[world_rank]

    def mark_finalized(self, world_rank: int) -> None:
        """Record a rank's normal return and wake blocked receivers."""
        with self._status_lock:
            if self._rank_status[world_rank] == "running":
                self._rank_status[world_rank] = "finalized"
        self.wake_all_mailboxes()

    def mark_failed(self, world_rank: int) -> None:
        """Record a rank's death (exception) and wake blocked receivers."""
        with self._status_lock:
            self._rank_status[world_rank] = "failed"
        self.wake_all_mailboxes()

    def set_respawner(self, respawner) -> None:
        """Install ``respawner(world_rank)`` for elastic replacement.

        The transport provides it while the world is live; it must
        relaunch the rank's program at the same world position and
        clear any transport-held error slot for the dead incarnation.
        """
        self._respawner = respawner

    @property
    def supports_replace(self) -> bool:
        """True when the transport can respawn failed ranks in place."""
        return self._respawner is not None

    def log_recovery(self, action: str, **detail) -> None:
        """Append one event to the world's recovery timeline.

        The timeline feeds the postmortem bundle's ``recovery`` section
        and the telemetry snapshot, so operators can see *how* a run
        survived, not just that it did.
        """
        event = {"action": action, "time": time.time(), **detail}
        with self._recovery_log_lock:
            self.recovery_log.append(event)

    def recovery_events(self) -> list[dict]:
        """Snapshot of the recovery timeline."""
        with self._recovery_log_lock:
            return list(self.recovery_log)

    def mark_respawned(self, world_rank: int) -> None:
        """Flip a failed rank back to running ahead of its replacement.

        The dead incarnation's node-local store slot is dropped — its
        "RAM" died with the process; replacements restore state from a
        buddy copy or from the durable checkpoint tier — and the rank's
        incarnation counter advances.  The status flip happens *before*
        the transport launches the replacement so no blocked waiter
        observes a half-replaced world as failed.
        """
        with self._status_lock:
            self._rank_status[world_rank] = "running"
            self.rank_incarnations[world_rank] += 1
            incarnation = self.rank_incarnations[world_rank]
        # A replacement joins a world whose current epoch is already
        # revoked, and must say so deterministically from its first
        # instruction: seed its observed threshold so its opening
        # operation on any pre-crash communicator raises immediately
        # instead of exchanging stale traffic with survivors.
        self._revoked_seen[world_rank] = self.revoked_below
        self._recovering.discard(world_rank)
        with self._node_store_lock:
            self._node_store.pop(world_rank, None)
        self.log_recovery(
            "respawn", rank=world_rank, incarnation=incarnation,
        )
        if self.recorder is not None:
            self.recorder.record(
                world_rank, "recovery", name="respawn",
                incarnation=incarnation,
            )
        self.wake_all_mailboxes()

    def failed_ranks(self) -> list[int]:
        """World ranks currently marked failed."""
        with self._status_lock:
            return [
                r for r, s in enumerate(self._rank_status) if s == "failed"
            ]

    def running_world_ranks(self) -> set[int]:
        """World ranks still marked running."""
        with self._status_lock:
            return {
                r for r, s in enumerate(self._rank_status) if s == "running"
            }

    # -- abort handling ------------------------------------------------
    def add_abort_hook(self, hook) -> None:
        """Register ``hook(reason)`` to run on :meth:`abort`.

        The process transport uses this to push the abort out-of-band
        to every worker process, whose local abort mirrors would
        otherwise only learn of it at their next RPC.
        """
        self._abort_hooks.append(hook)

    def add_revoke_hook(self, hook) -> None:
        """Register ``hook(threshold, reason)`` to run on a revocation."""
        self._revoke_hooks.append(hook)

    def abort(self, reason: str) -> None:
        """Mark the world dead and wake every blocked receiver."""
        self.abort_reason = reason
        self.abort_event.set()
        with self._mailbox_lock:
            boxes = list(self._mailboxes.values())
        for box in boxes:
            box.wake_all()
        self.wake_rendezvous()
        for hook in self._abort_hooks:
            hook(reason)

    def check_alive(self) -> None:
        """Raise WorldAbortedError if the world has been aborted."""
        if self.abort_event.is_set():
            raise WorldAbortedError(
                f"SPMD world aborted: {self.abort_reason or 'unknown reason'}"
            )

    # -- blocked waits -------------------------------------------------
    @property
    def poll_interval(self) -> float:
        """Seconds a blocked wait sleeps between polls.

        The sanitizer's watchdog interval, else the fault-tolerance
        poll interval (so revocation and rank death are noticed
        promptly), else 0.25 s.
        """
        if self.sanitizer is not None:
            return self.sanitizer.watchdog_interval
        if self.resilience is not None:
            return self.resilience.poll_interval
        if self.faults is not None:
            return 0.05
        return 0.25

    def _lost_partner(self, comm_id: int, me: int, partner: int,
                      pending: Callable[[], bool] | None = None) -> str | None:
        """The dead-or-recovering-partner rule of every blocked wait.

        ``me`` waits on ``comm_id`` for world rank ``partner``;
        ``pending()`` says whether what it waits for has already
        arrived.  When it has not and the partner is dead, finalized
        or — on a revoked epoch — off recovering, the wait can never be
        satisfied.  On a revoked epoch that raises
        :class:`~repro.errors.CommRevokedError` (a partner still making
        progress gets to deliver, so consume-vs-raise is decided by
        program state, not by when the revocation landed).  Otherwise
        the partner's status is returned when it is not running, and
        the caller raises :class:`~repro.errors.RankFailedError`.
        The status is read before ``pending()``: a rank's deliveries
        are all in mailboxes before it is marked finalized or failed.
        """
        status = self.rank_status(partner)
        if status == "running" and not self.is_recovering(partner):
            return None
        if pending is not None and pending():
            return None
        if comm_id < self.revoked_below:
            self.note_revocation_seen(me)
            self.check_revoked(comm_id)
        return None if status == "running" else status

    def try_recv(self, comm_id: int, me: int, source: int,
                 tag: int) -> Envelope | None:
        """Non-blocking matched receive from ``me``'s mailbox."""
        return self.mailbox(comm_id, me).try_get(source, tag)

    def blocking_recv(self, comm_id: int, me: int, source: int,
                      src_world: int, tag: int) -> Envelope:
        """The blocked receive: wait for ``(source, tag)`` on ``comm_id``.

        ``source`` is the comm rank and ``src_world`` the world rank
        of the awaited partner.  Runs where the world state lives: in
        the rank's thread on the threads backend, on the master inside
        the worker's ``box_get`` RPC on procs and sockets.  The wait
        fails fast with :class:`~repro.errors.RankFailedError` (with
        the sanitizer's diagnosis when one is attached) once the
        partner can never deliver, raises on a revoked epoch per
        :meth:`_lost_partner`, and under a sanitizer registers the wait
        in the wait-for graph and ticks the stall watchdog.
        """
        box = self.mailbox(comm_id, me)
        san = self.sanitizer

        def poll() -> None:
            status = self._lost_partner(
                comm_id, me, src_world, lambda: box.has(source, tag))
            if status is not None:
                if san is not None:
                    diag = san.describe_failed_partner(
                        me, src_world, source, tag, status, box,
                        expected=self.faults is not None and status == "failed",
                    )
                    raise RankFailedError(diag.message, diagnostic=diag)
                where = (
                    f"recv(source={source}, tag={tag})" if tag >= 0
                    else f"a collective exchange with rank {source}"
                )
                raise RankFailedError(
                    f"rank {me} blocked in {where} "
                    f"but rank {src_world} already {status}"
                )
            if san is not None:
                san.on_stall(me)

        if san is not None:
            san.begin_wait(me, src_world, source, tag, comm_id, box)
        try:
            return box.get(source, tag, self.recv_timeout, poll,
                           self.poll_interval)
        finally:
            if san is not None:
                san.end_wait(me)

    # -- collective setup ----------------------------------------------
    def allocate_comm_id(self) -> int:
        """Hand out a fresh communicator id (thread-safe)."""
        with self._comm_id_lock:
            self._last_comm_id = next(self._comm_id_counter)
            return self._last_comm_id

    def _rendezvous_round(self, key: tuple, rank: int, value: Any,
                          freeze: Callable[[dict], Any],
                          poll: Callable[[_Rendezvous], None],
                          expired: Callable[[_Rendezvous], Exception]) -> Any:
        """One rank's contribution to the round at ``key``; blocks for its result.

        ``freeze(contributions)`` runs under the round's lock after
        each wake and returns the round's result once it is complete
        (None until then); ``poll(table)`` runs outside the lock and
        may raise to abandon the wait (see :func:`_wait`).
        """
        with self._rendezvous_lock:
            table = self._rendezvous.get(key)
            if table is None:
                table = self._rendezvous[key] = _Rendezvous()
        with table.cond:
            if rank in table.contributions:
                raise CommunicatorError(
                    f"rank {rank} contributed twice to a {key[0]}")
            table.contributions[rank] = value

        def attempt() -> Any:
            if table.result is None:
                table.result = freeze(table.contributions)
                if table.result is not None:
                    table.cond.notify_all()
            return table.result

        return _wait(table.cond, attempt, lambda: poll(table),
                     self.recv_timeout, self.poll_interval,
                     lambda: expired(table))

    def split_rendezvous(
        self,
        parent_comm_id: int,
        seqno: int,
        size: int,
        rank: int,
        value: tuple,
        members: list[int],
        world_rank: int,
    ) -> dict:
        """One rank's contribution to a collective split, blocking for all.

        Runs entirely on the side that owns the world state (the caller
        for the threads backend, the master for the process backend):
        grouping, ordering, *and the new communicator-id allocation*
        happen once, inside the last contributor's freeze, so ids are
        handed out exactly once per color group regardless of which
        process asked.  Returns the full ``{color: (new_comm_id,
        world_members, old_ranks)}`` map.
        """

        def freeze(contributions: dict[int, tuple]) -> dict | None:
            if len(contributions) < size:
                return None
            groups: dict[int, list] = {}
            for old_rank, (c, k) in contributions.items():
                if c is not None:
                    groups.setdefault(c, []).append((k, old_rank))
            out = {}
            for c, group in groups.items():
                group.sort()
                new_id = self.allocate_comm_id()
                out[c] = (
                    new_id,
                    [members[old] for _, old in group],
                    [old for _, old in group],
                )
            return out

        def poll(table: _Rendezvous) -> None:
            # A split blocked on a member that can never contribute
            # fails fast like a blocked receive would.
            self.check_alive()
            contributed = table.contributed()
            for old, world in enumerate(members):
                if old in contributed:
                    continue
                status = self._lost_partner(parent_comm_id, world_rank, world)
                if status is not None:
                    raise RankFailedError(
                        f"rank {world_rank} blocked in split "
                        f"but member rank {world} already {status}"
                    )

        return self._rendezvous_round(
            ("split", parent_comm_id, seqno), rank, value, freeze, poll,
            lambda table: CommunicatorError(
                "collective setup timed out — likely deadlock"),
        )

    def shrink_rendezvous(
        self,
        parent_comm_id: int,
        seqno: int,
        rank: int,
        world_rank: int,
        members: list[int],
    ) -> tuple[int, list[int]]:
        """One survivor's contribution to a shrink, blocking for the rest.

        Unlike a split, the membership is *discovered*, not fixed: the
        round freezes once every member of the parent communicator that
        is still running has contributed, so ranks that die mid-shrink
        simply fall out of the survivor set.  The survivor discovery
        and the fresh epoch's communicator id are one authoritative
        computation where the world state lives; the id is allocated
        inside the freeze — after every survivor's revocation, so the
        fresh epoch is never poisoned by the revocation threshold.
        Returns ``(new_comm_id, ordered old ranks)``.
        """

        def survivors() -> set:
            running = self.running_world_ranks()
            return {i for i, w in enumerate(members) if w in running}

        def freeze(contributions: dict) -> tuple[int, list[int]] | None:
            alive = survivors()
            if not alive <= contributions.keys():
                return None
            # Every survivor has arrived and the recovery is committed:
            # nobody is "recovering" any more, so the next failure
            # round starts with a clean visibility slate.
            self._recovering.clear()
            ordered = sorted(r for r in contributions if r in alive)
            return self.allocate_comm_id(), ordered

        return self._rendezvous_round(
            ("shrink", parent_comm_id, seqno), rank, world_rank, freeze,
            lambda table: self.check_alive(),
            lambda table: CommunicatorError(
                f"shrink timed out after {self.recv_timeout}s waiting for "
                f"survivors {sorted(survivors() - table.contributions.keys())}"
            ),
        )

    def replace_rendezvous(self, world_rank: int) -> tuple[int, int]:
        """One rank's contribution to a full-world replace.

        Survivors and freshly respawned replacements all land here.
        The target membership is the full original world, part of which
        does not exist yet when the round opens, so every poll respawns
        any failed rank that has not yet joined (and respawns it
        *again* if the replacement dies first).  The round freezes —
        and allocates the fresh epoch's communicator id, after every
        participant has revoked — once the entire original world has
        contributed.  Returns ``(new_comm_id, replace_round)``.

        Keyed by a world-global round counter rather than the parent
        communicator's operation sequence, because a replacement worker
        shares no communicator history with the survivors — the round
        number is the only rendezvous coordinate both sides can derive.
        """
        if self._respawner is None:
            raise CommunicatorError(
                "recover='replace' needs a transport that can respawn "
                "ranks; run under run_spmd with the threads, procs, or "
                "sockets backend"
            )
        with self._rendezvous_lock:
            table = self._rendezvous.get(("replace", self._replace_round))
            if table is None or table.result is not None:
                self._replace_round += 1
                table = _Rendezvous()
                self._rendezvous[("replace", self._replace_round)] = table
            round_no = self._replace_round

        def freeze(contributions: dict) -> int | None:
            if len(contributions) < self.world_size:
                return None
            self._recovering.clear()
            new_id = self.allocate_comm_id()
            self.log_recovery(
                "replace_commit", round=round_no, comm_id=new_id,
                respawns=dict(table.respawns),
            )
            return new_id

        def expired(table: _Rendezvous) -> Exception:
            missing = sorted(set(range(self.world_size))
                             - table.contributions.keys())
            return CommunicatorError(
                f"replace timed out after {self.recv_timeout}s waiting for "
                f"ranks {missing} to rejoin"
            )

        new_id = self._rendezvous_round(
            ("replace", round_no), world_rank, None, freeze,
            lambda table: self._ensure_replacements(table, round_no), expired,
        )
        return new_id, round_no

    def _ensure_replacements(self, table: _Rendezvous, round_no: int) -> None:
        """Respawn every failed rank that has not yet joined ``table``.

        Serialized by a dedicated lock so concurrent pollers issue each
        respawn exactly once: :meth:`mark_respawned` flips the rank
        back to "running" before the transport launches it, and only
        "failed" ranks are eligible here.
        """
        self.check_alive()
        with self._respawn_lock:
            joined = table.contributed()
            for r in range(self.world_size):
                if r in joined or self.rank_status(r) != "failed":
                    continue
                count = table.respawns.get(r, 0)
                if count >= self.max_respawns_per_round:
                    raise CommunicatorError(
                        f"rank {r} died {count} times during replace "
                        f"round {round_no}; giving up on replacement"
                    )
                table.respawns[r] = count + 1
                self.mark_respawned(r)
                self._respawner(r)

    # -- epoch revocation ----------------------------------------------
    def revoke_current(self, reason: str, world_rank: int | None = None) -> None:
        """Poison every communicator allocated so far (MPI_Comm_revoke).

        Any operation on a communicator whose id predates this call
        raises :class:`~repro.errors.CommRevokedError`; blocked
        receivers and rendezvous waiters are woken so they observe it
        immediately.  Communicator ids allocated *after* the revocation
        (the post-shrink epoch) are unaffected.  Idempotent and safe to
        call concurrently from several survivors: the threshold only
        ever grows, and the shrink and replace rendezvous allocate the
        new epoch's id strictly after every participant has revoked and
        contributed.
        """
        with self._comm_id_lock:
            threshold = self._last_comm_id + 1
            if threshold > self.revoked_below:
                self.revoked_below = threshold
                self.revoke_reason = reason
        if world_rank is not None:
            # The revoking rank has by definition observed the
            # revocation, and is now in recovery: peers blocked on a
            # message from it may stop waiting.
            self._recovering.add(world_rank)
            self.note_revocation_seen(world_rank)
        self.wake_all_mailboxes()
        for hook in self._revoke_hooks:
            hook(self.revoked_below, reason)

    def check_revoked(self, comm_id: int) -> None:
        """Raise CommRevokedError when ``comm_id`` belongs to a revoked epoch."""
        if comm_id < self.revoked_below:
            from ..errors import CommRevokedError

            raise CommRevokedError(
                f"communicator {comm_id} was revoked: "
                f"{self.revoke_reason or 'rank failure'}"
            )

    def revocation_seen(self, world_rank: int) -> int:
        """Threshold ``world_rank`` has observed (gates entry checks)."""
        return self._revoked_seen[world_rank]

    def note_revocation_seen(self, world_rank: int) -> None:
        """Record that ``world_rank`` observed the current revocation."""
        if self.revoked_below > self._revoked_seen[world_rank]:
            self._revoked_seen[world_rank] = self.revoked_below

    def is_recovering(self, world_rank: int) -> bool:
        """True between a rank's revoke() and the next rendezvous freeze."""
        return world_rank in self._recovering

    # -- node-local checkpoint store -----------------------------------
    def store_put(self, holder: int, key, value) -> None:
        """Stash ``value`` in ``holder``'s node-local slot."""
        with self._node_store_lock:
            self._node_store[holder][key] = value

    def store_items(self, holder: int) -> list[tuple]:
        """Snapshot of ``holder``'s (key, value) pairs."""
        with self._node_store_lock:
            return list(self._node_store.get(holder, {}).items())

    def store_delete(self, holder: int, key) -> None:
        """Drop one entry from ``holder``'s slot (no-op when absent)."""
        with self._node_store_lock:
            self._node_store.get(holder, {}).pop(key, None)
