"""The master hub of the procs and sockets transports, and its worker half.

Both process-backed transports share one execution model: one worker
process per rank, and the *world* (mailboxes, rendezvous, rank status,
node-local store, sanitizer) resident in the master, reached by RPC.
They differ only in the wire — pipes plus shared-memory rings for
forked local workers, framed TCP for networked ones.  Everything above
the wire lives here.

What the hub owns
-----------------
* Worker side: :class:`WorkerContext` (the rank-local ``SpmdContext``
  stand-in), :class:`WorkerSanitizer`, the observability shards
  (:func:`delta_shards`, :func:`collect_shards`, :class:`Heartbeat`),
  the RPC client :class:`Channel` (one reply loop that applies and
  skips out-of-band pushes), the :class:`SendPump` (queue, completion
  tokens, ``sent``/``failure`` counters), and :func:`run_worker`, the
  worker main loop.
* Master side: :class:`WorldServerMixin` — ``execute`` end to end
  (result slots, abort/revoke pushes, launch, elastic respawn,
  join-by-index reaping), the ctl serve loop (RPC dispatch onto the
  master's ``SpmdContext`` — a worker's blocked receive is its
  :meth:`~repro.mpi.context.SpmdContext.blocking_recv`, run inside the
  ``box_get`` RPC — and the lifecycle reply), the data serve loop
  (envelope ingest, drain counting, heartbeats), the delivery-drain
  barrier, failure attribution, and shard merging.
* The message formats: envelopes cross as
  :func:`~repro.mpi.transport.codec.encode_envelope` tuples with their
  arrays lifted out by the codec, so only :mod:`~repro.mpi.transport.
  codec` knows the envelope layout.

What a wire supplies
--------------------
* *Ends*: one side of a framed connection with ``send(header,
  descrs=(), views=())``, ``recv(timeout=None) -> (header, arrays)``,
  ``poll(timeout)`` and ``close()``.  A peer that is gone raises
  :class:`~repro.mpi.transport.net.LinkClosed`, an expired ``recv``
  timeout :class:`~repro.mpi.transport.net.LinkTimeout`; any other
  exception is a wire failure that the hub records as the rank's own
  error.  :class:`~repro.mpi.transport.net.FramedSocket` is the sockets
  end; procs pairs a pipe with shared-memory rings.
* The hooks listed on :class:`WorldServerMixin`: build a :class:`Link`,
  launch one worker, receive one data frame, and per-world setup and
  teardown.  A wire may also subclass :class:`Channel` (``_check``) and
  :class:`SendPump` (``_ship``).
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from typing import Any

from ...errors import (
    CommunicatorError,
    CommRevokedError,
    RankFailedError,
    WorldAbortedError,
)
from ..context import Envelope
from .codec import (
    decode_envelope,
    decode_exception,
    encode_envelope,
    encode_exception,
    join_arrays,
    prepare_arrays,
    split_arrays,
)
from .net import LinkClosed, LinkTimeout
from .threads import WORLD_COMM_ID, reap, run_rank_program

__all__ = [
    "DRAIN_TIMEOUT",
    "SendToken",
    "WorkerConfig",
    "WorkerSanitizer",
    "WorkerContext",
    "delta_shards",
    "collect_shards",
    "Heartbeat",
    "Channel",
    "SendPump",
    "run_worker",
    "Link",
    "WorldServerMixin",
]

# Seconds the master waits for a finishing worker's in-flight
# deliveries to drain before processing its lifecycle message.
DRAIN_TIMEOUT = 30.0

# RPCs that report a rank's outcome; the ctl serve loop ends after one.
_LIFECYCLE = ("finalize", "rank_killed", "rank_error")


class SendToken(threading.Event):
    """``isend`` completion token the send pumps hand out.

    Set once the payload has been staged onto the wire — or once the
    pump knows it never will be, in which case ``error`` carries the
    staging failure and the waiter (:meth:`~repro.mpi.request.Request.
    from_token`) re-raises it instead of reporting a successful stage.
    """

    def __init__(self) -> None:
        super().__init__()
        self.error: BaseException | None = None


class WorkerConfig:
    """World parameters a worker inherits through the fork (or boot blob).

    ``comm_trace``, ``tracer``, and ``faults`` are the *caller's*
    objects — forked by reference so rank-program closures over them
    keep working; the worker ships back post-fork deltas only.  In a
    spawned (non-forked) worker they are fresh unpickles carrying the
    state at ship time, which the baseline diffs cancel out the same
    way.
    """

    __slots__ = (
        "world_size", "cost_model", "recv_timeout", "tuning", "resilience",
        "faults", "comm_trace", "tracer", "has_sanitizer", "recorder",
        "heartbeat_interval", "respawn_info",
    )

    def __init__(self, context) -> None:
        self.world_size = context.world_size
        self.cost_model = context.cost_model
        self.recv_timeout = context.recv_timeout
        self.tuning = context.tuning
        self.resilience = context.resilience
        self.faults = context.faults
        self.comm_trace = context.comm_trace
        self.tracer = context.tracer
        self.has_sanitizer = context.sanitizer is not None
        self.recorder = getattr(context, "recorder", None)
        # Telemetry streaming cadence; None disables the worker
        # heartbeat thread entirely (no recorder, no telemetry hub).
        if self.recorder is not None:
            self.heartbeat_interval = self.recorder.heartbeat_interval
        elif getattr(context, "telemetry", None) is not None:
            self.heartbeat_interval = 0.5
        else:
            self.heartbeat_interval = None
        # Populated by a transport respawner for a replacement worker:
        # {"incarnation", "crash_fired", "revoked_below",
        # "revoke_reason"}.  Tells the worker which incarnation it is
        # (so the fault injector counts its operations from zero) and
        # seeds its local revocation threshold, because the replacement
        # missed the out-of-band revoke push the survivors received.
        self.respawn_info = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class WorkerSanitizer:
    """Worker-side sanitizer proxy.

    Collective matching is world state and forwards to the master's
    sanitizer.  The blocked-receive hooks (wait graph, stall watchdog,
    failed-partner diagnosis) need no proxy: the blocked receive itself
    runs on the master, inside ``box_get``.  Move-ownership tracking is
    *rank-local* state: a worker-resident :class:`~repro.sanitize.
    Sanitizer` ledger registers every buffer this rank relinquishes or
    receives frozen — with the real call sites, since moves originate
    in this very address space (receive-side origins arrive in the
    envelope wire metadata) — so use-after-move enforcement raises with
    the true send site instead of degrading to a bare NumPy
    ``ValueError``.  The ledger's findings ship home with the lifecycle
    shards.
    """

    def __init__(self, channel) -> None:
        from ...sanitize import Sanitizer

        self._channel = channel
        # Rank-local move/provenance ledger; never finalized (leak
        # reporting is master-side world state).
        self._local = Sanitizer(strict=False)

    def check_collective(self, comm_id, seq, world_rank, op, signature,
                         comm_size) -> None:
        self._channel.call("check_collective", comm_id, seq, world_rank, op,
                           tuple(signature), comm_size)

    # Move/provenance hooks: the rank-local ledger.
    def note_send(self, world_rank):
        return self._local.note_send(world_rank)

    def note_move(self, payload, world_rank, op, dest=None):
        return self._local.note_move(payload, world_rank, op, dest=dest)

    def note_received_move(self, payload, world_rank, origin) -> None:
        self._local.note_received_move(payload, world_rank, origin)

    def explain_readonly_write(self, exc, rank):
        return self._local.explain_readonly_write(exc, rank)

    def local_findings(self) -> list:
        """Diagnostics recorded by the rank-local ledger (for shipping)."""
        return list(self._local.findings)


class WorkerContext:
    """Rank-local stand-in for :class:`SpmdContext` inside a worker.

    World-authoritative operations (receive matching, the blocked
    receive, rendezvous, rank status, the node-local store) are RPCs
    to the master, which runs them on its ``SpmdContext``; per-rank
    observability writes go to local copies shipped home as deltas at
    finalize.
    """

    def __init__(self, cfg: WorkerConfig, channel, pump) -> None:
        self.world_size = cfg.world_size
        self.cost_model = cfg.cost_model
        self.recv_timeout = cfg.recv_timeout
        self.tuning = cfg.tuning
        self.resilience = cfg.resilience
        self.faults = cfg.faults
        self.comm_trace = cfg.comm_trace
        self.tracer = cfg.tracer
        self.recorder = cfg.recorder
        self.sanitizer = WorkerSanitizer(channel) if cfg.has_sanitizer else None
        self.abort_event = threading.Event()
        self.abort_reason: str | None = None
        self.revoked_below = 0
        self.revoke_reason: str | None = None
        # Observed threshold for entry-point checks: ``revoked_below``
        # is pushed asynchronously by master OOB messages, so gating
        # ops on it directly would interrupt this worker at a
        # timing-dependent op.  ``revoked_seen`` advances only at
        # deterministic points — a blocking wait that raised, our own
        # revoke(), or the respawn seed below.
        self.revoked_seen = 0
        info = getattr(cfg, "respawn_info", None)
        if info is not None:
            # A replacement joins a world whose current epoch is already
            # revoked; without this seed its first operation would try a
            # real exchange on the poisoned world communicator.
            self.revoked_below = info.get("revoked_below", 0)
            self.revoke_reason = info.get("revoke_reason")
            self.revoked_seen = self.revoked_below
        self._channel = channel
        self._pump = pump

    # -- out-of-band state pushed by the master -------------------------
    def apply_oob(self, msg: tuple) -> None:
        if msg[1] == "abort":
            self.abort_reason = msg[2]
            self.abort_event.set()
        elif msg[1] == "revoke":
            if msg[2] > self.revoked_below:
                self.revoked_below = msg[2]
                self.revoke_reason = msg[3]

    def check_alive(self) -> None:
        if self.abort_event.is_set():
            raise WorldAbortedError(
                f"SPMD world aborted: {self.abort_reason or 'unknown reason'}"
            )

    def check_revoked(self, comm_id: int) -> None:
        if comm_id < self.revoked_below:
            raise CommRevokedError(
                f"communicator {comm_id} was revoked: "
                f"{self.revoke_reason or 'rank failure'}"
            )

    def revocation_seen(self, world_rank: int) -> int:
        return self.revoked_seen

    def note_revocation_seen(self, world_rank: int) -> None:
        if self.revoked_below > self.revoked_seen:
            self.revoked_seen = self.revoked_below

    # -- message paths ---------------------------------------------------
    def try_recv(self, comm_id: int, me: int, source: int,
                 tag: int) -> Envelope | None:
        return decode_envelope(self._channel.call(
            "box_try_get", comm_id, me, source, tag
        ))

    def blocking_recv(self, comm_id: int, me: int, source: int,
                      src_world: int, tag: int) -> Envelope:
        try:
            return decode_envelope(self._channel.call(
                "box_get", comm_id, me, source, src_world, tag
            ))
        except CommRevokedError:
            # A blocking wait is a deterministic observation point:
            # arm this rank's entry-point revocation checks.
            self.note_revocation_seen(me)
            raise

    def deliver(self, comm_id: int, dest_world: int, source: int, tag: int,
                envelope: Envelope) -> None:
        self._channel.drain_oob()
        self._pump.enqueue(comm_id, dest_world, source, tag, envelope)

    def deliver_async(self, comm_id: int, dest_world: int, source: int,
                      tag: int, envelope: Envelope) -> threading.Event:
        self._channel.drain_oob()
        return self._pump.enqueue(comm_id, dest_world, source, tag, envelope)

    # -- world-authoritative operations (RPC) ----------------------------
    def split_rendezvous(self, parent_comm_id, seqno, size, rank, value,
                        members, world_rank) -> dict:
        return self._channel.call(
            "split", parent_comm_id, seqno, size, rank, tuple(value),
            list(members), world_rank,
        )

    def shrink_rendezvous(self, parent_comm_id, seqno, rank, world_rank,
                          members) -> tuple:
        new_id, ordered_old = self._channel.call(
            "shrink", parent_comm_id, seqno, rank, world_rank, list(members)
        )
        return new_id, list(ordered_old)

    def replace_rendezvous(self, world_rank: int) -> tuple:
        new_id, round_no = self._channel.call("replace", world_rank)
        return new_id, round_no

    def rank_status(self, world_rank: int) -> str:
        return self._channel.call("rank_status", world_rank)

    def abort(self, reason: str) -> None:
        self.abort_reason = reason
        self.abort_event.set()
        self._channel.call("abort", reason)

    def revoke_current(self, reason: str,
                       world_rank: int | None = None) -> None:
        threshold, why = self._channel.call("revoke_current", reason,
                                            world_rank)
        if threshold > self.revoked_below:
            self.revoked_below = threshold
            self.revoke_reason = why
        # The revoking worker has observed its own revocation.
        self.revoked_seen = self.revoked_below

    def store_put(self, holder: int, key, value) -> None:
        self._channel.call("store_put", holder, key, value)

    def store_items(self, holder: int) -> list:
        return list(self._channel.call("store_items", holder))

    def store_delete(self, holder: int, key) -> None:
        self._channel.call("store_delete", holder, key)

    # Rank lifecycle is reported through the worker main's lifecycle
    # RPC, not these (the master owns the status table).
    def mark_finalized(self, world_rank: int) -> None:
        pass

    def mark_failed(self, world_rank: int) -> None:
        pass


def delta_shards(cfg: WorkerConfig, rank: int, baselines: dict) -> dict:
    """Metrics/comm/recorder deltas since ``baselines``; advances them.

    The streaming slice of the observability shards: safe to call from
    the heartbeat thread (all three sources are lock-protected or
    append-only), unlike spans — ``tracer.local_spans`` is bound to the
    rank's main thread — which stay finalize-only.
    """
    from ...obs.metrics import MetricsRegistry
    from ..tracing import CommTrace

    delta: dict = {}
    if cfg.tracer is not None:
        snap = cfg.tracer.metrics.to_dict()
        diff = MetricsRegistry.diff_snapshots(snap, baselines["metrics"])
        baselines["metrics"] = snap
        if diff:
            delta["metrics"] = diff
    if cfg.comm_trace is not None:
        state = cfg.comm_trace.state()
        diff = CommTrace.diff_states(state, baselines["comm_trace"])
        baselines["comm_trace"] = state
        if any(diff.values()):
            delta["comm_trace"] = diff
    if cfg.recorder is not None:
        events = cfg.recorder.events_since(rank, baselines["recorder_seq"])
        if events:
            baselines["recorder_seq"] = events[-1][0] + 1
            delta["recorder"] = events
    return delta


def collect_shards(cfg: WorkerConfig, ctx: WorkerContext, comm, rank: int,
                   baselines: dict) -> dict:
    """Post-fork observability deltas to ship with the lifecycle RPC."""
    shards = delta_shards(cfg, rank, baselines)
    if comm is not None and comm.clock is not None:
        shards["clock"] = comm.clock
    if cfg.tracer is not None:
        # bind() gave this thread a fresh buffer, so local_spans is
        # already post-fork only; metrics were diffed above.
        shards["spans"] = cfg.tracer.local_spans()
    if cfg.faults is not None:
        events = cfg.faults.trace[baselines["fault_events"]:]
        shards["faults"] = (
            [e.as_tuple() for e in events], cfg.faults.ops_per_rank()
        )
    if ctx.sanitizer is not None:
        findings = ctx.sanitizer.local_findings()
        if findings:
            shards["sanitizer"] = findings
    return shards


class Heartbeat:
    """Worker-side telemetry streamer: ships deltas every interval.

    A daemon thread that periodically computes the streaming shard
    delta (:func:`delta_shards`) and stages a ``("hb", rank, ts,
    delta)`` header on the send pump — the data path's single writer —
    so the master can fold mid-run state into the caller's
    CommTrace/metrics/recorder and stamp the rank's heartbeat.  Stopped
    (and joined) before the finalize shard is computed, so baselines
    are never raced and nothing is double-counted.
    """

    def __init__(self, cfg: WorkerConfig, pump, rank: int,
                 baselines: dict, interval: float) -> None:
        self._cfg = cfg
        self._pump = pump
        self._rank = rank
        self._baselines = baselines
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"spmd-heartbeat-{rank}"
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                delta = delta_shards(self._cfg, self._rank, self._baselines)
            except Exception:  # pragma: no cover - telemetry best-effort
                continue
            self._pump.enqueue_raw(("hb", self._rank, time.time(), delta))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class Channel:
    """Worker-side RPC client over the worker's ctl end.

    Single caller (the rank's main thread), so requests never
    interleave; out-of-band abort/revoke pushes arriving while a reply
    is awaited are applied and skipped.
    """

    def __init__(self, end) -> None:
        self._end = end
        self.state = None  # the WorkerContext, set by run_worker

    def _check(self) -> None:
        """Runs before each call and when the ctl end drops; a wire
        that can be cut on purpose raises its own error here."""

    def call(self, method: str, *args) -> Any:
        self._check()
        skeleton, arrays = split_arrays(args)
        views, descrs = prepare_arrays(arrays)
        try:
            self._end.send(("rpc", method, skeleton), descrs, views)
        except LinkClosed as exc:
            raise WorldAbortedError(
                f"SPMD master is gone ({method} RPC failed: {exc})"
            ) from None
        while True:
            try:
                header, arrays = self._end.recv()
            except LinkClosed:
                self._check()
                raise WorldAbortedError(
                    f"SPMD master is gone (no reply to {method})"
                ) from None
            if header[0] != "oob":
                break
            self.state.apply_oob(header)
        if header[0] == "err":
            raise decode_exception(header[1])
        return join_arrays(header[1], arrays)

    def drain_oob(self) -> None:
        """Apply any queued abort/revoke pushes without blocking."""
        try:
            while self._end.poll(0):
                header, _ = self._end.recv(timeout=1.0)
                if header[0] == "oob":
                    self.state.apply_oob(header)
        except (LinkClosed, LinkTimeout):  # pragma: no cover - master gone
            pass

    def close(self) -> None:
        self._end.close()


class SendPump:
    """Owns the worker's data end: a daemon thread draining a FIFO.

    ``deliver`` must not block the rank on wire backpressure (buffered-
    send semantics: the payload is already snapshotted or frozen by
    ``_deliver``), so frames are staged here and shipped in order by
    one thread — the data end's single writer.  :meth:`enqueue` returns
    the ``isend`` completion token.  ``sent`` counts deliveries accepted
    and ``failure`` holds the first shipping error; both travel with
    the lifecycle RPC so the master's drain barrier knows what to wait
    for.  A wire with more to do per frame overrides :meth:`_ship`.
    """

    def __init__(self, end) -> None:
        self._end = end
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self.sent = 0
        self.failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="spmd-send-pump"
        )
        self._thread.start()

    def enqueue(self, comm_id: int, dest_world: int, source: int, tag: int,
                env: Envelope) -> SendToken:
        if self.failure is not None:
            raise CommunicatorError(f"send path failed: {self.failure}")
        skeleton, arrays = split_arrays(encode_envelope(env))
        views, descrs = prepare_arrays(arrays)
        header = ("put", comm_id, dest_world, source, tag, skeleton)
        token = SendToken()
        self._queue.put((header, descrs, views, token))
        self.sent += 1
        return token

    def enqueue_raw(self, header: tuple) -> None:
        """Stage a bookkeeping frame (heartbeat, ping) on the pump.

        Raw frames carry no arrays and do not count toward ``sent``:
        the drain barrier counts only ``"put"`` frames on both ends.
        """
        if self.failure is not None:
            return  # telemetry is best-effort; the rank path reports it
        self._queue.put((header, (), (), None))

    def flush(self, timeout: float | None = None) -> None:
        """Block until every frame staged so far shipped or failed.

        Run before the lifecycle report so ``failure`` is
        authoritative: without it a rank could finalize while the pump
        thread is still discovering that its frames will never ship.
        """
        token = SendToken()
        self._queue.put((None, (), (), token))
        token.wait(timeout)

    def _run(self) -> None:
        while True:
            header, descrs, views, token = self._queue.get()
            err = self.failure
            if err is None and header is not None:
                try:
                    self._ship(header, descrs, views)
                except BaseException as exc:  # noqa: BLE001 - report once
                    self.failure = err = exc
            if token is not None:
                # A frame that never shipped must not report a clean
                # stage: the waiter re-raises the error instead.
                token.error = err
                token.set()

    def _ship(self, header, descrs, views) -> None:
        self._end.send(header, descrs, views)

    def close(self) -> None:
        self._end.close()


def run_worker(cfg: WorkerConfig, rank: int, fn, args, kwargs,
               channel, pump) -> None:
    """The worker main loop, from first baseline to lifecycle report.

    Wire-agnostic: the transport's worker entry point builds the
    :class:`Channel` and :class:`SendPump` over the ends it owns, does
    its fd hygiene, then hands off here.
    """
    from ..communicator import Communicator

    baselines = {
        "metrics": (cfg.tracer.metrics.to_dict()
                    if cfg.tracer is not None else None),
        "comm_trace": (cfg.comm_trace.state()
                       if cfg.comm_trace is not None else None),
        "fault_events": (len(cfg.faults.trace)
                         if cfg.faults is not None else 0),
        "recorder_seq": (cfg.recorder.cursor(rank)
                         if cfg.recorder is not None else 0),
    }
    if cfg.comm_trace is not None:
        # This thread may be a fork-clone of the caller's: clear any
        # context label it inherited.
        cfg.comm_trace.set_context(None)

    ctx = WorkerContext(cfg, channel, pump)
    channel.state = ctx
    info = getattr(cfg, "respawn_info", None)
    if info is not None and cfg.faults is not None:
        # Fresh incarnation: operations count from zero so crash-rule
        # calibration means the same thing for every incarnation, and
        # the fire count is pinned from the master (this process's
        # injector copy never saw the previous incarnation's crash).
        cfg.faults.note_respawn(
            rank, incarnation=info["incarnation"],
            fired=info.get("crash_fired"),
        )

    heartbeat = None
    if cfg.heartbeat_interval is not None:
        heartbeat = Heartbeat(cfg, pump, rank, baselines,
                              cfg.heartbeat_interval)

    comm = None
    outcome = {"kind": "rank_error", "value": None,
               "exc": CommunicatorError(f"rank {rank} worker never ran")}
    try:
        comm = Communicator(ctx, WORLD_COMM_ID, list(range(cfg.world_size)),
                            rank)

        def on_value(value) -> None:
            outcome.update(kind="finalize", value=value, exc=None)

        def on_killed(exc) -> None:
            outcome.update(kind="rank_killed", exc=exc)

        def on_error(exc) -> None:
            outcome.update(kind="rank_error", exc=exc)

        run_rank_program(ctx, comm, fn, args, kwargs, rank,
                         on_value=on_value, on_killed=on_killed,
                         on_error=on_error)
    except BaseException as exc:  # noqa: BLE001 - report setup failures
        outcome.update(kind="rank_error", exc=exc)

    if heartbeat is not None:
        # Joined before the finalize shard is computed so the baselines
        # the heartbeat advanced are quiescent and nothing double-counts.
        heartbeat.stop()
    try:
        shards = collect_shards(cfg, ctx, comm, rank, baselines)
    except Exception:  # pragma: no cover - never lose the lifecycle msg
        shards = {}
    payload = (outcome["value"] if outcome["kind"] == "finalize"
               else encode_exception(outcome["exc"]))
    # The lifecycle message carries the pump's health alongside the
    # delivery count: a send path that failed can never drain its
    # remaining puts, and the master must know that rather than wait
    # out the drain barrier and let partners see a clean finalize.
    # Flush first so the pump has resolved every staged frame and
    # ``failure`` is authoritative, not a race with the pump thread.
    try:
        pump.flush(timeout=DRAIN_TIMEOUT)
    except Exception:  # pragma: no cover - never lose the lifecycle msg
        pass
    failure = pump.failure
    sent_info = (pump.sent,
                 None if failure is None
                 else f"{type(failure).__name__}: {failure}")
    try:
        channel.call(outcome["kind"], payload, shards, sent_info)
    except (pickle.PicklingError, TypeError, ValueError,
            AttributeError) as exc:
        # The return value would not cross the process boundary (e.g.
        # it holds live runtime handles).  Report a diagnostic instead
        # of dying silently, which would surface as a spurious
        # "worker process died unexpectedly".
        err = CommunicatorError(
            f"rank {rank} return value could not cross the process "
            f"boundary ({type(exc).__name__}: {exc}); return plain "
            f"arrays/containers from the rank program, or objects that "
            f"detach cleanly on pickle"
        )
        try:
            channel.call("rank_error", encode_exception(err), shards,
                         sent_info)
        except BaseException:  # noqa: BLE001 - master gone
            pass
    except BaseException:  # noqa: BLE001 - master gone; nothing to report to
        pass


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class Link:
    """Master-side state of one worker incarnation.

    ``ctl`` and ``data`` are the master's ends (``None`` until a wire
    that connects back attaches them).  ``put_cond`` guards the drain
    barrier: ``puts_received`` counts deliveries folded into mailboxes,
    ``data_done`` turns true once the data serve loop has exited (no
    more can arrive), and ``failure`` is the wire error that ended a
    serve loop, if any.  ``replaced`` marks an incarnation a respawned
    replacement superseded: its teardown must not fail the rank the
    replacement now holds.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.ctl = None
        self.data = None
        self.send_lock = threading.Lock()  # serializes ctl replies + pushes
        self.put_cond = threading.Condition()
        self.puts_received = 0
        self.data_done = False
        self.failure: BaseException | None = None
        self.finished = False  # lifecycle RPC fully processed
        self.replaced = False

    def wait_ready(self, deadline: float) -> bool:
        """True once both ends are attached; False if ``deadline`` passed."""
        return True

    def retire(self) -> None:
        """Called when a replacement supersedes this incarnation."""

    def close(self) -> None:
        for end in (self.ctl, self.data):
            if end is not None:
                end.close()


def _wait_process(proc) -> None:
    # multiprocessing.Process joins; subprocess.Popen waits.
    join = getattr(proc, "join", None)
    (join or proc.wait)()


class WorldServerMixin:
    """The master hub: one world served to one worker process per rank.

    The hub owns :meth:`execute` end to end and both per-link serve
    loops.  A deriving transport supplies only the wire:

    ``_open_wire(context)``
        Per-world setup before any worker starts.
    ``_new_link(rank)``
        A fresh :class:`Link` (one per rank and incarnation).
    ``_launch(link, links, cfg, program)``
        Start one worker for ``link`` running ``program = (fn, args,
        kwargs)`` under ``cfg`` (``cfg.respawn_info`` is set for a
        replacement); return its ``multiprocessing.Process`` or
        ``subprocess.Popen``.
    ``_recv_data(link, context)``
        The next ``(header, arrays)`` data frame, or ``None`` once the
        link has ended (a vanished worker is reported through
        :meth:`_declare_lost` first).
    ``_start_wire(links, context)`` / ``_close_wire(links)``
        Optional: run after the initial launch / after every worker and
        serve thread has ended.
    ``_ingest_wire(context, link, header)``
        Optional: data frames other than ``"put"`` and ``"hb"``.

    ``connect_grace`` bounds how long :meth:`Link.wait_ready` may take.
    """

    connect_grace = 0.0

    # -- lifecycle -------------------------------------------------------
    def deliver(self, context, comm_id: int, dest_world: int, source: int,
                tag: int, envelope) -> None:
        # Master-side deliveries (none in normal operation) are local.
        context.mailbox(comm_id, dest_world).put(source, tag, envelope)

    def execute(self, context, fn, args: tuple, kwargs: dict):
        nprocs = context.world_size
        self._values = [None] * nprocs
        self._clocks = [None] * nprocs
        self._errors = [None] * nprocs
        self._shutdown = threading.Event()
        program = (fn, args, kwargs)
        procs: list = []
        threads: list = []
        reap_lock = threading.Lock()

        self._open_wire(context)
        links = [self._new_link(r) for r in range(nprocs)]
        # Abort/revoke must reach workers blocked in pure compute, not
        # just those parked in an RPC: push them out-of-band.
        context.add_abort_hook(
            lambda reason: self._push(links, ("oob", "abort", reason))
        )
        context.add_revoke_hook(
            lambda threshold, reason: self._push(
                links, ("oob", "revoke", threshold, reason))
        )

        def launch(link: Link, cfg: WorkerConfig) -> None:
            proc = self._launch(link, links, cfg, program)
            with reap_lock:
                procs.append(proc)

        def serve(link: Link, deadline: float, late: str) -> None:
            if not link.wait_ready(deadline):
                self._declare_lost(
                    link, context,
                    f"{late} within {self.connect_grace:.0f}s")
                return
            for target, label in ((self._serve_ctl, "ctl"),
                                  (self._serve_data, "data")):
                thread = threading.Thread(
                    target=target, args=(link, context), daemon=True,
                    name=f"spmd-{self.name}-{label}-{link.rank}",
                )
                thread.start()
                with reap_lock:
                    threads.append(thread)

        def respawn(rank: int) -> None:
            # Elastic replacement: supersede the dead incarnation's
            # link, forget its error (the replacement's lifecycle
            # message owns the slot now), and relaunch the rank program
            # at the same world position.  respawn_info tells the
            # worker which incarnation it is and seeds the revocation
            # threshold it missed while it was not running.
            old = links[rank]
            old.replaced = True
            old.retire()
            self._errors[rank] = None
            link = links[rank] = self._new_link(rank)
            rcfg = WorkerConfig(context)
            rcfg.respawn_info = {
                "incarnation": context.rank_incarnations[rank],
                "crash_fired": (context.faults.crash_fires(rank)
                                if context.faults is not None else None),
                "revoked_below": context.revoked_below,
                "revoke_reason": context.revoke_reason,
            }
            launch(link, rcfg)
            threading.Thread(
                target=serve,
                args=(link, time.monotonic() + self.connect_grace,
                      "replacement never connected"),
                daemon=True, name=f"spmd-{self.name}-boot-{rank}",
            ).start()

        # Initial workers launch while the master is still single-
        # threaded: forking a multi-threaded process can deadlock the
        # children on locks held at fork time.
        cfg = WorkerConfig(context)
        for link in links:
            launch(link, cfg)
        context.set_respawner(respawn)
        self._start_wire(links, context)
        deadline = time.monotonic() + self.connect_grace
        for link in list(links):
            serve(link, deadline, "never connected")

        reap(procs, reap_lock, _wait_process)
        self._shutdown.set()
        reap(threads, reap_lock, lambda thread: thread.join(timeout=10.0))
        self._close_wire(links)
        for link in links:
            link.close()
        return self._values, self._clocks, self._errors

    def _start_wire(self, links: list, context) -> None:
        pass

    def _close_wire(self, links: list) -> None:
        pass

    @staticmethod
    def _push(links: list, header: tuple) -> None:
        """Send an out-of-band message to every attached worker."""
        for link in links:
            end = link.ctl
            if end is None:
                continue
            with link.send_lock:
                try:
                    end.send(header)
                except LinkClosed:
                    pass  # worker already gone

    # -- serve loops -----------------------------------------------------
    def _serve_ctl(self, link: Link, context) -> None:
        """Answer one worker's RPCs until its lifecycle report.

        Each request is dispatched and answered with ``("ok", value)``
        or ``("err", exception)``.  A closed end means the worker is
        gone (the data loop reports that); any other receive or reply
        error is a wire failure and becomes the rank's own error.
        """
        end = link.ctl
        try:
            while True:
                (_, method, skeleton), arrays = end.recv()
                try:
                    reply = ("ok", self._dispatch(
                        context, link, method, join_arrays(skeleton, arrays)))
                except BaseException as exc:  # noqa: BLE001 - RPC error path
                    reply = ("err", encode_exception(exc))
                skeleton, arrays = split_arrays(reply)
                views, descrs = prepare_arrays(arrays)
                with link.send_lock:
                    end.send(skeleton, descrs, views)
                if reply[0] == "ok" and method in _LIFECYCLE:
                    link.finished = True
                    return
        except LinkClosed:
            return
        except Exception as exc:  # noqa: BLE001 - a wire failure
            self._link_failed(link, context, exc)
            with link.send_lock:
                end.close()  # wakes a worker awaiting its reply

    def _serve_data(self, link: Link, context) -> None:
        """Fold one worker's data frames into the world until the link ends.

        ``"put"`` frames become mailbox deliveries counted for the drain
        barrier, ``"hb"`` frames telemetry; other kinds go to the wire.
        An error while receiving or ingesting is a wire failure and
        becomes the rank's own error.  Exiting for any reason releases
        a drain barrier waiting on this link.
        """
        try:
            while True:
                frame = self._recv_data(link, context)
                if frame is None:
                    return
                header, arrays = frame
                kind = header[0]
                if kind == "put":
                    _, comm_id, dest_world, source, tag, skeleton = header
                    env = decode_envelope(join_arrays(skeleton, arrays))
                    context.mailbox(comm_id, dest_world).put(source, tag, env)
                    with link.put_cond:
                        link.puts_received += 1
                        link.put_cond.notify_all()
                elif kind == "hb":
                    self._ingest_heartbeat(context, *header[1:])
                else:
                    self._ingest_wire(context, link, header)
        except Exception as exc:  # noqa: BLE001 - a wire failure
            self._link_failed(link, context, exc)
            end = link.data
            if end is not None:
                end.close()  # a worker still sending fails fast
        finally:
            with link.put_cond:
                link.data_done = True
                link.put_cond.notify_all()

    def _ingest_wire(self, context, link: Link, header: tuple) -> None:
        pass

    # -- failure attribution ---------------------------------------------
    def _declare_lost(self, link: Link, context, why: str) -> bool:
        """Fail the rank of a worker that vanished; False if it had left."""
        return self._fail_rank(link, context,
                               RankFailedError(f"rank {link.rank} {why}"))

    def _fail_rank(self, link: Link, context, err: BaseException) -> bool:
        # A rank that already reported its outcome, or whose link a
        # replacement superseded, is not failed again by its teardown;
        # otherwise blocked partners now fast-fail with RankFailedError
        # instead of timing out.
        rank = link.rank
        if link.replaced or context.rank_status(rank) != "running":
            return False
        if self._errors[rank] is None:
            self._errors[rank] = err
        context.mark_failed(rank)
        return True

    def _link_failed(self, link: Link, context, exc: BaseException) -> None:
        """Record a wire error on a worker's link as the rank's own error.

        The worker may still be alive, but nothing more it sends can be
        trusted, so the rank fails with the wire error itself — not a
        partner's later "rank N already failed" — and the world aborts
        as if the rank had raised.  The error keeps its traceback.
        """
        rank = link.rank
        with link.put_cond:
            if link.replaced or link.failure is not None:
                return
            link.failure = exc
        self._errors[rank] = exc
        context.mark_failed(rank)
        context.abort(f"rank {rank} link failed: {type(exc).__name__}: {exc}")

    # -- RPC dispatch ----------------------------------------------------
    def _dispatch(self, context, link, method: str, args: tuple):
        if method == "box_get":
            return encode_envelope(context.blocking_recv(*args))
        if method == "box_try_get":
            return encode_envelope(context.try_recv(*args))
        if method == "split":
            parent_comm_id, seqno, size, rank, value, members, world_rank = args
            return context.split_rendezvous(
                parent_comm_id, seqno, size, rank, tuple(value),
                list(members), world_rank,
            )
        if method == "shrink":
            parent_comm_id, seqno, rank, world_rank, members = args
            return context.shrink_rendezvous(
                parent_comm_id, seqno, rank, world_rank, list(members)
            )
        if method == "replace":
            return context.replace_rendezvous(args[0])
        if method == "check_collective":
            comm_id, seq, world_rank, op, signature, comm_size = args
            context.sanitizer.check_collective(
                comm_id, seq, world_rank, op, tuple(signature), comm_size
            )
            return None
        if method == "rank_status":
            return context.rank_status(args[0])
        if method == "abort":
            context.abort(args[0])
            return None
        if method == "revoke_current":
            context.revoke_current(args[0],
                                   args[1] if len(args) > 1 else None)
            return (context.revoked_below, context.revoke_reason)
        if method == "store_put":
            holder, key, value = args
            context.store_put(holder, key, value)
            return None
        if method == "store_items":
            return context.store_items(args[0])
        if method == "store_delete":
            context.store_delete(args[0], args[1])
            return None
        if method in _LIFECYCLE:
            payload, shards, (puts_sent, send_failure) = args
            return self._finish_rank(context, link, method, payload, shards,
                                     puts_sent, send_failure)
        raise CommunicatorError(f"unknown transport RPC {method!r}")

    def _finish_rank(self, context, link, method: str, payload,
                     shards: dict, puts_sent: int,
                     send_failure: str | None = None) -> bool:
        # Delivery-drain barrier: the rank is not done until every
        # payload it handed to the wire sits in a mailbox — otherwise a
        # partner could observe "failed with an empty queue" and raise
        # RankFailedError for a message that was actually sent.  A rank
        # whose send pump already failed can never drain its missing
        # puts: skip the doomed wait and attribute the loss below.  Nor
        # can puts arrive once the link's data loop has exited.
        with link.put_cond:
            if send_failure is None:
                deadline = time.monotonic() + DRAIN_TIMEOUT
                while (link.puts_received < puts_sent
                       and not link.data_done
                       and time.monotonic() < deadline):
                    link.put_cond.wait(timeout=0.1)
            lost = puts_sent - link.puts_received
        self._merge_shards(context, link.rank, shards)
        rank = link.rank
        if link.failure is not None:
            return True  # the wire error stays the rank's (_link_failed)
        if method == "finalize":
            if send_failure is not None and lost > 0:
                # The program completed but some accepted deliveries
                # never reached a mailbox; a clean finalize would make
                # the blocked receivers' diagnosis ("rank already
                # finalized with an empty queue") a lie.  Fail the rank
                # with the send path as the named cause instead.
                err = RankFailedError(
                    f"rank {rank} finished its program but its send "
                    f"path failed before {lost} staged "
                    f"{'delivery' if lost == 1 else 'deliveries'} "
                    f"reached the master ({send_failure})"
                )
                self._errors[rank] = err
                context.mark_failed(rank)
                return True
            self._values[rank] = payload
            context.mark_finalized(rank)
        elif method == "rank_killed":
            self._errors[rank] = decode_exception(payload)
            context.mark_failed(rank)
        else:
            exc = decode_exception(payload)
            self._errors[rank] = exc
            context.mark_failed(rank)
            context.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")
        return True

    def _ingest_heartbeat(self, context, rank: int, ts: float,
                          delta: dict) -> None:
        """Fold one heartbeat into the caller's telemetry objects."""
        try:
            self._merge_telemetry(context, rank, delta)
            hub = getattr(context, "telemetry", None)
            if hub is not None:
                hub.beat(rank, ts)
        except Exception:  # pragma: no cover - telemetry must not kill
            pass  # the data thread; deliveries matter more

    def _merge_telemetry(self, context, rank: int, shards: dict) -> None:
        """Merge the streaming shard slice (metrics/comm/recorder)."""
        tracer = context.tracer
        if tracer is not None and shards.get("metrics"):
            tracer.metrics.merge_snapshot(shards["metrics"])
        trace = context.comm_trace
        if trace is not None and shards.get("comm_trace"):
            trace.merge_state(shards["comm_trace"])
        recorder = getattr(context, "recorder", None)
        if recorder is not None and shards.get("recorder"):
            recorder.absorb_events(rank, shards["recorder"])

    def _merge_shards(self, context, rank: int, shards: dict) -> None:
        clock = shards.get("clock")
        if clock is not None:
            self._clocks[rank] = clock
        tracer = context.tracer
        if tracer is not None:
            spans = shards.get("spans")
            if spans:
                tracer.absorb_spans(spans)
        self._merge_telemetry(context, rank, shards)
        injector = context.faults
        if injector is not None and shards.get("faults"):
            events, ops = shards["faults"]
            injector.absorb(events, ops)
        sanitizer = context.sanitizer
        if sanitizer is not None and shards.get("sanitizer"):
            sanitizer.absorb_findings(shards["sanitizer"])
