"""Process transport: forked rank workers around a master-resident world.

True multi-core execution for the simulated runtime.  Each rank is a
forked worker process running the user's program against a
:class:`~repro.mpi.transport.worldproxy.WorkerContext` — a rank-local
stand-in that duck-types the :class:`~repro.mpi.context.SpmdContext`
surface the communicator, drivers, and checkpoint store use.  The
*world* itself — mailboxes, split/shrink rendezvous, rank status, the
node-local store, and the sanitizer — stays in the master process,
which is the single source of truth exactly like an MPI runtime daemon.
Everything above the wire — the worker context, RPC channel, send
pump, observability shards, and the master hub's launch/serve/reap
lifecycle and drain barrier — lives in
:mod:`~repro.mpi.transport.worldproxy` and is shared with the sockets
backend; this module supplies only the pipes-and-rings wire: the
:class:`_PipeEnd` framing, the per-worker :class:`_Link`, and the fork.

Wire layout per worker (all created *before* the fork so both sides
share the mappings):

* a duplex **control pipe** carrying RPC requests/replies and
  out-of-band abort/revoke pushes (small pickled tuples);
* a one-way **data pipe** carrying message-delivery headers;
* three :class:`~repro.mpi.transport.shm.ShmRing` shared-memory rings
  carrying raw ndarray bytes, pickle-free: ``data`` (worker→master,
  message payloads), ``ctl`` (worker→master, RPC-argument arrays), and
  ``reply`` (master→worker, RPC-result arrays).

The master runs two service threads per worker: a *data* thread
draining fire-and-forget deliveries into the destination mailbox (its
EOF is how a hard-died worker is detected and surfaced to partners as
:class:`~repro.errors.RankFailedError`; a ring failure instead becomes
the rank's own error), and a *control* thread
serving blocking RPCs.  A worker's blocked receive is the master's
``SpmdContext.blocking_recv`` — the method the threads backend runs
in-process — so failed-partner fast-fail, revocation checks, and the
sanitizer's wait-for-graph bookkeeping behave identically on both.

Delivery counters (``puts sent`` vs ``puts received``) gate the rank
lifecycle: a worker's finalize/crash report is processed only after
every payload it handed to the ring has reached its mailbox, so a
partner never observes "dead with an empty queue" for a message that
was actually sent.

Observability is sharded: each worker records spans, metrics, comm
tallies, and fault events into its forked copies and ships the
post-fork *delta* home with its lifecycle message; the master folds
the shards into the caller's objects, so ``tracer.spans``,
``comm_trace`` tallies, and the fault trace look the same as a
threaded run.  When a flight recorder or telemetry hub is attached,
workers additionally run a *heartbeat* thread streaming the
metrics/comm/recorder delta to the master every
``recorder.heartbeat_interval`` seconds as ``("hb", ...)`` messages on
the data path (the pump keeps the pipe single-writer), so mid-run
snapshots and crash postmortems see near-live state instead of only
the finalize merge.

Zero-copy move enforcement works across the process boundary: each
worker keeps a rank-local move ledger (a worker-resident
:class:`~repro.sanitize.Sanitizer` serving only the move prongs) that
registers every relinquished/received frozen buffer with its real call
site, and the sending site travels in the envelope's wire metadata —
so a worker-side write into a moved buffer raises
:class:`~repro.errors.UseAfterMoveError` naming the originating
``send(..., copy=False)``, on either end of the move, exactly like the
threads backend.  Worker-side findings ship home with the lifecycle
shards.
"""

from __future__ import annotations

import multiprocessing

from ...errors import CommunicatorError
from .base import Transport
from .net import LinkClosed, LinkTimeout
from .shm import DEFAULT_RING_BYTES, ShmRing, recv_arrays, send_arrays
from .worldproxy import Channel, Link, SendPump, WorldServerMixin, run_worker

__all__ = ["ProcessTransport"]


class _PipeEnd:
    """One side of a pipe and its rings, framed like a ``FramedSocket``.

    ``send`` puts ``(header, descrs)`` on the pipe and the raw array
    bytes into ``out_ring``; ``recv`` takes them back out of
    ``in_ring``.  A closed pipe raises :class:`LinkClosed`; a ring
    failure raises the ring's own :class:`CommunicatorError`.
    """

    def __init__(self, conn, out_ring: ShmRing | None,
                 in_ring: ShmRing | None) -> None:
        self._conn = conn
        self._out = out_ring
        self._in = in_ring

    def send(self, header, descrs: list = (), views: list = ()) -> None:
        try:
            self._conn.send((header, list(descrs)))
        except (OSError, ValueError) as exc:
            raise LinkClosed(f"pipe send failed: {exc}") from None
        if views:
            send_arrays(self._out, views)

    def recv(self, timeout: float | None = None):
        try:
            if timeout is not None and not self._conn.poll(timeout):
                raise LinkTimeout("no frame within poll timeout")
            header, descrs = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise LinkClosed(f"pipe closed: {exc}") from None
        return header, recv_arrays(self._in, descrs) if descrs else []

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            return self._conn.poll(timeout)
        except (EOFError, OSError) as exc:
            raise LinkClosed(f"pipe closed: {exc}") from None

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class _Link(Link):
    """Everything one worker shares with the master; built pre-fork.

    A duplex ctl pipe with a ``ctl`` ring (worker→master RPC arguments)
    and a ``reply`` ring (master→worker results), and a one-way data
    pipe with a ``data`` ring (worker→master payloads).  ``ctl`` and
    ``data`` are the master's ends; the worker's stay in
    ``worker_ctl`` / ``worker_data`` until the fork hands them over.
    """

    def __init__(self, rank: int, ring_bytes: int, mp_ctx) -> None:
        super().__init__(rank)
        rings = {}
        for role in ("data", "ctl", "reply"):
            rings[role] = ShmRing(ring_bytes)
            rings[role].label = f"rank {rank} {role} ring"
        ctl_master, ctl_worker = mp_ctx.Pipe(duplex=True)
        data_master, data_worker = mp_ctx.Pipe(duplex=False)
        self.ctl = _PipeEnd(ctl_master, rings["reply"], rings["ctl"])
        self.data = _PipeEnd(data_master, None, rings["data"])
        self.worker_ctl = _PipeEnd(ctl_worker, rings["ctl"], rings["reply"])
        self.worker_data = _PipeEnd(data_worker, rings["data"], None)

    def close_worker_ends(self) -> None:
        self.worker_ctl.close()
        self.worker_data.close()

    def wait_ready(self, deadline: float) -> bool:
        # The fork already handed the worker its ends; the master drops
        # its copies so each pipe end has exactly one owner and EOF
        # detection works.
        self.close_worker_ends()
        return True


def _worker_main(links: list, rank: int, fn, args, kwargs, cfg) -> None:
    """Entry point of a forked rank worker."""
    own = links[rank]
    # fd hygiene: drop the inherited master ends of every link and the
    # worker ends of every other worker — EOF detection on both sides
    # depends on each fd having exactly one owner.
    for link in links:
        link.close()
        if link is not own:
            link.close_worker_ends()
    run_worker(cfg, rank, fn, args, kwargs, Channel(own.worker_ctl),
               SendPump(own.worker_data))


class ProcessTransport(WorldServerMixin, Transport):
    """Ranks as forked processes; the master hosts the world state."""

    name = "procs"
    shared_world = False

    def __init__(self, *, ring_bytes: int = DEFAULT_RING_BYTES) -> None:
        self.ring_bytes = int(ring_bytes)

    # -- wire hooks of the master hub -----------------------------------
    def _open_wire(self, context) -> None:
        try:
            self._mp_ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            raise CommunicatorError(
                "backend='procs' needs the fork start method "
                "(POSIX only); use backend='threads' on this platform"
            ) from None

    def _new_link(self, rank: int) -> _Link:
        return _Link(rank, self.ring_bytes, self._mp_ctx)

    def _launch(self, link: _Link, links: list, cfg, program):
        # The fork inherits the master's current state, so cfg (and the
        # caller objects it references) travels by reference.
        fn, args, kwargs = program
        suffix = ("" if cfg.respawn_info is None
                  else f"-i{cfg.respawn_info['incarnation']}")
        proc = self._mp_ctx.Process(
            target=_worker_main,
            args=(links, link.rank, fn, args, kwargs, cfg),
            name=f"spmd-rank-{link.rank}{suffix}", daemon=True,
        )
        proc.start()
        return proc

    def _recv_data(self, link: _Link, context):
        try:
            return link.data.recv()
        except LinkClosed:
            # EOF without a lifecycle message: the worker died hard
            # (killed, segfaulted).
            self._declare_lost(link, context,
                               "worker process died unexpectedly")
            return None
