"""Socket transport: the master-resident world over framed TCP links.

The same execution model as the procs backend — rank workers in their
own processes, the authoritative world (mailboxes, rendezvous, rank
status, store, sanitizer) resident in the master, and everything above
the wire (RPC channel, send pump, the master hub's launch/serve/reap
lifecycle) shared via :mod:`~repro.mpi.transport.worldproxy` — but the
wire is TCP, hardened against the failure modes real networks have and
pipes do not:

* **Rendezvous handshake.**  The master binds a listener and hands each
  worker an address book entry ``(host, port, token, rank)``.  Every
  connection opens with a pickle-free JSON ``hello`` control frame
  (purpose, rank, token, connect bookkeeping — primitive fields only);
  the master verifies the token with a constant-time comparison
  *before* deserializing anything else from the connection, then
  acknowledges (JSON again) and wires the connection into the rank's
  link — the pickled envelope framing starts only after this
  authentication.  Each worker keeps two connections:
  a duplex **ctl** link (blocking RPCs plus out-of-band abort/revoke
  pushes) and a one-way **data** link (message deliveries, telemetry
  heartbeats, liveness pings, injected-fault notices).

* **Framing and codec.**  Frames are length-prefixed
  (:class:`~repro.mpi.transport.net.FramedSocket`): a pickled
  array-free header plus the raw bytes of its ndarrays via the shared
  :mod:`~repro.mpi.transport.codec` — array data is never pickled,
  matching the shm rings byte for byte, which is why results are
  bitwise identical across backends.

* **Retry with backoff.**  Connects and reconnects run under a
  :class:`~repro.mpi.transport.net.RetryPolicy` (bounded exponential
  backoff with jitter against reconnect stampedes).  A mid-stream
  reset of the data link is survived transparently: the pump
  reconnects under the policy, re-hellos with a bumped generation, and
  retransmits the frame the reset interrupted.  Retry counts travel in
  the hello ``info`` and land in
  :meth:`~repro.mpi.tracing.CommTrace.record_connect_retry` and the
  transport's ``net_health``.

* **Heartbeats and liveness.**  Workers always run a ping thread on
  the data path (interval ``heartbeat_interval``); the master stamps
  ``last_rx`` on every arriving frame and declares a worker lost when
  the link stays silent past ``liveness_timeout`` — surfacing
  :class:`~repro.errors.RankFailedError` to blocked partners instead
  of hanging.  OS-level TCP keepalive backs the application
  heartbeats.  A worker that dies with an EOF (crash, SIGKILL) is
  detected the same way the procs backend does, just over sockets.

* **Graceful degradation.**  A worker lost to an *injected* network
  partition (see :class:`~repro.faults.NetworkFaultRule`) is recorded
  as :class:`~repro.errors.RankKilledError` — the launcher treats it
  exactly like an injected crash, so fault-tolerant drivers
  revoke/shrink and complete on the survivors rather than aborting the
  world.  Because injection is simulated, the victim ships its
  ``FaultEvent`` record in-band just before going dark, which is how
  the master attributes the silence to the partition in the
  postmortem's ``network`` section.

Two launch modes share all of the above:

* default — workers are **forked** (like procs) and connect back over
  loopback TCP, so closures and caller objects work unchanged and the
  whole conformance suite runs on real sockets;
* ``hosts=[...]`` — workers are **spawned** via ``python -m
  repro.mpi.transport.sockworker`` and receive a pickled boot blob
  (program + world config) over the ctl link after the handshake.
  The program and its arguments must then be picklable; observability
  objects that cannot cross degrade to worker-local ``None`` (their
  master-side halves still work).  Remote hosts are reached by
  running the same command there by hand or any launcher you like —
  the handshake only needs TCP to ``(host, port)``.
"""

from __future__ import annotations

import hmac
import multiprocessing
import os
import pickle
import socket
import subprocess
import sys
import threading
import time

from ...errors import CommunicatorError, RankFailedError, RankKilledError
from ...faults.network import NetworkFaultState
from .base import Transport
from .codec import descr_nbytes
from .net import (
    DEFAULT_CONNECT_POLICY,
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_LIVENESS_TIMEOUT,
    FramedSocket,
    LinkClosed,
    LinkTimeout,
    RetryPolicy,
)
from .worldproxy import (
    Channel,
    Link,
    SendPump,
    WorkerConfig,
    WorldServerMixin,
    run_worker,
)

__all__ = ["SocketTransport"]

#: Environment overrides for the CLI and test harnesses.
LIVENESS_ENV_VAR = "REPRO_SOCKETS_LIVENESS"
HEARTBEAT_ENV_VAR = "REPRO_SOCKETS_HEARTBEAT"

#: How spawn mode hands the rendezvous token to a sockworker.  The
#: environment, never argv: command lines are world-readable via
#: ps/procfs for the life of the process, which would leak the shared
#: secret to every user on the host.
TOKEN_ENV_VAR = "REPRO_SOCKETS_TOKEN"

# Seconds the master's data thread sleeps between liveness checks.
_DATA_TICK = 0.2
# Seconds a half-open connection gets to complete its hello.
_HELLO_TIMEOUT = 10.0


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return fallback
    try:
        return float(raw)
    except ValueError:
        return fallback


# ----------------------------------------------------------------------
# Connection establishment (both sides)
# ----------------------------------------------------------------------
def _connect_framed(addr, purpose: str, rank: int, token: str,
                    policy: RetryPolicy, netstate, counters: dict,
                    generation: int = 1) -> FramedSocket:
    """Dial the master and complete the hello handshake, with retry.

    ``netstate`` (when present) gets a crack at every attempt first —
    injected ``connect_refused`` rules raise the same
    ``ConnectionRefusedError`` a closed port would, and the policy
    rides them out exactly like the real thing.  ``counters`` tallies
    attempts/retries for the hello info the master's health table and
    ``CommTrace.record_connect_retry`` are fed from.

    The hello exchange is pickle-free in both directions (JSON control
    frames, :meth:`~repro.mpi.transport.net.FramedSocket.send_json`):
    the pickled framing only starts after the master has verified the
    token and acknowledged, so an unauthenticated peer never gets to
    feed either side a pickle.
    """
    def attempt() -> socket.socket:
        counters["attempts"] += 1
        if netstate is not None:
            netstate.on_connect_attempt(purpose)
        return socket.create_connection(addr, timeout=_HELLO_TIMEOUT)

    def on_retry(_attempt: int, _exc: BaseException) -> None:
        counters["retries"] += 1

    sock = policy.run(attempt, retry_on=(OSError,), on_retry=on_retry)
    fs = FramedSocket(sock)
    fs.send_json({"kind": "hello", "purpose": purpose, "rank": rank,
                  "token": token, "generation": generation,
                  "attempts": counters["attempts"],
                  "retries": counters["retries"]})
    try:
        reply = fs.recv_json(timeout=_HELLO_TIMEOUT)
    except (LinkClosed, LinkTimeout):
        reply = None
    if not (isinstance(reply, dict) and reply.get("kind") == "ok"):
        fs.close()
        raise CommunicatorError(
            f"socket handshake rejected for rank {rank} ({purpose})"
        )
    return fs


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _SockChannel(Channel):
    """The RPC channel over the ctl link, cut by injected partitions.

    After an injected partition the control link is as unreachable as
    the data link: calls raise :class:`~repro.errors.RankKilledError`,
    which the rank-program harness reports as an injected death.
    """

    def __init__(self, fs: FramedSocket, netstate) -> None:
        super().__init__(fs)
        self._net = netstate

    def _check(self) -> None:
        if self._net is not None and self._net.dark:
            raise RankKilledError(
                "injected network partition severed the control link"
            )


class _SockPump(SendPump):
    """The send pump over the data link, hardened for real networks.

    Every frame passes through the injected-fault engine, a reset
    closes-with-RST then reconnects under the retry policy and
    retransmits, a partition drops everything after shipping its
    fault record, and real send failures get one reconnect-and-resend
    before the pump declares the path broken.
    """

    def __init__(self, fs: FramedSocket, addr, token: str, rank: int,
                 policy: RetryPolicy, netstate, counters: dict) -> None:
        self._addr = addr
        self._token = token
        self._rank = rank
        self._policy = policy
        self._net = netstate
        self._counters = counters
        self._generation = 1
        super().__init__(fs)

    def _ship(self, header, descrs, views) -> None:
        net = self._net
        if net is None:
            self._send_resilient(header, descrs, views)
            return
        if net.dark:
            return  # partitioned: frames vanish into the void
        nbytes = sum(descr_nbytes(d) for d in descrs)
        action = net.on_frame(nbytes, countable=(header[0] == "put"))
        events = net.drain_events()
        if action == "dark":
            # Injection is simulated, so the victim may tell the master
            # *why* it is about to go silent (the master could never
            # learn this over a real partition) — then never speak
            # again.  The master still waits out the liveness deadline
            # before declaring the rank dead, so detection timing stays
            # honest; only the root-cause attribution is deus ex.
            try:
                self._end.send(("netfault", events))
            except LinkClosed:  # pragma: no cover - already gone
                pass
            self._end.close()
            return
        if action == "reset":
            # The "network" killed the data link mid-stream: abort with
            # an RST, reconnect under the retry policy, retransmit.
            self._end.close(reset=True)
            self._reconnect()
            if events:
                self._end.send(("netfault", events))
            self._send_resilient(header, descrs, views)
            return
        if events:
            self._end.send(("netfault", events))
        self._send_resilient(header, descrs, views)

    def _send_resilient(self, header, descrs, views) -> None:
        try:
            self._end.send(header, descrs, views)
        except LinkClosed:
            # Real transient failure: one reconnect under the policy,
            # then retransmit.  A second failure surfaces to the rank.
            self._reconnect()
            self._end.send(header, descrs, views)

    def _reconnect(self) -> None:
        self._generation += 1
        self._end = _connect_framed(
            self._addr, "data", self._rank, self._token, self._policy,
            self._net, self._counters, generation=self._generation,
        )


class _Pinger:
    """Always-on liveness pings on the data path.

    Unlike the telemetry :class:`~repro.mpi.transport.worldproxy.
    Heartbeat` (which only runs when a recorder/hub is attached), the
    socket transport needs periodic traffic unconditionally — silence
    is its failure detector.
    """

    def __init__(self, pump: _SockPump, rank: int, interval: float) -> None:
        self._pump = pump
        self._rank = rank
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"spmd-sock-ping-{rank}"
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._pump.enqueue_raw(("ping", self._rank, time.time()))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def _run_sock_worker(cfg: WorkerConfig, rank: int, fn, args, kwargs,
                     ctl: FramedSocket, data: FramedSocket, addr,
                     token: str, netstate, knobs: dict,
                     counters: dict) -> None:
    """Worker core shared by the forked and spawned entry points."""
    channel = _SockChannel(ctl, netstate)
    pump = _SockPump(data, addr, token, rank, knobs["connect_policy"],
                     netstate, counters)
    pinger = _Pinger(pump, rank, knobs["heartbeat_interval"])
    try:
        run_worker(cfg, rank, fn, args, kwargs, channel, pump)
    finally:
        pinger.stop()
        # The lifecycle RPC only returns after the master's drain
        # barrier confirmed every delivery, so closing here loses
        # nothing; a partitioned worker closed its links already.
        channel.close()
        pump.close()


def _worker_main(addr, token: str, rank: int, fn, args, kwargs,
                 cfg: WorkerConfig, netrules, knobs: dict,
                 listener=None) -> None:
    """Entry point of a forked socket worker (default launch mode)."""
    if listener is not None:
        # fd hygiene: drop the forked copy of the master's rendezvous
        # listener so the port is released the moment the master
        # closes its own.
        try:
            listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
    netstate = NetworkFaultState(netrules, rank) if netrules else None
    if netstate is not None and not netstate.active:
        netstate = None
    counters = {"attempts": 0, "retries": 0}
    policy = knobs["connect_policy"]
    try:
        ctl = _connect_framed(addr, "ctl", rank, token, policy, netstate,
                              counters)
        data = _connect_framed(addr, "data", rank, token, policy, netstate,
                               counters)
    except BaseException:  # noqa: BLE001 - the master's connect grace
        return  # surfaces this as "never connected"
    _run_sock_worker(cfg, rank, fn, args, kwargs, ctl, data, addr, token,
                     netstate, knobs, counters)


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class _SockLink(Link):
    """Master-side state of one socket worker: two connections + liveness."""

    def __init__(self, rank: int) -> None:
        super().__init__(rank)
        self.data_gen = 0
        self.cond = threading.Condition()  # guards ctl/data attachment
        self.last_rx = time.monotonic()
        self.partitioned = False

    def attach(self, purpose: str, fs: FramedSocket) -> None:
        with self.cond:
            if purpose == "ctl":
                self.ctl = fs
            else:
                self.data = fs
                self.data_gen += 1
                self.last_rx = time.monotonic()
            self.cond.notify_all()

    def retire_data(self, gen: int) -> None:
        """Drop the data socket of generation ``gen`` (reset/EOF seen).

        A replacement attached concurrently has a newer generation and
        is left alone.
        """
        with self.cond:
            if self.data_gen == gen:
                self.data = None

    def wait_ready(self, deadline: float) -> bool:
        with self.cond:
            while self.ctl is None or self.data is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.cond.wait(min(remaining, 0.5))
            return True

    def retire(self) -> None:
        # A partitioned incarnation may still hold its sockets open:
        # closing them unblocks its serve threads via LinkClosed.
        self.close()


class SocketTransport(WorldServerMixin, Transport):
    """Ranks as processes reached over hardened framed-TCP links."""

    name = "sockets"
    shared_world = False

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 hosts=None, connect_policy: RetryPolicy | None = None,
                 heartbeat_interval: float | None = None,
                 liveness_timeout: float | None = None,
                 connect_grace: float | None = None,
                 python: str | None = None) -> None:
        self.host = host
        self.port = int(port)
        self.hosts = list(hosts) if hosts else None
        self.connect_policy = connect_policy or DEFAULT_CONNECT_POLICY
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else _env_float(HEARTBEAT_ENV_VAR, DEFAULT_HEARTBEAT_INTERVAL)
        )
        self.liveness_timeout = (
            liveness_timeout
            if liveness_timeout is not None
            else _env_float(LIVENESS_ENV_VAR, DEFAULT_LIVENESS_TIMEOUT)
        )
        self.connect_grace = (
            connect_grace if connect_grace is not None
            else max(30.0, 2.0 * self.liveness_timeout)
        )
        self.python = python or sys.executable
        self.net_health: dict[int, dict] = {}
        self._boot_blobs: dict[int, bytes] | None = None

    # -- wire hooks of the master hub -----------------------------------
    def _open_wire(self, context) -> None:
        if self.hosts is None:
            try:
                self._mp_ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX hosts
                raise CommunicatorError(
                    "backend='sockets' forks its workers by default (POSIX "
                    "only); pass hosts=[...] to spawn them instead"
                ) from None
            self._boot_blobs = None
        else:
            self._boot_blobs = {}
        self.net_health = {
            r: {"connect_attempts": 0, "retries": 0, "reconnects": 0,
                "heartbeat_age": None, "disconnect": None, "faults": []}
            for r in range(context.world_size)
        }
        # Postmortem bundles read the transport's health table off the
        # context (see repro.obs.postmortem, "network" section).
        context.net_health = self.net_health
        self._netrules = (
            tuple(context.faults.plan.network)
            if context.faults is not None else ()
        )
        self._knobs = {"connect_policy": self.connect_policy,
                       "heartbeat_interval": self.heartbeat_interval}
        # Workers launch before the accept thread starts (the hub forks
        # while single-threaded); the listener is already bound, so
        # early connects queue in the accept backlog — and the connect
        # RetryPolicy rides out a full backlog — until it does.
        self._token = os.urandom(16).hex()
        self._listener = socket.create_server((self.host, self.port))
        self._addr = self._listener.getsockname()[:2]

    def _new_link(self, rank: int) -> _SockLink:
        return _SockLink(rank)

    def _launch(self, link: _SockLink, links: list, cfg, program):
        fn, args, kwargs = program
        rank = link.rank
        if cfg.respawn_info is not None:
            self.net_health[rank]["reconnects"] += 1
        if self.hosts is None:
            # The fork start method passes args by reference, so the
            # child gets the listener object to close its inherited fd
            # copy — otherwise every worker would keep the rendezvous
            # port bound after the master closes it.
            suffix = ("" if cfg.respawn_info is None
                      else f"-i{cfg.respawn_info['incarnation']}")
            proc = self._mp_ctx.Process(
                target=_worker_main,
                args=(self._addr, self._token, rank, fn, args, kwargs, cfg,
                      self._netrules, self._knobs, self._listener),
                name=f"spmd-sock-rank-{rank}{suffix}", daemon=True,
            )
            proc.start()
            return proc
        # Spawn mode: a single-host loopback launch; the hosts entries
        # label the layout (and are recorded in net_health).  Reaching
        # a real remote host means running this exact command there —
        # the handshake only needs TCP to (host, port) plus the token in
        # the environment (argv would leak it via ps/procfs).
        self._boot_blobs[rank] = self._boot_blob(
            rank, fn, args, kwargs, cfg, self._netrules, self._knobs)
        self.net_health[rank]["host"] = self.hosts[rank % len(self.hosts)]
        env = dict(os.environ)
        env[TOKEN_ENV_VAR] = self._token
        host, port = self._addr
        return subprocess.Popen(
            [self.python, "-m", "repro.mpi.transport.sockworker",
             "--addr", f"{host}:{port}", "--rank", str(rank)],
            stdin=subprocess.DEVNULL, env=env,
        )

    def _start_wire(self, links: list, context) -> None:
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(self._listener, links, self._token, context),
            daemon=True, name="spmd-sock-accept",
        )
        self._accept_thread.start()

    def _close_wire(self, links: list) -> None:
        self._accept_thread.join(timeout=5.0)
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        now = time.monotonic()
        for link in links:
            self.net_health[link.rank]["heartbeat_age"] = round(
                now - link.last_rx, 3)
        self._boot_blobs = None

    @staticmethod
    def _demote_main(fn):
        """Re-point a ``__main__``-defined program at its importable home.

        ``python -m some.module`` runs the module *as* ``__main__``, so
        a program function defined there would pickle by reference as
        ``__main__.<name>`` — unresolvable inside the spawned worker,
        whose ``__main__`` is the sockworker entry point.  When
        ``__main__`` has an import spec (the ``-m`` case), the same
        function exists under its real module name; ship that one.
        """
        if getattr(fn, "__module__", None) != "__main__":
            return fn
        spec = getattr(sys.modules.get("__main__"), "__spec__", None)
        name = getattr(spec, "name", None)
        if name:
            import importlib

            try:
                twin = getattr(importlib.import_module(name),
                               fn.__qualname__, None)
            except Exception:
                twin = None
            if callable(twin):
                return twin
        raise CommunicatorError(
            f"hosts= workers cannot import {fn.__qualname__!r} from "
            f"__main__; move the program function into an importable "
            f"module"
        )

    def _boot_blob(self, rank: int, fn, args, kwargs, cfg, netrules,
                   knobs) -> bytes:
        fn = self._demote_main(fn)
        state = {slot: getattr(cfg, slot) for slot in WorkerConfig.__slots__}
        # Observability objects are worker-local copies; ones that
        # cannot cross the spawn boundary degrade to None (the
        # master-side halves — mailbox protocol, postmortems — still
        # work, the worker just ships no shards for them).
        for opt in ("comm_trace", "tracer", "recorder"):
            try:
                pickle.dumps(state[opt], protocol=4)
            except Exception:
                state[opt] = None
        try:
            return pickle.dumps(
                (fn, args, kwargs, state, netrules, knobs), protocol=4
            )
        except Exception as exc:
            raise CommunicatorError(
                f"hosts= workers boot over the wire: the program, its "
                f"arguments, and the fault/resilience configuration must "
                f"be picklable ({type(exc).__name__}: {exc}); use a "
                f"module-level program function"
            ) from None

    # -- rendezvous/accept loop ------------------------------------------
    def _accept_loop(self, listener, links, token: str, context) -> None:
        listener.settimeout(0.2)
        while not self._shutdown.is_set():
            try:
                sock, _peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # pragma: no cover - listener closed
                return
            fs = FramedSocket(sock)
            # The hello is a bounded JSON frame — nothing from this
            # connection is unpickled (or even trusted as a tuple)
            # until the token has passed a constant-time comparison.
            # A stray or hostile client gets its socket closed, never
            # a pickle.loads of its bytes.
            try:
                hello = fs.recv_json(timeout=_HELLO_TIMEOUT)
            except (LinkClosed, LinkTimeout):
                fs.close()
                continue
            peer_token = hello.get("token")
            if not (hello.get("kind") == "hello"
                    and isinstance(peer_token, str)
                    and hmac.compare_digest(peer_token, token)):
                fs.close()  # wrong token / stray connection: reject
                continue
            purpose = hello.get("purpose")
            rank = hello.get("rank")
            if not (isinstance(rank, int) and 0 <= rank < len(links)
                    and purpose in ("ctl", "data")):
                fs.close()
                continue
            info = {key: hello.get(key, 0)
                    for key in ("generation", "attempts", "retries")}
            link = links[rank]
            self._note_hello(context, link, purpose, info)
            try:
                fs.send_json({"kind": "ok", "world": len(links)})
                if purpose == "ctl" and self._boot_blobs is not None:
                    fs.send(("boot", self._boot_blobs[rank]))
            except LinkClosed:
                fs.close()
                continue
            link.attach(purpose, fs)

    def _note_hello(self, context, link: _SockLink, purpose: str,
                    info: dict) -> None:
        """Fold a hello's connect bookkeeping into health + comm trace."""
        h = self.net_health[link.rank]
        h["connect_attempts"] = max(h["connect_attempts"],
                                    int(info.get("attempts", 0)))
        new_retries = int(info.get("retries", 0)) - h["retries"]
        if new_retries > 0:
            h["retries"] += new_retries
            trace = context.comm_trace
            if trace is not None:
                for _ in range(new_retries):
                    trace.record_connect_retry(link.rank)
        if purpose == "data" and int(info.get("generation", 1)) > 1:
            h["reconnects"] += 1
        recorder = getattr(context, "recorder", None)
        if recorder is not None and int(info.get("generation", 1)) > 1:
            # Safe to write master-side: reconnect bookkeeping is rare
            # and the recorder merges by max sequence either way; the
            # authoritative per-rank op stream still comes from the
            # worker's shipped deltas.
            h.setdefault("reconnect_log", []).append(round(time.time(), 3))

    # -- data path -------------------------------------------------------
    def _recv_data(self, link: _SockLink, context):
        """The next data frame; silence is the worker's death certificate.

        Wakes every ``_DATA_TICK`` seconds to check the liveness
        deadline, so a partitioned or frozen worker surfaces as a failed
        rank within ``liveness_timeout`` — never a hang.  An EOF (reset
        or process death) retires the socket but starts no new clock:
        either a reconnect replaces it or the liveness deadline (running
        since the last received frame) expires.
        """
        while not (link.finished or link.replaced
                   or self._shutdown.is_set()):
            with link.cond:
                fs = link.data
                gen = link.data_gen
            if fs is None:
                if self._liveness_expired(link):
                    self._declare_lost(link, context,
                                       "data link lost and not re-established")
                    return None
                with link.cond:
                    link.cond.wait(_DATA_TICK)
                continue
            try:
                frame = fs.recv(timeout=_DATA_TICK)
            except LinkTimeout:
                if self._liveness_expired(link):
                    self._declare_lost(
                        link, context,
                        f"liveness deadline exceeded "
                        f"({self.liveness_timeout:.1f}s of silence)",
                    )
                    return None
                continue
            except LinkClosed:
                link.retire_data(gen)
                continue
            link.last_rx = time.monotonic()
            return frame
        return None

    def _ingest_wire(self, context, link: _SockLink, header: tuple) -> None:
        # "ping" frames carry nothing; stamping last_rx was the point.
        if header[0] == "netfault":
            self._absorb_netfault(context, link, header[1])

    def _liveness_expired(self, link: _SockLink) -> bool:
        return time.monotonic() - link.last_rx > self.liveness_timeout

    def _absorb_netfault(self, context, link: _SockLink, events) -> None:
        """Fold a worker's injected-network-fault records into the run."""
        events = [tuple(e) for e in events]
        injector = context.faults
        if injector is not None and events:
            injector.absorb(events, {})
        h = self.net_health[link.rank]
        for ev in events:
            kind = ev[2]
            h["faults"].append(kind)
            if kind == "net:partition":
                link.partitioned = True

    def _declare_lost(self, link: _SockLink, context, why: str) -> bool:
        """Record a worker's link death and fail the rank (once)."""
        rank = link.rank
        age = time.monotonic() - link.last_rx
        h = self.net_health[rank]
        h["disconnect"] = why
        h["heartbeat_age"] = round(age, 3)
        if link.partitioned and context.faults is not None:
            err: CommunicatorError = RankKilledError(
                f"injected network partition: rank {rank} went silent "
                f"({why}; last frame {age:.2f}s ago)"
            )
        else:
            err = RankFailedError(
                f"rank {rank} socket worker lost: {why} "
                f"(last frame {age:.2f}s ago)"
            )
        if not self._fail_rank(link, context, err):
            return False
        recorder = getattr(context, "recorder", None)
        if recorder is not None:
            # The worker can ship no more deltas (its link is gone), so
            # a master-side record cannot collide with absorb_events.
            try:
                recorder.record(rank, "fault", name="net:lost", reason=why)
            except Exception:  # pragma: no cover - telemetry best-effort
                pass
        return True
