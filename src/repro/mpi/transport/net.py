"""Network robustness primitives shared by every transport connection.

Three concerns live here, deliberately free of any transport state so
the socket backend, the resilience layer, and the request poller all
reuse the same arithmetic:

* :class:`RetryPolicy` — bounded exponential backoff with optional
  jitter.  One policy object serves three very different consumers:
  TCP connect/reconnect loops (wall-clock sleeps with jitter to avoid
  reconnect stampedes), the :class:`~repro.faults.Resilience` sender
  retry (logical-clock charges, jitter-free so replays stay
  deterministic), and :meth:`repro.mpi.request.Request.test`'s poll
  backoff (1 µs doubling to a 1 ms cap).

* :class:`FramedSocket` — length-prefixed envelope framing over a TCP
  stream using the shared :mod:`~repro.mpi.transport.codec`: each frame
  is a pickled array-free header plus the raw bytes of its lifted
  ndarrays.  Receives take a *poll timeout* that only fires between
  frames — once the first byte of a frame has arrived the reader
  switches to a generous intra-frame deadline, so a slow sender never
  desynchronizes the stream and a dead one surfaces as
  :class:`LinkClosed` instead of a hang.  Alongside the pickled
  framing, :meth:`~FramedSocket.send_json`/:meth:`~FramedSocket.
  recv_json` carry bounded, pickle-free JSON control frames — the
  rendezvous hello runs on those exclusively, so nothing from an
  unauthenticated connection is ever unpickled.

* :func:`configure_keepalive` — OS-level TCP keepalive, the last-ditch
  detector under the application-level heartbeats the socket transport
  runs (see ``docs/mpi-runtime.md``, Sockets backend).
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import time
from dataclasses import dataclass

from ...errors import CommunicatorError
from .codec import descr_nbytes, materialize_array

__all__ = [
    "RetryPolicy",
    "FramedSocket",
    "LinkClosed",
    "LinkTimeout",
    "configure_keepalive",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_LIVENESS_TIMEOUT",
    "DEFAULT_CONNECT_POLICY",
]

#: Application-level heartbeat cadence on the socket transport when the
#: caller attached no flight recorder (which otherwise sets the pace).
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: Seconds of total link silence (no frames, no heartbeats) after which
#: the master declares a worker's link broken and fails the rank.
DEFAULT_LIVENESS_TIMEOUT = 10.0

# Intra-frame deadline: once a frame has started arriving, how long the
# reader will wait for the rest before declaring the link torn.
_FRAME_DEADLINE = 30.0

# Upper bound on a JSON control frame (the pre-auth hello exchange).
# An unauthenticated peer must not be able to make the master buffer
# an arbitrarily large frame, so the length prefix is checked against
# this before a single payload byte is read.
_JSON_FRAME_MAX = 65536

_LEN = struct.Struct("<I")


class LinkClosed(CommunicatorError):
    """The peer's end of a framed link is gone (EOF, reset, torn frame)."""


class LinkTimeout(CommunicatorError):
    """No frame started arriving within the poll timeout (link still up)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with optional jitter.

    ``max_retries``
        Attempts beyond the first before :meth:`run` re-raises (a
        ``Request`` poller ignores this — polling has no budget).
    ``backoff_base``
        Delay before the first retry, in seconds.
    ``backoff_cap``
        Upper bound on any single delay; ``None`` leaves the doubling
        unbounded (the resilience layer's logical clock wants the raw
        exponential the tests assert on).
    ``jitter``
        Fraction of each delay randomized symmetrically around it
        (``0.25`` → ±25 %).  Callers that need determinism pass a
        seeded ``rng`` to :meth:`delay`/:meth:`run` or keep jitter 0.
    """

    max_retries: int = 8
    backoff_base: float = 1e-6
    backoff_cap: float | None = 1e-3
    jitter: float = 0.0

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff before 0-based retry ``attempt`` (exponential, capped).

        The exponent is clamped before exponentiating: a ``Request``
        poller calls this with an unbounded attempt counter, and
        ``2.0 ** 1024`` would overflow long before the cap applied.
        """
        d = self.backoff_base * (2.0 ** min(attempt, 64))
        if self.backoff_cap is not None:
            d = min(d, self.backoff_cap)
        if self.jitter and rng is not None:
            d *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return d

    def run(self, fn, *, retry_on, on_retry=None, rng=None,
            sleep=time.sleep):
        """Call ``fn()`` with bounded retry on ``retry_on`` exceptions.

        ``on_retry(attempt, exc)`` fires before each backoff sleep —
        the hook retry counters and flight-recorder events hang off.
        The final failure re-raises the last exception unchanged.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except retry_on as exc:
                if attempt >= self.max_retries:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(self.delay(attempt, rng=rng))
                attempt += 1


#: Connect/reconnect default: ~6 s of total patience (50 ms doubling to
#: 1 s, ±25 % jitter against reconnect stampedes), enough to ride out a
#: master that is still binding its listener or a briefly dropped link.
DEFAULT_CONNECT_POLICY = RetryPolicy(
    max_retries=8, backoff_base=0.05, backoff_cap=1.0, jitter=0.25
)


def configure_keepalive(sock: socket.socket, *, idle: int = 1,
                        interval: int = 2, count: int = 5) -> None:
    """Enable OS-level TCP keepalive probes on ``sock`` (best effort).

    The platform-specific knobs are guarded — on hosts that lack them
    the bare ``SO_KEEPALIVE`` still stands, and the application-level
    heartbeat remains the primary liveness signal either way.
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for opt, value in (
            (getattr(socket, "TCP_KEEPIDLE", None), idle),
            (getattr(socket, "TCP_KEEPINTVL", None), interval),
            (getattr(socket, "TCP_KEEPCNT", None), count),
        ):
            if opt is not None:
                sock.setsockopt(socket.IPPROTO_TCP, opt, value)
    except OSError:  # pragma: no cover - exotic stacks
        pass


class FramedSocket:
    """Length-prefixed message framing over one TCP connection.

    A frame is ``<u32 header length><pickled (header, descrs)><raw
    array bytes...>`` where ``descrs`` are the shared codec's array
    descriptors; the array bytes are streamed straight from the sender's
    buffer views and rebuilt with :func:`~repro.mpi.transport.codec.
    materialize_array` on arrival — ndarray data is never pickled.

    Reads are buffered; :meth:`recv` takes a poll timeout that applies
    only *between* frames so a liveness-checking reader can wake
    periodically without ever desynchronizing mid-frame.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(True)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass
        configure_keepalive(sock)
        self._sock = sock
        self._rbuf = bytearray()

    def fileno(self) -> int:
        return self._sock.fileno()

    @property
    def peer(self):
        try:
            return self._sock.getpeername()
        except OSError:
            return None

    def close(self, *, reset: bool = False) -> None:
        """Close the link; ``reset=True`` aborts with an RST (SO_LINGER 0)."""
        try:
            if reset:
                self._sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
            self._sock.close()
        except OSError:
            pass

    # -- send -----------------------------------------------------------
    def send(self, header, descrs: list = (), views: list = ()) -> None:
        """Write one frame; raises :class:`LinkClosed` on a dead peer."""
        blob = pickle.dumps((header, list(descrs)), protocol=4)
        try:
            self._sock.settimeout(None)
            self._sock.sendall(_LEN.pack(len(blob)))
            self._sock.sendall(blob)
            for view in views:
                self._sock.sendall(view)
        except (OSError, ValueError) as exc:
            raise LinkClosed(f"socket send failed: {exc}") from None

    def send_json(self, obj: dict) -> None:
        """Write one pickle-free control frame (same length prefix).

        The hello handshake runs on these exclusively: JSON carries
        only primitive fields, so neither side deserializes anything
        executable before the rendezvous token has been verified.
        """
        blob = json.dumps(obj, separators=(",", ":")).encode("utf-8")
        try:
            self._sock.settimeout(None)
            # One write: a peer reading the short reply with a single
            # recv() gets the whole frame, not just its length prefix.
            self._sock.sendall(_LEN.pack(len(blob)) + blob)
        except (OSError, ValueError) as exc:
            raise LinkClosed(f"socket send failed: {exc}") from None

    # -- recv -----------------------------------------------------------
    def _read_exact(self, n: int, deadline: float | None) -> bytearray:
        """Read exactly ``n`` bytes (buffered), honoring ``deadline``.

        Returns a *mutable* buffer: received arrays are materialized
        over it directly, and a payload that was writeable on the
        sender side must stay writeable on arrival.
        """
        while len(self._rbuf) < n:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise LinkClosed(
                        "socket frame torn: peer stopped mid-frame"
                    )
                self._sock.settimeout(min(remaining, _FRAME_DEADLINE))
            else:
                self._sock.settimeout(None)
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                continue
            except OSError as exc:
                raise LinkClosed(f"socket recv failed: {exc}") from None
            if not chunk:
                raise LinkClosed("socket closed by peer")
            self._rbuf += chunk
        out = self._rbuf[:n]
        del self._rbuf[:n]
        return out

    def recv(self, timeout: float | None = None):
        """Read one frame; returns ``(header, arrays)``.

        ``timeout`` bounds only the wait for the frame to *start*
        (raising :class:`LinkTimeout`); once the length prefix is in,
        the intra-frame deadline takes over and a stalled sender
        surfaces as :class:`LinkClosed`.
        """
        if not self._rbuf:
            if timeout is not None:
                self._sock.settimeout(timeout)
            else:
                self._sock.settimeout(None)
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                raise LinkTimeout("no frame within poll timeout") from None
            except OSError as exc:
                raise LinkClosed(f"socket recv failed: {exc}") from None
            if not chunk:
                raise LinkClosed("socket closed by peer")
            self._rbuf += chunk
        deadline = time.monotonic() + _FRAME_DEADLINE
        (length,) = _LEN.unpack(self._read_exact(4, deadline))
        header, descrs = pickle.loads(self._read_exact(length, deadline))
        arrays = [
            materialize_array(d, self._read_exact(descr_nbytes(d), deadline))
            for d in descrs
        ]
        return header, arrays

    def recv_json(self, timeout: float | None = None) -> dict:
        """Read one pickle-free control frame; returns the decoded dict.

        Safe to call on an **unauthenticated** connection: the frame
        length is bounded by ``_JSON_FRAME_MAX`` before any payload is
        buffered, the payload is parsed with :func:`json.loads` (never
        pickle), and anything malformed — oversized prefix, invalid
        UTF-8/JSON, a non-object top level — raises
        :class:`LinkClosed` so the caller drops the connection.
        ``timeout`` bounds the wait for the frame to start
        (:class:`LinkTimeout`), like :meth:`recv`.
        """
        if not self._rbuf:
            self._sock.settimeout(timeout)
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                raise LinkTimeout("no frame within poll timeout") from None
            except OSError as exc:
                raise LinkClosed(f"socket recv failed: {exc}") from None
            if not chunk:
                raise LinkClosed("socket closed by peer")
            self._rbuf += chunk
        deadline = time.monotonic() + _FRAME_DEADLINE
        (length,) = _LEN.unpack(self._read_exact(4, deadline))
        if length > _JSON_FRAME_MAX:
            raise LinkClosed(
                f"oversized control frame ({length} bytes) rejected"
            )
        blob = self._read_exact(length, deadline)
        try:
            obj = json.loads(bytes(blob).decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise LinkClosed(f"malformed control frame: {exc}") from None
        if not isinstance(obj, dict):
            raise LinkClosed("malformed control frame: not an object")
        return obj

    def poll(self, timeout: float = 0.0) -> bool:
        """True when at least one buffered/readable byte is pending."""
        if self._rbuf:
            return True
        import select

        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):
            return False
        return bool(ready)
