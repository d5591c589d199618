"""Shared-memory SPSC ring buffers for the process transport.

The process transport moves ndarray payloads between a worker process
and the master through :class:`ShmRing` — a bounded byte ring over an
anonymous shared ``mmap`` created *before* the fork, so both sides
address the same physical pages with no filesystem object to leak and
no cleanup to race (the mapping dies with its last process).  Only raw
array bytes travel through the ring; everything else about a message —
the container skeleton, dtype/shape/order descriptors, envelope
metadata — rides the control pipe as small picklable tuples.  Array
*data* is never pickled.

The ndarray (de)serialization itself lives in the transport-neutral
:mod:`repro.mpi.transport.codec` (shared with the socket transport);
this module re-exports the codec names it historically owned and adds
the ring-specific streaming helpers :func:`send_arrays` /
:func:`recv_arrays`.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

from ...errors import CommunicatorError
from .codec import (
    ArrayRef,
    descr_nbytes,
    join_arrays,
    materialize_array,
    prepare_arrays,
    split_arrays,
)

__all__ = [
    "ShmRing",
    "ArrayRef",
    "split_arrays",
    "join_arrays",
    "prepare_arrays",
    "materialize_array",
    "recv_arrays",
    "send_arrays",
    "DEFAULT_RING_BYTES",
]


#: Default per-direction ring capacity.  Payloads larger than the ring
#: stream through it in chunks, so this bounds memory, not message size.
DEFAULT_RING_BYTES = 8 * 1024 * 1024

# Spin-wait backoff for a full (writer) / empty (reader) ring: start at
# 1 us, double to a 0.5 ms cap — cheap enough to stay responsive, long
# enough to get off the CPU when the peer is busy.
_BACKOFF_START = 1e-6
_BACKOFF_CAP = 5e-4


class ShmRing:
    """Single-producer single-consumer byte ring over shared anonymous mmap.

    The first 16 bytes are two monotonically increasing 64-bit cursors:
    ``head`` (bytes consumed, written only by the reader) and ``tail``
    (bytes produced, written only by the writer).  Each side mutates
    only its own cursor, so no lock is needed.  Create the ring
    *before* forking — both processes then share the mapping.

    Cursor access: both cursors are read and written as whole words
    through a ``uint64`` view of the page-aligned mapping — one aligned
    8-byte load or store each, so a peer never observes a cursor half
    written.  (``struct.pack_into``/``unpack_from`` copy byte by byte and
    can tear: a reader could see a ``tail`` below its own ``head``.)
    Every load checks the ring
    invariant ``0 <= tail - head <= capacity`` and raises a
    :class:`~repro.errors.CommunicatorError` naming the ring
    (:attr:`label`) when it does not hold.

    Memory ordering: the writer copies payload bytes and *then* stores
    ``tail``; the reader loads ``tail`` and *then* copies.  The protocol
    relies on the CPU keeping stores in program order and loads in
    program order, which x86-64 guarantees (total store order).  No
    fence is issued, so on weakly ordered CPUs (aarch64, POWER) a reader
    could observe a new ``tail`` before the bytes it covers: there the
    ring is not known to be correct.
    """

    _CTRL = 16
    _HEAD = 0
    _TAIL = 1

    #: Names the ring in errors; the process transport sets it per link.
    label = "shared-memory ring"

    def __init__(self, capacity: int = DEFAULT_RING_BYTES) -> None:
        if capacity <= 0:
            raise CommunicatorError("ring capacity must be positive")
        self.capacity = int(capacity)
        self._mm = mmap.mmap(-1, self._CTRL + self.capacity)
        self._cursors = np.frombuffer(self._mm, dtype=np.uint64, count=2)
        self._buf = memoryview(self._mm)[self._CTRL:]

    def _used(self, head: int, tail: int) -> int:
        """``tail - head``, checked against the ring invariant."""
        used = tail - head
        if not 0 <= used <= self.capacity:
            raise CommunicatorError(
                f"{self.label}: corrupt cursors (head={head}, tail={tail}, "
                f"capacity={self.capacity}); the ring can no longer be read"
            )
        return used

    def _wait(self, deadline: float, backoff: float, what: str) -> float:
        if time.monotonic() > deadline:
            raise CommunicatorError(
                f"{self.label} stalled while {what} — peer process "
                "is not draining (likely dead or deadlocked)"
            )
        time.sleep(backoff)
        return min(backoff * 2, _BACKOFF_CAP)

    def write(self, data, *, timeout: float = 600.0) -> None:
        """Stream ``data`` (a 1-D byte view) into the ring, blocking on space.

        Publishes the tail cursor after every chunk, so a payload larger
        than the ring flows through it while the reader drains
        concurrently.
        """
        view = memoryview(data).cast("B")
        n = len(view)
        written = 0
        tail = self._cursors.item(self._TAIL)
        deadline = time.monotonic() + timeout
        backoff = _BACKOFF_START
        while written < n:
            free = self.capacity - self._used(
                self._cursors.item(self._HEAD), tail)
            if free == 0:
                backoff = self._wait(deadline, backoff, "writing")
                continue
            backoff = _BACKOFF_START
            pos = tail % self.capacity
            chunk = min(n - written, free, self.capacity - pos)
            self._buf[pos:pos + chunk] = view[written:written + chunk]
            written += chunk
            tail += chunk
            self._cursors[self._TAIL] = tail

    def read_into(self, out, *, timeout: float = 600.0) -> None:
        """Fill ``out`` (a writable 1-D byte view) from the ring, blocking."""
        view = memoryview(out).cast("B")
        n = len(view)
        got = 0
        head = self._cursors.item(self._HEAD)
        deadline = time.monotonic() + timeout
        backoff = _BACKOFF_START
        while got < n:
            avail = self._used(head, self._cursors.item(self._TAIL))
            if avail == 0:
                backoff = self._wait(deadline, backoff, "reading")
                continue
            backoff = _BACKOFF_START
            pos = head % self.capacity
            chunk = min(n - got, avail, self.capacity - pos)
            view[got:got + chunk] = self._buf[pos:pos + chunk]
            got += chunk
            head += chunk
            self._cursors[self._HEAD] = head

    def read_bytes(self, n: int, *, timeout: float = 600.0) -> bytearray:
        """Read exactly ``n`` bytes into a fresh buffer."""
        out = bytearray(n)
        if n:
            self.read_into(out, timeout=timeout)
        return out


def recv_arrays(ring: ShmRing, descrs: list[tuple], *,
                timeout: float = 600.0) -> list[np.ndarray]:
    """Read one array per descriptor from the ring, in order."""
    out = []
    for descr in descrs:
        nbytes = descr_nbytes(descr)
        out.append(materialize_array(descr, ring.read_bytes(nbytes, timeout=timeout)))
    return out


def send_arrays(ring: ShmRing, views: list, *, timeout: float = 600.0) -> None:
    """Write prepared byte views into the ring, in descriptor order."""
    for view in views:
        ring.write(view, timeout=timeout)
