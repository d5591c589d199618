"""ShmRing cursor integrity: forged cursors, a cross-fork stream, and
how a ring failure on the master surfaces through ``run_spmd``.

The ring's 16-byte header holds two native-endian ``u64`` cursors,
``head`` then ``tail``.  A cursor pair that violates ``0 <= tail - head
<= capacity`` must surface as a :class:`CommunicatorError` naming the
ring, never as a NumPy/memoryview ``ValueError`` or a corrupt copy.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import sys
import time
import traceback

import numpy as np
import pytest

from repro.errors import CommunicatorError, RankFailedError, WorldAbortedError
from repro.mpi import run_spmd
from repro.mpi.transport.shm import ShmRing
from repro.mpi.transport.worldproxy import DRAIN_TIMEOUT

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="needs the fork start method"
)


def _forge(ring: ShmRing, head: int, tail: int) -> None:
    struct.pack_into("=QQ", ring._mm, 0, head, tail)


@pytest.mark.parametrize("head, tail", [(40, 8), (0, 65)],
                         ids=["tail-behind-head", "tail-beyond-capacity"])
def test_forged_cursor_raises_named_error(head, tail):
    ring = ShmRing(64)
    ring.label = "rank 3 data ring"
    _forge(ring, head, tail)
    with pytest.raises(CommunicatorError, match="rank 3 data ring"):
        ring.read_into(bytearray(4), timeout=1.0)
    with pytest.raises(CommunicatorError, match="rank 3 data ring"):
        ring.write(b"abcd", timeout=1.0)


def _message(i: int) -> bytes:
    # Odd, varying sizes move the cursors through every byte carry.
    return bytes((i + k) % 256 for k in range(1 + i % 61))


def _stream(ring: ShmRing, count: int) -> None:
    for i in range(count):
        ring.write(_message(i), timeout=20.0)


def test_cross_fork_stream_keeps_cursors_whole():
    """A writer process streams small messages into a reader process.

    Both sides stay busy, so the reader loads ``tail`` while the writer
    is storing it (and the writer loads ``head`` while the reader is
    storing it) tens of thousands of times.  A cursor access that is not
    one whole 8-byte word then shows up as a torn read — a cursor that
    runs backwards or past the capacity — within seconds on a
    multi-core host.
    """
    count = 40000
    ring = ShmRing(4096)
    writer = multiprocessing.get_context("fork").Process(
        target=_stream, args=(ring, count), daemon=True,
    )
    writer.start()
    try:
        for i in range(count):
            expected = _message(i)
            got = ring.read_bytes(len(expected), timeout=20.0)
            assert got == expected, f"message {i} corrupted"
    finally:
        writer.join(timeout=20.0)
        if writer.is_alive():
            writer.kill()
    assert writer.exitcode == 0


def test_master_side_ring_failure_is_the_ranks_own_error(monkeypatch):
    """The master's read of rank 1's data ring sees a torn cursor.

    The run must fail with that ring error — naming the ring, with the
    master-side traceback — well inside the drain timeout, instead of
    waiting it out and surfacing only rank 0's "rank 1 already failed".
    """
    master = os.getpid()
    real_read_into = ShmRing.read_into

    def torn_read_into(self, out, **kwargs):
        if os.getpid() == master and self.label == "rank 1 data ring":
            # A private copy of the cursors with ``tail`` past capacity:
            # the worker still writes the real shared ones.
            head = self._cursors.item(0)
            self._cursors = np.array([head, head + self.capacity + 1],
                                     dtype=np.uint64)
        return real_read_into(self, out, **kwargs)

    monkeypatch.setattr(ShmRing, "read_into", torn_read_into)

    def prog(comm):
        if comm.rank == 1:
            comm.send(np.arange(4.0), dest=0, tag=3)
        else:
            comm.recv(source=1, tag=3)
        comm.barrier()

    start = time.monotonic()
    with pytest.raises(CommunicatorError, match="rank 1 data ring") as info:
        run_spmd(prog, 2, backend="procs", recv_timeout=30.0)
    elapsed = time.monotonic() - start
    assert not isinstance(info.value, (RankFailedError, WorldAbortedError))
    assert "corrupt cursors" in str(info.value)
    frames = "".join(traceback.format_tb(info.value.__traceback__))
    assert "_serve_data" in frames
    assert elapsed < 5.0 < DRAIN_TIMEOUT
