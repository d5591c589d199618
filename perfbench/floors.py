"""Layer-floor microbenchmarks, measured from outside the program.

* ``queue_8b_us`` — one-way 8-byte handoff through a bare
  ``queue.SimpleQueue`` between two threads (the floor under the
  threads backend's mailboxes);
* ``socket_8b_us`` — one-way 8-byte ping-pong over raw loopback TCP to
  a child process (the floor under the sockets backend);
* ``comm_8b_us`` — the same two figures for ``Communicator``: 8-byte
  one-way p2p and an 8-double allreduce, on a given backend.

Each is the median over a few repetitions of a timed ping-pong.
"""

from __future__ import annotations

import queue
import socket
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from repro.mpi import run_spmd

from .workloads import NRANKS

__all__ = ["queue_8b_us", "socket_8b_us", "comm_8b_us"]

REPS = 5

_ECHO = """
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
for _ in range(int(sys.argv[2])):
    buf = b""
    while len(buf) < 8:
        chunk = s.recv(8 - len(buf))
        if not chunk:
            sys.exit(1)
        buf += chunk
    s.sendall(buf)
s.close()
"""


def queue_8b_us(n: int = 2000) -> float:
    """One-way microseconds of an 8-byte SimpleQueue handoff."""
    ping, pong = queue.SimpleQueue(), queue.SimpleQueue()
    payload = bytes(8)

    def echo():
        for _ in range(n * REPS):
            pong.put(ping.get())

    t = threading.Thread(target=echo, daemon=True)
    t.start()
    runs = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        for _ in range(n):
            ping.put(payload)
            pong.get()
        runs.append((time.perf_counter() - t0) / (2 * n) * 1e6)
    t.join(timeout=10)
    return statistics.median(runs)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    buf = b""
    while len(buf) < size:
        chunk = sock.recv(size - len(buf))
        if not chunk:
            raise ConnectionError("echo peer closed the connection")
        buf += chunk
    return buf


def socket_8b_us(n: int = 1000) -> float:
    """One-way microseconds of an 8-byte loopback TCP ping-pong."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        child = subprocess.Popen(
            [sys.executable, "-c", _ECHO, str(port), str(n * REPS)]
        )
        try:
            listener.settimeout(30)
            conn, _ = listener.accept()
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                payload = bytes(8)
                runs = []
                for _ in range(REPS):
                    t0 = time.perf_counter()
                    for _ in range(n):
                        conn.sendall(payload)
                        _recv_exact(conn, 8)
                    runs.append((time.perf_counter() - t0) / (2 * n) * 1e6)
        finally:
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    return statistics.median(runs)


def _comm_program(comm, n_p2p: int, n_allreduce: int):
    x = np.zeros(1)
    v = np.ones(8)
    p2p, allreduce = [], []
    for _ in range(REPS):
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(n_p2p):
            if comm.rank == 0:
                comm.send(x, 1, tag=7)
                comm.recv(1, tag=7)
            else:
                comm.send(comm.recv(0, tag=7), 0, tag=7)
        p2p.append((time.perf_counter() - t0) / (2 * n_p2p) * 1e6)
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(n_allreduce):
            comm.allreduce(v)
        allreduce.append((time.perf_counter() - t0) / n_allreduce * 1e6)
    return statistics.median(p2p), statistics.median(allreduce)


def comm_8b_us(backend: str, n_p2p: int, n_allreduce: int) -> tuple[float, float]:
    """``(p2p one-way us, 8-double allreduce us)`` on rank 0."""
    res = run_spmd(_comm_program, NRANKS, n_p2p, n_allreduce, backend=backend,
                   recv_timeout=30.0)
    return res.values[0]
