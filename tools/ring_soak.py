"""Soak the transports under sustained traffic.

By default, two ranks on ``backend="procs"`` bounce a one-element
array back and forth ``--rounds`` times per run.  Every round trip
moves each rank's data ring and the RPC rings it blocks on, so a ring
cursor that can be observed half written (a torn read) shows up within
a few thousand rounds on a multi-core host.

``--mixed`` runs the mixed-traffic round instead, on every backend
(threads, procs, sockets) with four ranks: a ping-pong between rank
pairs, an ``allreduce``, a 1 MiB ``bcast`` (alternating the binomial
and scatter+allgather algorithms; on procs it wraps the 8 MiB rings
every few rounds, so payloads stream through them in chunks), an
``isend`` flood around a ring drained by ``irecv``, and a ``dup``
every few rounds.  Every received value is checked.

Each run prints one line with its outcome and wall time; the exit code
is the number of failed runs.

    PYTHONPATH=src python tools/ring_soak.py --rounds 8000 --runs 3
    PYTHONPATH=src python tools/ring_soak.py --mixed --rounds 100
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.mpi import available_backends, run_spmd, waitall  # noqa: E402

MIXED_RANKS = 4
BCAST_BYTES = 1 << 20
FLOOD = 16  # isends per rank per round
DUP_EVERY = 8  # rounds between communicator dups


def ping_pong(comm, rounds: int) -> int:
    buf = np.zeros(1)
    peer = 1 - comm.rank
    for i in range(rounds):
        if comm.rank == 0:
            buf[0] = i
            comm.send(buf, dest=peer, tag=1)
            buf = comm.recv(source=peer, tag=2)
        else:
            buf = comm.recv(source=peer, tag=1)
            comm.send(buf, dest=peer, tag=2)
    return int(buf[0])


def _check(ok: bool, round_no: int, what: str) -> None:
    if not ok:
        raise AssertionError(f"round {round_no}: {what}")


def mixed(comm, rounds: int) -> int:
    big = np.arange(BCAST_BYTES // 8, dtype=np.float64)
    p = comm.size
    work = comm
    for i in range(rounds):
        if i % DUP_EVERY == 0:
            work = comm.dup()
        r = work.rank
        peer = r ^ 1
        if peer < p:
            if r % 2 == 0:
                work.send(np.array([i, r]), peer, tag=1)
                back = work.recv(peer, tag=2)
            else:
                back = work.recv(peer, tag=1)
                work.send(back, peer, tag=2)
            _check(list(back) == [i, r - r % 2], i, f"ping-pong got {back}")
        total = work.allreduce(np.array([float(i + r)]))
        _check(total[0] == p * i + p * (p - 1) / 2, i,
               f"allreduce got {total[0]}")
        root = i % p
        got = work.bcast(big + i if r == root else None, root=root,
                         algorithm=("binomial", "scatter_allgather")[i % 2])
        _check(got.shape == big.shape and got[0] == i
               and got[-1] == big[-1] + i, i, "bcast payload corrupted")
        right, left = (r + 1) % p, (r - 1) % p
        sends = [work.isend(np.array([i, k]), right, tag=100 + k)
                 for k in range(FLOOD)]
        flood = waitall([work.irecv(left, tag=100 + k) for k in range(FLOOD)])
        waitall(sends)
        _check(all(list(v) == [i, k] for k, v in enumerate(flood)), i,
               "isend flood out of order")
    return rounds - 1  # the last round completed, as ping_pong reports it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=8000)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--mixed", action="store_true",
                        help="mixed-traffic rounds on every backend")
    ns = parser.parse_args(argv)
    if ns.mixed:
        prog, nprocs, backends, what = (mixed, MIXED_RANKS,
                                        available_backends(), "mixed rounds")
    else:
        prog, nprocs, backends, what = (ping_pong, 2, ["procs"],
                                        "round trips")
    failed = 0
    for run in range(1, ns.runs + 1):
        for backend in backends:
            start = time.perf_counter()
            try:
                result = run_spmd(prog, nprocs, backend=backend,
                                  rounds=ns.rounds, recv_timeout=60.0)
                last = result.values[0]
                if last != ns.rounds - 1:
                    raise AssertionError(f"last round {last}, expected "
                                         f"{ns.rounds - 1}")
                outcome = "ok"
            except Exception as exc:  # noqa: BLE001 - report, keep soaking
                failed += 1
                outcome = f"FAILED {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            label = f" {backend}" if ns.mixed else ""
            print(f"run {run}/{ns.runs}{label}: {ns.rounds} {what}, "
                  f"{elapsed:.1f}s, {outcome}", flush=True)
    return failed


if __name__ == "__main__":
    sys.exit(main())
