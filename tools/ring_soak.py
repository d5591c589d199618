"""Ping-pong soak for the process transport's shared-memory rings.

Two ranks on ``backend="procs"`` bounce a one-element array back and
forth ``--rounds`` times per run.  Every round trip moves each rank's
data ring and the RPC rings it blocks on, so a ring cursor that can be
observed half written (a torn read) shows up within a few thousand
rounds on a multi-core host.  Each run prints one line with its
outcome and wall time; the exit code is the number of failed runs.

    PYTHONPATH=src python tools/ring_soak.py --rounds 8000 --runs 3
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.mpi import run_spmd  # noqa: E402


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=8000)
    parser.add_argument("--runs", type=int, default=1)
    ns = parser.parse_args(argv)
    failed = 0
    for run in range(1, ns.runs + 1):
        start = time.perf_counter()
        try:
            result = run_spmd(ping_pong, 2, backend="procs",
                              rounds=ns.rounds, recv_timeout=60.0)
            last = result.values[0]
            if last != ns.rounds - 1:
                raise AssertionError(f"last round {last}, expected "
                                     f"{ns.rounds - 1}")
            outcome = "ok"
        except Exception as exc:  # noqa: BLE001 - report and keep soaking
            failed += 1
            outcome = f"FAILED {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        print(f"run {run}/{ns.runs}: {ns.rounds} round trips, "
              f"{elapsed:.1f}s, {outcome}", flush=True)
    return failed


if __name__ == "__main__":
    sys.exit(main())
