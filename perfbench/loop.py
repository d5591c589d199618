"""The closed loop: rank 0 paces decompositions across a warm world.

Every rank appends one JSON line per decomposition to its own file in
the world's directory, outside the timed interval, so the record of
what completed survives a world that dies.  A dead world is relaunched
for the remaining time and the decomposition in flight when it died
counts as failed; the relaunch itself is in no decomposition's time.

Timed interval of decomposition ``i``: from rank 0 calling
``DistributedTensor.from_full`` to the last rank holding its replicated
factors.  ``time.perf_counter`` reads the system-wide monotonic clock,
so stamps taken in different rank processes compare directly.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.instrument import PHASE_TTM
from repro.mpi import run_spmd

from . import spans
from .workloads import NRANKS, Workload

__all__ = [
    "run_loop", "LoopResult", "Request", "judge", "status_kb", "restart_peak_rss",
]

#: Seconds a blocked receive waits before the world is declared stuck.
RECV_TIMEOUT = 30.0

#: Worlds launched per loop at most: the first plus three relaunches.
MAX_WORLDS = 4


def _digest(arrays) -> str:
    h = hashlib.sha1()
    for U in arrays:
        h.update(np.ascontiguousarray(U).tobytes())
    return h.hexdigest()


def _maxrss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def status_kb(field: str) -> int:
    """A ``kB`` field of ``/proc/self/status``, such as VmRSS or VmHWM."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def restart_peak_rss() -> bool:
    """Start a fresh peak-RSS mark (VmHWM) for this process.

    Freed heap goes back to the OS first (glibc ``malloc_trim``), so the
    next peak does not ride on memory that earlier work left allocated
    but free.  False where the kernel will not reset the mark; VmHWM then
    stays the lifetime peak.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to trim
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return False
    return True


def _program(comm, pool, spec: Workload, *, first, budget, stop_after,
             measured_before, workdir, traced, tally, rel_known):
    """One world's share of the loop; returns this rank's spans (or None)."""
    entry = time.perf_counter()
    me = comm.rank
    log = spans.SpanLog(me) if traced else None
    # Looked up at call time, so an installed span wrapper is the one called.
    parallel = sys.modules["repro.core.sthosvd_parallel"]
    path = Path(workdir) / f"rank{me}.jsonl"
    with open(path, "a") as out, spans.activate(log):

        def emit(**rec):
            out.write(json.dumps(rec) + "\n")
            out.flush()

        # A forked rank starts out resident in every page it inherited;
        # only what it adds beyond that is its own memory.
        emit(ev="entry", t=entry, pid=os.getpid(), rss_kb=status_kb("VmRSS"))
        comms = GridComms(comm, ProcessorGrid(spec.grid))
        # rel_error is a pure function of the input and the Tucker bytes,
        # so a decomposition equal bytewise to one already checked on the
        # same input (in this world or an earlier one) reuses its value.
        rel_of = dict(rel_known)
        i, n_world, measured, busy = first, 0, measured_before, 0.0
        while True:
            pace = time.perf_counter()
            nxt = -2  # other ranks: "ready"; rank 0's choice wins the max
            if me == 0:
                if n_world < spec.warmup:
                    go = True
                elif stop_after is not None:
                    go = measured < stop_after
                else:
                    go = busy < budget
                nxt = i if go else -1
            # Two-way, unlike a bcast: a rank lost after its last message
            # of request i is noticed here, before request i+1 starts.
            nxt = int(comm.allreduce(np.array([nxt]), op=np.maximum)[0])
            if nxt < 0:
                break
            warm = n_world < spec.warmup
            X = pool[nxt % len(pool)]
            label = "warm" if warm else "request"
            if tally is not None:
                tally.set_context(label)
            t0 = time.perf_counter()
            try:
                with log.request(nxt) if log is not None else nullcontext():
                    dt = DistributedTensor.from_full(comms, X)
                    res = parallel.sthosvd_parallel(
                        dt, tol=spec.tol, method=spec.method
                    )
                t1 = time.perf_counter()
                # Checks, outside the timed interval.
                if tally is not None:
                    tally.set_context("check")
                tucker = res.to_tucker()
                digest = _digest([tucker.core.data, *tucker.factors])
                rel = None
                if me == 0:
                    key = (nxt % len(pool), digest)
                    if key not in rel_of:
                        rel_of[key] = tucker.rel_error(X)
                    rel = rel_of[key]
            except Exception as exc:
                emit(ev="req", i=nxt, pace=pace, t0=t0,
                     t1=time.perf_counter(), ok=False, warm=warm,
                     error=repr(exc))
                raise
            finally:
                if tally is not None:
                    tally.set_context(None)
            flops = res.flops.total - res.flops.phase_total(PHASE_TTM)
            emit(ev="req", i=nxt, pace=pace, t0=t0, t1=t1, ok=True,
                 warm=warm, digest=digest,
                 ranks=list(res.ranks), rel=rel, flops=flops)
            if not warm:
                measured += 1
                busy += t1 - pace
            i += 1
            n_world += 1
        emit(ev="end", maxrss_kb=_maxrss_kb())
    return log.spans if log is not None else None


@dataclass
class Request:
    """One attempted decomposition, merged across ranks."""

    i: int
    warm: bool
    ok: bool
    pace: float = math.nan
    t0: float = math.nan
    t1: list = field(default_factory=list)  # per-rank end stamps
    digests: list = field(default_factory=list)  # per rank, core + factors
    ranks: tuple | None = None
    rel: float | None = None
    flops: int = 0
    error: str | None = None

    @property
    def latency(self) -> float:
        return max(self.t1) - self.t0 if self.ok else math.inf

    @property
    def busy(self) -> float:
        """Rank 0's loop time for this request: pacing plus decomposition."""
        return self.t1[0] - self.pace if self.t1 else 0.0


@dataclass
class LoopResult:
    requests: list
    world_errors: list
    spans: dict  # rank -> span list, from worlds that ended cleanly
    setups: list  # per world: seconds from launch until every rank entered
    #: Peak RSS each rank process added to what it inherited at fork,
    #: summed over the ranks (threads ranks live in this process: 0).
    rank_rss_kb: int


def _read(path: Path) -> list[dict]:
    if not path.exists():
        return []
    out = []
    for line in path.read_text().splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line cut short by a dying rank
    return out


def _merge_world(wdir: Path, first: int, warmup: int,
                 clean: bool) -> tuple[list, dict]:
    per_rank = [_read(wdir / f"rank{r}.jsonl") for r in range(NRANKS)]
    reqs = [[e for e in recs if e["ev"] == "req"] for recs in per_rank]
    by_rank = [{e["i"]: e for e in rs} for rs in reqs]
    merged = []
    for e in reqs[0]:
        peers = [b.get(e["i"]) for b in by_rank]
        ok = all(p is not None and p["ok"] for p in peers)
        merged.append(Request(
            i=e["i"], warm=e["warm"], ok=ok, pace=e["pace"], t0=e["t0"],
            t1=[p["t1"] for p in peers if p is not None],
            digests=[p.get("digest") for p in peers if p is not None],
            ranks=tuple(e["ranks"]) if ok else None,
            rel=e.get("rel"), flops=e.get("flops", 0),
            error=next((p.get("error") for p in peers
                        if p is not None and not p["ok"]), None),
        ))
    if not clean and (not merged or merged[-1].ok):
        # The world died with no failure on record: the request after
        # the last record was in flight (or about to start), and failed.
        nxt = merged[-1].i + 1 if merged else first
        merged.append(Request(i=nxt, warm=len(merged) < warmup, ok=False,
                              error="world died"))
    def per_rank_field(ev, key, default=None):
        return [next((e[key] for e in recs if e["ev"] == ev), default)
                for recs in per_rank]

    info = {
        "entries": per_rank_field("entry", "t"),
        "pids": per_rank_field("entry", "pid"),
        "entry_rss": per_rank_field("entry", "rss_kb", 0),
        "rss": per_rank_field("end", "maxrss_kb", 0),
    }
    return merged, info


def run_loop(spec: Workload, pool, *, seconds: float, workdir, traced=False,
             stop_after=None, comm_trace=None, faults=None,
             rel_known=None) -> LoopResult:
    """Run the closed loop for ``seconds`` of measured time.

    ``stop_after`` instead fixes the number of measured decompositions.
    ``faults`` (a :class:`repro.faults.FaultPlan`) applies to the first
    world only, so a relaunched world runs clean.  ``rel_known`` maps
    ``(input index, digest)`` to a rel_error already computed; it is
    shared across calls and grows with each world's results.
    """
    workdir = Path(workdir)
    requests, errors, setups = [], [], []
    span_logs: dict = {}
    rank_rss = 0
    rel_known = {} if rel_known is None else rel_known
    first, measured, budget = 0, 0, float(seconds)
    for k in range(MAX_WORLDS):
        wdir = workdir / f"world{k}"
        wdir.mkdir(parents=True, exist_ok=True)
        clean = False
        launch = time.perf_counter()
        try:
            res = run_spmd(
                _program, NRANKS, pool, spec, first=first, budget=budget,
                stop_after=stop_after, measured_before=measured,
                workdir=str(wdir), traced=traced, tally=comm_trace,
                rel_known=rel_known,
                comm_trace=comm_trace, backend=spec.backend,
                recv_timeout=RECV_TIMEOUT, faults=faults if k == 0 else None,
            )
        except Exception as exc:  # a dead world is relaunched, not fatal
            errors.append(f"world {k}: {exc!r}")
        else:
            clean = not res.failed_ranks
            if not clean:
                errors.append(f"world {k}: ranks {res.failed_ranks} died")
            elif traced:
                span_logs = dict(enumerate(res.values))
        merged, info = _merge_world(wdir, first, spec.warmup, clean)
        if None not in info["entries"]:
            setups.append(max(info["entries"]) - launch)
        rank_rss = max(rank_rss, sum(
            max(peak - start, 0)
            for peak, start, pid in zip(info["rss"], info["entry_rss"],
                                        info["pids"])
            if pid is not None and pid != os.getpid()
        ))
        requests.extend(merged)
        rel_known.update({(r.i % len(pool), r.digests[0]): r.rel
                          for r in merged if r.ok})
        measured += sum(1 for r in merged if not r.warm)
        budget -= sum(r.busy for r in merged if not r.warm)
        if clean or not merged:
            break
        first = merged[-1].i + 1
        if (stop_after is not None and measured >= stop_after) or (
            stop_after is None and budget <= 0
        ):
            break
    return LoopResult(requests, errors, span_logs, setups, rank_rss)


def judge(requests, seq_ranks: dict, tol: float, pool_len: int) -> list[str]:
    """Fail every request whose output is wrong; return the reasons.

    Correct means: core and factors bitwise identical on every rank, the
    chosen ranks equal sequential ``sthosvd``'s on the same input, and
    ``rel_error <= tol``.
    """
    wrong = []
    for r in requests:
        if not r.ok:
            continue
        why = None
        if len(set(r.digests)) != 1 or len(r.digests) != NRANKS:
            why = "core or factors differ across ranks"
        elif r.ranks != seq_ranks[r.i % pool_len]:
            why = f"ranks {r.ranks} != sequential {seq_ranks[r.i % pool_len]}"
        elif not r.rel <= tol:
            why = f"rel_error {r.rel:.3e} > tol {tol:g}"
        if why is not None:
            r.ok, r.error = False, why
            wrong.append(f"request {r.i}: {why}")
    return wrong
