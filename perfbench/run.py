"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same inputs untraced and then traced, and
reports the per-layer metrics plus the layer-floor microbenchmarks.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Results (and, when traced, every span) are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: One BLAS thread per process: 2 ranks x 1 thread fits a 2-core host.
BLAS_THREADS = 1

#: A run interleaves this many (sequential share, fresh world) segments,
#: so both sides of speedup_vs_seq sample the same stretches of host
#: load, and setup_s is a median over this many launches.
SEGMENTS = 10

#: Sequential decompositions per segment at least, so each segment's
#: median has several samples even where one takes most of a second.
SEQ_MIN_PER_SEGMENT = 3

#: Metric names and units, and each workload's reason to exist, are
#: read from BENCHMARK.json.  Its end-to-end metrics are the gated ones.
#: Printed beside them but not gated: the tail percentiles
#: (hcci-qr-sockets completes ~60 decompositions a run, too few for 10
#: samples beyond p90); throughput_per_s (with one client it carries
#: latency's signal, and as a mean it swings more with host stalls);
#: failed_frac (the result's "failed" count already carries it).
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
WHY = {w["name"]: w["why"] for w in BENCH["workloads"]}


#: Shortfall of the root span against rank 0's own stamps that a traced
#: run tolerates; the stamps sit just outside the span.
ROOT_SPAN_SLACK = 0.05

#: Share of traced latency the layer spans may leave uncovered.
MAX_UNATTRIBUTED = 0.10


def _llc_bytes() -> int | None:
    """Size of the highest-level cache of CPU 0, or None if unknown."""
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in base.glob("index*"):
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            nbytes = int(size.rstrip("KMG")) * scale
            if best is None or level > best[0]:
                best = (level, nbytes)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def host_facts(pool) -> dict:
    import numpy as np

    llc = _llc_bytes()
    ws = int(pool[0].nbytes)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "working_set_bytes_per_tensor": ws,
        "working_set_over_llc": ws / llc if llc else None,
        "blas_threads_per_process": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Sequential:
    """Sequential ``sthosvd`` on the pool, cycling through it: the baseline."""

    def __init__(self, spec, pool):
        from repro import sthosvd

        self.spec, self.pool = spec, pool
        self.times: list[float] = []
        # One untimed decomposition first, as every world gets a warm-up.
        res = sthosvd(pool[0], tol=spec.tol, method=spec.method)
        self.ranks: dict[int, tuple] = {0: tuple(res.ranks)}

    def run(self, seconds: float, min_samples: int = 1) -> list[float]:
        """``min_samples`` decompositions, then more until ``seconds`` pass.

        Returns the seconds each decomposition of this call took.
        """
        from repro import sthosvd

        start = time.perf_counter()
        first = len(self.times)
        while True:
            k = len(self.times) % len(self.pool)
            t0 = time.perf_counter()
            res = sthosvd(self.pool[k], tol=self.spec.tol, method=self.spec.method)
            self.times.append(time.perf_counter() - t0)
            self.ranks[k] = tuple(res.ranks)
            if (len(self.times) - first >= min_samples
                    and time.perf_counter() - start >= seconds):
                return self.times[first:]

    def cover_pool(self) -> None:
        """Make sure every input has sequential ranks to check against."""
        while len(self.ranks) < len(self.pool):
            self.run(0.0)


def layer_metrics(spec, run, untraced, comm_trace, floor) -> tuple[dict, list, dict]:
    """Per-layer metrics from rank 0's spans; also the consistency problems."""
    from perfbench.spans import REQUEST, per_request_layer_ms
    from perfbench.stats import summarize

    problems = []
    spans0 = run.spans.get(0, [])
    # Only a world that ended cleanly returns its spans.
    traced_ids = {span[4] for span in spans0 if span[0] == REQUEST}
    measured = [r for r in run.requests
                if not r.warm and r.ok and r.i in traced_ids]
    ids = [r.i for r in measured]
    layer = per_request_layer_ms(spans0, ids)

    def get(name, key):
        return layer.get(name, {}).get(key, 0.0)

    n = max(len(ids), 1)
    linalg_ms = sum(t["self_ms"] for name, t in layer.items()
                    if name.startswith("linalg."))
    flops = statistics.fmean([r.flops for r in measured] or [0])
    request_ms = get(REQUEST, "ms")
    unattributed_ms = get(REQUEST, "self_ms")
    # Consistency only: spans nest, so their self times sum to the root's
    # duration by construction.  This catches a bookkeeping slip, not a
    # span that misses part of the decomposition.
    self_sum = sum(t["self_ms"] for t in layer.values())
    if abs(self_sum - request_ms) > 1e-6 * max(request_ms, 1.0):
        problems.append(
            f"layer self times sum to {self_sum:.6f} ms, "
            f"traced latency is {request_ms:.6f} ms"
        )
    # Evidence: the root span must match rank 0's own t0/t1 stamps,
    # taken outside the span machinery, and the layer spans must cover
    # most of it.
    own_ms = statistics.fmean([(r.t1[0] - r.t0) * 1e3 for r in measured]
                              or [0.0])
    if not own_ms * (1 - ROOT_SPAN_SLACK) <= request_ms <= own_ms:
        problems.append(
            f"root span {request_ms:.6f} ms is not within "
            f"{ROOT_SPAN_SLACK:.0%} of rank 0's own {own_ms:.6f} ms"
        )
    if unattributed_ms > MAX_UNATTRIBUTED * request_ms:
        problems.append(
            f"unattributed {unattributed_ms:.6f} ms is over "
            f"{MAX_UNATTRIBUTED:.0%} of traced latency {request_ms:.6f} ms"
        )
    if not ids:
        problems.append("no traced decomposition completed")

    m = {}
    for metric in PER_LAYER:
        base, _, key = metric.rpartition(".")
        if key in ("ms", "self_ms") and base:
            m[metric] = get(base, key)
    untraced_p50 = summarize(untraced.requests)["pct"][50][0]
    traced_p50 = summarize(run.requests)["pct"][50][0]
    q_us, s_us, (p2p_us, ar_us) = floor
    m.update({
        "linalg.flops": flops,
        "linalg.gflops": flops / (linalg_ms * 1e-3) / 1e9 if linalg_ms else 0.0,
        "mpi.messages": comm_trace.total_messages("request") / n,
        "mpi.bytes": comm_trace.total_bytes("request") / n,
        "mpi.copied_bytes": comm_trace.total_copied_bytes("request") / n,
        "mpi.p2p_8B_us": p2p_us,
        "mpi.allreduce_8d_us": ar_us,
        "substrate.queue_8B_us": q_us,
        "substrate.socket_8B_us": s_us,
        "mpi.p2p_overhead_x": p2p_us / (q_us if spec.backend == "threads" else s_us),
        "unattributed_ms": unattributed_ms,
        "traced_latency_ms": request_ms,
        "trace_overhead_frac": traced_p50 / untraced_p50 - 1.0,
    })
    return m, problems, layer


def end_to_end_run(spec, pool, seconds, workdir, seq) -> tuple:
    """The untraced run: segments of sequential baseline, then a world."""
    from perfbench import loop
    from perfbench.stats import MIN_BEYOND, summarize

    runs, seq_p50s, rel_known, peaks_kb = {}, [], {}, []
    peak_reset = True
    for j in range(SEGMENTS):
        seq_p50s.append(statistics.median(
            seq.run(spec.seq_seconds / SEGMENTS, SEQ_MIN_PER_SEGMENT)))
        peak_reset = loop.restart_peak_rss() and peak_reset
        run = runs[f"segment{j}"] = loop.run_loop(
            spec, pool, seconds=seconds / SEGMENTS,
            workdir=workdir / f"segment{j}", rel_known=rel_known,
        )
        # This process's peak during the world (the whole world for
        # threads, the hub for sockets) plus what each rank process added.
        peaks_kb.append((loop.status_kb("VmHWM"), run.rank_rss_kb))
    requests = [r for run in runs.values() for r in run.requests]
    seq.cover_pool()
    problems = loop.judge(requests, seq.ranks, spec.tol, len(pool))
    setups = [t for run in runs.values() for t in run.setups]
    st = summarize(requests)
    segments = [summarize(run.requests) for run in runs.values()]
    # Load from other tenants of a shared host comes in spells of seconds
    # to minutes.  The median of the segment medians ignores spells that
    # cover fewer than half the segments.  Sequential and parallel
    # segments alternate, so both sides of speedup_vs_seq are taken the
    # same way over the same stretches.
    seg_p50s = [seg["pct"][50][0] for seg in segments]
    p50, seq_p50 = statistics.median(seg_p50s), statistics.median(seq_p50s)
    throughput = statistics.fmean(seg["throughput"] for seg in segments)
    # Whether the two ranks' largest buffers are alive at the same moment
    # depends on scheduling, so a world's peak is one of a few levels
    # ~10% apart.  The lowest level is the steadiest figure, and more
    # memory held by the program raises every level.
    world_peaks_kb = [sum(p) for p in peaks_kb]
    peak_kb = min(world_peaks_kb)
    checked = [r.rel for r in requests if r.ok]
    metrics = {
        "latency_p50_ms": p50 * 1e3,
        "seq_latency_p50_ms": seq_p50 * 1e3,
        "speedup_vs_seq": seq_p50 / p50,
        "setup_s": statistics.median(setups) if setups else math.inf,
        "peak_rss_mb": peak_kb / 1024.0,
        "rel_error_max": max(checked) if checked else math.inf,
    }
    n = st["samples"]
    per_seg = f"median of {len(runs)} segment medians"
    notes = {
        "latency_p50_ms": f"n={n}, {per_seg}",
        "seq_latency_p50_ms": f"n={len(seq.times)}, {per_seg}",
        "setup_s": f"median of {len(setups)} launches",
        "peak_rss_mb": f"lowest of {len(peaks_kb)} worlds' peaks, highest "
                       f"{max(world_peaks_kb) / 1024:.6g} MB"
                       + ("" if peak_reset else "; peak mark not resettable, "
                          "so each is this process's lifetime peak"),
    }
    lines = _lines(metrics, END_TO_END, notes)
    tails = []
    for p in (90, 99):
        value, beyond = st["pct"][p]
        if p == 90 or p in st["reported"]:
            tails.append(f"latency_p{p}_ms = {value * 1e3:.6g} ms  "
                         f"(n={n}, {beyond} beyond)")
        else:
            tails.append(f"latency_p{p}_ms = not reported  (n={n}, only "
                         f"{beyond} beyond; needs {MIN_BEYOND})")
    lines[1:1] = tails + [f"throughput_per_s = {throughput:.6g} 1/s  "
                          f"(mean over {len(runs)} segments)"]
    lines.append(f"failed_frac = {st['failed'] / max(n, 1):.6g}  "
                 f"({st['failed']} of {n})")
    return metrics, lines, runs, problems, {
        "setup_s_samples": setups,
        "segment_p50_s": seg_p50s,
        "segment_seq_p50_s": seq_p50s,
        "world_peak_rss_kb": peaks_kb, "peak_rss_reset": peak_reset}


def per_layer_run(spec, pool, seconds, workdir, seq, outdir, seed) -> tuple:
    """Untraced then traced loops over the same inputs, then the floors."""
    from repro.mpi import CommTrace
    from perfbench import floors, loop, spans

    seq.cover_pool()
    rel_known = {}
    untraced = loop.run_loop(spec, pool, seconds=seconds / 2,
                             workdir=workdir / "untraced", rel_known=rel_known)
    comm_trace = CommTrace()
    with spans.installed():
        run = loop.run_loop(
            spec, pool, seconds=seconds, workdir=workdir / "traced",
            # Whole passes over the pool, so per-decomposition counts
            # repeat exactly from run to run of one seed.
            stop_after=max(1, sum(not r.warm for r in untraced.requests)
                           // len(pool)) * len(pool),
            traced=True, comm_trace=comm_trace, rel_known=rel_known,
        )
    problems = loop.judge(untraced.requests + run.requests, seq.ranks,
                          spec.tol, len(pool))
    # The wrappers must change nothing: same input, same factors.
    ref = {r.i % len(pool): r.digests[0] for r in untraced.requests if r.ok}
    for r in run.requests:
        if r.ok and ref.get(r.i % len(pool), r.digests[0]) != r.digests[0]:
            problems.append(f"traced request {r.i}: factors differ from untraced")
    counts = (2000, 1000) if spec.backend == "threads" else (200, 100)
    floor = (floors.queue_8b_us(), floors.socket_8b_us(),
             floors.comm_8b_us(spec.backend, *counts))
    metrics, layer_problems, layer = layer_metrics(
        spec, run, untraced, comm_trace, floor)
    problems += layer_problems

    spans_path = outdir / f"{spec.name}-seed{seed}.spans.jsonl"
    with open(spans_path, "w") as f:
        for rank, log in sorted(run.spans.items()):
            for idx, (name, t0, t1, parent, req) in enumerate(log or ()):
                f.write(json.dumps([rank, req, idx, parent, name, t0, t1]) + "\n")
    extra = {"layers": layer, "spans_file": str(spans_path.relative_to(ROOT))}
    lines = _lines(metrics, PER_LAYER, {})
    return metrics, lines, {"untraced": untraced, "traced": run}, problems, extra


def _lines(metrics, units, notes) -> list[str]:
    return [f"{k} = {metrics[k]:.6g} {units[k]}"
            + (f"  ({notes[k]})" if k in notes else "") for k in units]


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.workload]
    outdir = ROOT / "perfbench" / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    workdir = outdir / f"work-{os.getpid()}"
    pool = spec.make_pool(args.seed)
    facts = host_facts(pool)
    seq = Sequential(spec, pool)
    report = {"workload": spec.name, "why": WHY[spec.name], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": facts}
    try:
        if args.trace == 0:
            metrics, lines, runs, problems, extra = end_to_end_run(
                spec, pool, args.seconds, workdir, seq)
            units = END_TO_END
        else:
            metrics, lines, runs, problems, extra = per_layer_run(
                spec, pool, args.seconds, workdir, seq, outdir, args.seed)
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(extra)

    requests = [r for run in runs.values() for r in run.requests]
    failed = [r for r in requests if not r.ok]
    report.update(
        metrics=metrics, problems=problems, attempted=len(requests),
        failed=len(failed),
        failures=[f"request {r.i}: {r.error}" for r in failed],
        world_errors={k: v.world_errors for k, v in runs.items()},
    )
    out_path = outdir / f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1))

    print(f"# {spec.name} seed={args.seed} trace={args.trace}: {WHY[spec.name]}")
    print("# host: " + json.dumps(facts))
    print("\n".join(lines))
    for p in problems:
        print(f"# PROBLEM: {p}")
    for name, errs in report["world_errors"].items():
        for e in errs:
            print(f"# world error ({name}): {e}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(requests),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # Before NumPy loads its BLAS.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no src/repro under {ROOT}; "
                         "run from a checkout of the repository\n")
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
