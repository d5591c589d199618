"""Why ``procs`` is not a workload yet: its failure share on stream inputs.

Runs a stream of small 24^3 QR-SVD decompositions through the same
closed loop on ``backend="procs"`` and prints how many decompositions
and worlds failed.  Many small messages a second are where the ring
race shows.  Until the shared-memory ring race is fixed this is not zero,
and a workload whose operations fail cannot be a benchmark workload.

    python3 perfbench/procs_probe.py --seed 1 --runs 6 --requests 500
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _small_pool(seed: int) -> list:
    """32 seeded 24^3 tensors with geometric spectra from 1 to 1e-10."""
    import numpy as np

    from repro.data.spectra import geometric_spectrum
    from repro.data.synthetic import tensor_with_mode_spectra

    rng = np.random.default_rng([seed, 24])
    spectrum = geometric_spectrum(24, 1.0, 1e-10)
    return [
        np.asarray(tensor_with_mode_spectra((24, 24, 24), [spectrum] * 3,
                                            rng=rng).data)
        for _ in range(32)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=6)
    ap.add_argument("--requests", type=int, default=500)
    args = ap.parse_args(argv)

    from perfbench import loop
    from perfbench.workloads import Workload

    spec = Workload(name="stream-qr-procs", backend="procs", grid=(2, 1, 1),
                    method="qr", tol=1e-6, make_pool=_small_pool, warmup=16,
                    seq_seconds=0.0)
    pool = spec.make_pool(args.seed)
    workdir = ROOT / "perfbench" / "out" / f"procs-{os.getpid()}"
    attempted = failed = runs_failed = 0
    errors = []
    start = time.perf_counter()
    try:
        for k in range(args.runs):
            res = loop.run_loop(spec, pool, seconds=0, stop_after=args.requests,
                                workdir=workdir / f"run{k}")
            attempted += len(res.requests)
            failed += sum(1 for r in res.requests if not r.ok)
            runs_failed += bool(res.world_errors)
            errors += res.world_errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "backend": "procs", "inputs": "24^3 stream", "seed": args.seed,
        "runs": args.runs, "runs_with_dead_world": runs_failed,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / max(attempted, 1),
        "seconds": round(time.perf_counter() - start, 1),
        "errors": sorted({e.split(":", 1)[1].split("(")[0].strip() for e in errors}),
    }))
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
