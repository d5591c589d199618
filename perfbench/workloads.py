"""The benchmark's workloads: inputs made from a seed, and how they run.

Each workload is a closed loop of ST-HOSVD decompositions driven by one
client (rank 0) with no think time.  Two ranks run on a host with at
least two cores and one BLAS thread per process, so processes times
BLAS threads never exceed the cores and the numbers measure the
program rather than the scheduler.  Why each workload exists is said
once, in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.applications import hcci_surrogate

__all__ = ["Workload", "WORKLOADS", "NRANKS"]

#: Ranks per world; with one BLAS thread each this matches a 2-core host.
NRANKS = 2


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the configuration they run under."""

    name: str
    backend: str
    grid: tuple[int, ...]
    method: str
    tol: float
    #: The inputs for a seed: the same seed gives the same arrays.
    make_pool: Callable[[int], list]
    #: Decompositions run (and checked) before timing in every new world.
    warmup: int
    #: Seconds of sequential baseline per run, spread over its segments.
    seq_seconds: float


def _hcci_pool(seed: int) -> list[np.ndarray]:
    seeds = np.random.SeedSequence([seed, 4833]).generate_state(3)
    return [
        np.asarray(hcci_surrogate((48, 48, 33, 48), seed=int(s)).data)
        for s in seeds
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hcci-qr-sockets",
            backend="sockets",
            grid=(2, 1, 1, 1),
            method="qr",
            tol=1e-6,
            make_pool=_hcci_pool,
            warmup=1,
            # The run's minimum of sequential samples per segment already
            # takes ~2.4 s a segment.
            seq_seconds=0.0,
        ),
        Workload(
            name="hcci-gram-threads",
            backend="threads",
            grid=(2, 1, 1, 1),
            method="gram",
            tol=1e-6,
            make_pool=_hcci_pool,
            warmup=1,
            # ~0.09 s a decomposition: about 7 sequential samples a segment.
            seq_seconds=6.0,
        ),
    )
}
