import math
import time

import numpy as np
import pytest

from perfbench import loop
from perfbench.stats import summarize
from perfbench.workloads import Workload
from repro import sthosvd
from repro.data.spectra import geometric_spectrum
from repro.data.synthetic import tensor_with_mode_spectra
from repro.faults import CrashRule, FaultPlan

RELAUNCH_DELAY = 0.5


def _pool(seed=0, n=4):
    rng = np.random.default_rng(seed)
    s = geometric_spectrum(8, 1.0, 1e-10)
    return [np.asarray(tensor_with_mode_spectra((8, 8, 8), [s] * 3, rng=rng).data)
            for _ in range(n)]


def _spec(backend="threads"):
    return Workload(
        name="tiny", backend=backend, grid=(2, 1, 1),
        method="qr", tol=1e-6, make_pool=_pool, warmup=2, seq_seconds=0.0,
    )


def _seq_ranks(pool, spec):
    return {k: tuple(sthosvd(X, tol=spec.tol, method=spec.method).ranks)
            for k, X in enumerate(pool)}


def test_clean_loop_completes_and_passes_every_check(tmp_path):
    spec, pool = _spec(), _pool()
    res = loop.run_loop(spec, pool, seconds=5.0, stop_after=8, workdir=tmp_path)
    assert res.world_errors == []
    assert len(res.setups) == 1 and 0 < res.setups[0] < 5
    assert [r.i for r in res.requests] == list(range(10))
    assert sum(r.warm for r in res.requests) == spec.warmup
    assert loop.judge(res.requests, _seq_ranks(pool, spec), spec.tol, len(pool)) == []
    assert all(r.ok and len(set(r.digests)) == 1 for r in res.requests)


def test_wrong_output_counts_as_failed(tmp_path):
    spec, pool = _spec(), _pool()
    res = loop.run_loop(spec, pool, seconds=5.0, stop_after=4, workdir=tmp_path)
    seq = _seq_ranks(pool, spec)
    seq[1] = tuple(r + 1 for r in seq[1])  # pretend sequential chose otherwise
    res.requests[-1].digests[1] = "0" * 40  # and rank 1 disagreed once
    wrong = loop.judge(res.requests, seq, spec.tol, len(pool))
    bad = [r for r in res.requests if not r.ok]
    assert len(wrong) == len(bad) >= 2
    assert all(math.isinf(r.latency) for r in bad)
    assert summarize(res.requests)["failed"] == sum(not r.warm for r in bad)


# Crash points a few hundred operations in (past the warm-up), so the
# victim dies at different places within a request.
@pytest.mark.parametrize("at_op", [200, 301, 333])
@pytest.mark.parametrize("victim", [0, 1])
def test_killed_rank_relaunches_world_and_fails_only_inflight(
        tmp_path, monkeypatch, victim, at_op):
    spec, pool = _spec(), _pool()
    launches = []
    real_run_spmd = loop.run_spmd

    def slow_relaunch(*args, **kwargs):
        if launches:
            time.sleep(RELAUNCH_DELAY)
        launches.append(kwargs.get("faults"))
        return real_run_spmd(*args, **kwargs)

    monkeypatch.setattr(loop, "run_spmd", slow_relaunch)
    plan = FaultPlan(seed=1, crashes=[CrashRule(rank=victim, at_op=at_op)])
    res = loop.run_loop(spec, pool, seconds=5.0, stop_after=40,
                        workdir=tmp_path, faults=plan)

    assert len(launches) == 2 and launches[0] is plan and launches[1] is None
    assert len(res.world_errors) == 1
    failed = [r for r in res.requests if not r.ok]
    assert len(failed) == 1
    # Indices continue across the relaunch with no gap and no repeat.
    assert [r.i for r in res.requests] == list(range(len(res.requests)))
    assert loop.judge(res.requests, _seq_ranks(pool, spec), spec.tol, len(pool)) == []
    st = summarize(res.requests)
    assert st["samples"] == 40 and st["failed"] == (0 if failed[0].warm else 1)
    # The relaunch is in no decomposition's latency.
    done = [r.latency for r in res.requests if r.ok]
    assert max(done) < RELAUNCH_DELAY
