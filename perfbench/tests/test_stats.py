import math

from perfbench.loop import Request
from perfbench.stats import MIN_BEYOND, percentile, reported_percentiles, summarize


def test_percentile_is_nearest_rank_and_counts_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == (50, 50)
    assert percentile(samples, 90) == (90, 10)
    assert percentile(samples, 99) == (99, 1)


def test_highest_percentile_needs_ten_samples_beyond_it():
    # 1000 samples leave exactly 10 beyond p99; 999 leave 9.
    assert 99 in reported_percentiles(range(1000))
    assert reported_percentiles(range(1000))[99][1] == MIN_BEYOND
    assert 99 not in reported_percentiles(range(999))
    # The median is always reported, however few the samples.
    assert set(reported_percentiles([3.0, 1.0])) == {50}
    assert set(reported_percentiles(range(100))) == {50, 90}


def _done(i, latency, warm=False):
    return Request(i=i, warm=warm, ok=True, pace=0.0, t0=0.0,
                   t1=[latency, latency / 2])


def test_failed_decompositions_count_as_infinite_latency():
    reqs = [_done(i, 0.010) for i in range(8)]
    reqs += [Request(i=8, warm=False, ok=False, error="boom"),
             Request(i=9, warm=False, ok=False, error="boom")]
    assert all(math.isinf(r.latency) for r in reqs[8:])
    st = summarize(reqs)
    assert st["samples"] == 10 and st["failed"] == 2
    assert st["pct"][50] == (0.010, 5)
    # Two failures of ten reach the 90th percentile.
    assert math.isinf(st["pct"][90][0])
    # Throughput counts only completed decompositions.
    assert math.isclose(st["throughput"], 8 / (8 * 0.010))


def test_latency_ends_when_the_last_rank_holds_its_factors():
    r = Request(i=0, warm=False, ok=True, pace=0.5, t0=1.0, t1=[1.25, 1.5])
    assert r.latency == 0.5
    assert r.busy == 0.75  # rank 0's pacing plus its own part


def test_warmup_requests_are_not_measured():
    reqs = [_done(0, 5.0, warm=True), _done(1, 0.010), _done(2, 0.020)]
    st = summarize(reqs)
    assert st["samples"] == 2
    assert st["pct"][50][0] == 0.010
