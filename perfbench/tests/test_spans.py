import numpy as np
import pytest

from perfbench import spans
from repro.dist import svd as dist_svd
from repro.mpi import Communicator


def _span(name, start, end, parent, request=0):
    return [name, start, end, parent, request]


def test_self_time_subtracts_the_part_children_cover():
    log = [
        _span("request", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 1.5, 2.5, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    times = spans.self_times(log)
    assert times[0] == (10.0, 10.0 - 3.0 - 4.0)
    assert times[1] == (3.0, 2.0)
    assert times[2] == (1.0, 1.0)
    assert times[3] == (4.0, 4.0)
    # Self times of the whole tree add up to the root's duration.
    assert sum(own for _dur, own in times) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    log = [
        _span("p", 0.0, 10.0, -1),
        _span("c1", 1.0, 5.0, 0),
        _span("c2", 4.0, 12.0, 0),  # overlaps c1 and outlives the parent
    ]
    assert spans.self_times(log)[0] == (10.0, 1.0)


def test_per_request_means_cover_only_the_chosen_requests():
    log = [
        _span("request", 0.0, 4.0, -1, request=1),
        _span("x", 1.0, 2.0, 0, request=1),
        _span("request", 10.0, 12.0, -1, request=2),
        _span("request", 20.0, 30.0, -1, request=3),
    ]
    layer = spans.per_request_layer_ms(log, [1, 2])
    assert layer["request"]["ms"] == pytest.approx(3000.0)
    assert layer["request"]["self_ms"] == pytest.approx(2500.0)
    assert layer["x"]["ms"] == pytest.approx(500.0)  # mean over 2 requests


def test_wrappers_record_nested_spans_and_pass_calls_through():
    original_gelq = dist_svd.gelq
    original_send = Communicator.__dict__["send"]
    A = np.random.default_rng(0).standard_normal((4, 9))
    with spans.installed():
        assert dist_svd.gelq is not original_gelq
        log = spans.SpanLog(rank=0)
        with spans.activate(log):
            untraced = dist_svd.gelq(A)  # no request open: not recorded
            assert log.spans == []
            with log.request(7):
                traced = dist_svd.gelq(A)
    assert dist_svd.gelq is original_gelq
    assert Communicator.__dict__["send"] is original_send
    np.testing.assert_array_equal(untraced, traced)
    names = [s[0] for s in log.spans]
    assert names == ["request", "linalg.gelq"]
    assert log.spans[1][3] == 0 and log.spans[1][4] == 7
