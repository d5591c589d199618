"""Spans around calls into each layer, recorded from outside ``src/``.

:func:`installed` replaces the layer entry points at their call-site
modules (where they were imported by name) and the ``Communicator``
methods with pass-through wrappers.  A wrapper records a span only on a
thread that has an active :class:`SpanLog` with a request open, so the
sequential baseline and the untraced loop run the original code paths
untouched.  Install before ``run_spmd`` so forked socket workers
inherit the wrappers.

A span is ``[name, start, end, parent, request]``; the log belongs to
one rank.  Spans stay in memory; the rank program returns them.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = [
    "SpanLog",
    "activate",
    "installed",
    "self_times",
    "per_request_layer_ms",
]

# (call-site module, attribute, span name).  Two call sites may share a
# span name: ``linalg.tpqrt`` covers the flat-tree ``tpqrt`` inside
# ``tensor_lq`` and the butterfly's ``tpqrt_reduce_triangles``;
# ``linalg.tensor_gram`` covers the local Gram of a block and of a
# redistributed slab.
FUNCTION_TARGETS = (
    ("repro.core.sthosvd_parallel", "sthosvd_parallel", "core.sthosvd_parallel"),
    ("repro.core.sthosvd_parallel", "guarded_mode_svd", "faults.guarded_mode_svd"),
    ("repro.core.sthosvd_parallel", "par_ttm_truncate", "dist.par_ttm_truncate"),
    ("repro.dist.svd", "par_tensor_qr_svd", "dist.par_tensor_qr_svd"),
    ("repro.dist.svd", "par_tensor_gram_svd", "dist.par_tensor_gram_svd"),
    ("repro.dist.svd", "par_tensor_gram", "dist.par_tensor_gram"),
    ("repro.dist.svd", "redistribute_unfolding_to_columns",
     "dist.redistribute_unfolding_to_columns"),
    ("repro.dist.svd", "tensor_lq", "linalg.tensor_lq"),
    ("repro.dist.svd", "gelq", "linalg.gelq"),
    ("repro.dist.svd", "left_svd_of_triangle", "linalg.left_svd_of_triangle"),
    ("repro.dist.svd", "svd_from_gram", "linalg.svd_from_gram"),
    ("repro.dist.tsqr", "butterfly_tsqr_reduce", "dist.butterfly_tsqr_reduce"),
    ("repro.dist.tsqr", "tpqrt_reduce_triangles", "linalg.tpqrt"),
    ("repro.dist.gram", "redistribute_unfolding_to_columns",
     "dist.redistribute_unfolding_to_columns"),
    ("repro.dist.gram", "tensor_gram", "linalg.tensor_gram"),
    ("repro.dist.gram", "gram_matrix", "linalg.tensor_gram"),
    ("repro.dist.ttm", "ttm", "tensor.ttm"),
    ("repro.linalg.tensor_lq", "gelq", "linalg.gelq"),
    ("repro.linalg.tensor_lq", "tpqrt", "linalg.tpqrt"),
)

# (module, class, method, span name)
METHOD_TARGETS = (
    ("repro.dist.dtensor", "DistributedTensor", "norm_squared", "dist.norm_squared"),
) + tuple(
    ("repro.mpi.communicator", "Communicator", m, f"mpi.{m}")
    for m in (
        "send", "recv", "sendrecv", "isend", "irecv", "barrier", "bcast",
        "reduce", "allreduce", "gather", "allgather", "scatter",
        "alltoall", "reduce_scatter",
    )
)

#: Span name of a whole decomposition (the request).
REQUEST = "request"

_local = threading.local()


class SpanLog:
    """In-memory spans of one rank."""

    def __init__(self, rank: int):
        self.rank = rank
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    @contextmanager
    def request(self, request_id: int):
        """Open the root span of one decomposition; layer spans nest in it."""
        self._request = request_id
        idx = self.open(REQUEST)
        try:
            yield
        finally:
            self.close(idx)
            self._request = None


@contextmanager
def activate(log: SpanLog | None):
    """Make ``log`` this thread's recorder for the duration."""
    _local.log = log
    try:
        yield log
    finally:
        _local.log = None


def _traced(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        log = getattr(_local, "log", None)
        if log is None or not log.recording:
            return fn(*args, **kwargs)
        idx = log.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(idx)

    return wrapper


@contextmanager
def installed():
    """Install every wrapper; restore the original callables on exit."""
    saved = []
    try:
        for modname, attr, name in FUNCTION_TARGETS:
            owner = importlib.import_module(modname)
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, _traced(getattr(owner, attr), name))
        for modname, clsname, attr, name in METHOD_TARGETS:
            owner = getattr(importlib.import_module(modname), clsname)
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, _traced(owner.__dict__[attr], name))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list) -> list[tuple[float, float]]:
    """``(duration, self)`` seconds per span.

    Self time is the span's duration minus the part of its interval
    that its direct children cover (overlapping children count once).
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_name, start, end, _parent, _req) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][1]):
            c0 = max(spans[c][1], cursor)
            c1 = min(spans[c][2], end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start, end - start - covered))
    return out


def per_request_layer_ms(spans: list, requests) -> dict[str, dict[str, float]]:
    """Mean per-request ``{"ms", "self_ms", "calls"}`` for each span name.

    Only spans whose request id is in ``requests`` count; the mean is
    over ``len(requests)`` decompositions, so a layer a request never
    calls contributes zero to it.
    """
    wanted = set(requests)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0.0}
    )
    for span, (dur, own) in zip(spans, self_times(spans)):
        if span[4] not in wanted:
            continue
        t = totals[span[0]]
        t["ms"] += dur * 1e3
        t["self_ms"] += own * 1e3
        t["calls"] += 1
    n = max(len(wanted), 1)
    return {
        name: {k: v / n for k, v in t.items()} for name, t in totals.items()
    }
