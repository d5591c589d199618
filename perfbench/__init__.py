"""End-to-end and per-layer benchmark of parallel ST-HOSVD.

Run it from the repository root::

    python3 perfbench/run.py --workload hcci-qr-sockets --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what
each layer metric is expected to move.
"""
