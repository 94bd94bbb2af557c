"""Layered host-time benchmark of the iGUARD reproduction.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and which layer
each per-layer metric belongs to.
"""
