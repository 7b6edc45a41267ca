"""The repo benchmark: seven workloads, end-to-end and per-layer metrics.

Run it with ``python -m bench`` from the repository root; see
``bench/README.md`` for the glossary of workloads and metrics.
"""
