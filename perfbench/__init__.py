"""The repository benchmark: paper-grid, mixed-rw and restart workloads.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and correctness gate.
"""
