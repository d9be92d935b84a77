"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run it from the repository root::

    python3 perfbench/run.py --workload session-replay --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the seeds.
"""
