"""The repo's performance benchmark: simulator, campaign runtime, daemon.

Run ``PYTHONPATH=src python -m benchmarks.perf`` for the full suite (all
workloads, interleaved rounds, one attribution pass per simulation
workload), or ``python3 benchmarks/perf/run.py --workload NAME --seed N
--seconds S --trace 0|1`` for the one-workload form ``BENCHMARK.json``
declares. ``README.md`` beside this file is the metric glossary.
"""
