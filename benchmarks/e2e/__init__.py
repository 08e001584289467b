"""The end-to-end benchmark: named workloads, end-to-end metrics, a traced run.

``BENCHMARK.json`` at the repo root names the workloads and metrics;
``README.md`` in this directory says how to run and read them.
"""
