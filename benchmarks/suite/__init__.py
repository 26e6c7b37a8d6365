"""The repo benchmark (``BENCHMARK.json``): five workloads, end-to-end and
per-layer metrics.  See README.md in this directory."""
