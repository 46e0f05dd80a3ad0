"""The SQL/XNF engine's benchmark: three workloads, end-to-end metrics and a
per-layer breakdown.  Run it with ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
