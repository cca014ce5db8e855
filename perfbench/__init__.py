"""The served benchmark: ``python3 perfbench/run.py --workload NAME``.

Drives a real ``repro serve --http`` process from one client process
and reports end-to-end metrics (untraced) or a per-layer ledger
(traced).  See ``perfbench/README.md``.
"""
