"""Peak-RSS measurement (:mod:`repro.perf.rss`).

Speed and memory are measured by the spine (``benchmarks/spine/``), which
imports ``repro.perf.rss``; this package imports nothing so that import
stays cheap.
"""
