"""Measurement spine: the repo's benchmark.

One command runs eight workloads (four emulation runs, four sweep
drivers) and reports, for each, end-to-end host-time numbers measured
with no instrumentation and per-layer numbers from a separate traced run
plus fixed-count micro-probes.  Everything is measured from outside the
program: the benchmark only calls public functions of ``repro`` and wraps
the collaborators it hands in.  See ``README.md`` in this directory.
"""
