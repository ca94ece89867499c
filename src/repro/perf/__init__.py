"""``dssoc-emulate bench``: the measurements the spine does not take.

Speed claims come from the measurement spine (``benchmarks/spine/``).
This package keeps the three jobs only it does: ``--compare-cores``
(every named scenario under the pure and compiled cores, deterministic
stats asserted bit-identical), the 10^5 / 10^6-app peak-RSS scale pair,
and the lookahead-policy scenarios.  Reports are written as
``BENCH_<timestamp>.json`` files (schema in ``docs/performance.md``).

Entry points: ``dssoc-emulate bench --scenario NAME[,NAME...]`` (CLI) or
:func:`run_suite` / :func:`run_suite_compare_cores` (programmatic).
``repro.perf.rss`` is the peak-RSS reader the spine imports too.
"""

from repro.perf.harness import (
    format_core_compare,
    format_report,
    run_scenario,
    run_suite,
    run_suite_compare_cores,
    write_report,
)
from repro.perf.scenarios import SCENARIOS, get_scenario, scenario_names

__all__ = [
    "SCENARIOS",
    "format_core_compare",
    "format_report",
    "get_scenario",
    "run_scenario",
    "run_suite",
    "run_suite_compare_cores",
    "scenario_names",
    "write_report",
]
