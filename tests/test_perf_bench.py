"""The quick lookahead workloads, pinned on whichever core is active.

``lookahead-cprank`` is a 15-app burst under critical-path ranking;
``lookahead-rollout`` is a short Poisson stream under the rollout
forward simulator (see ``QUICK_WORKLOADS`` in ``test_native_core``,
which also holds both bit-identical across the two cores).
"""

from __future__ import annotations

from tests.test_native_core import _run_quick


class TestScenarios:
    def test_run_once_counts_work(self):
        stats, events = _run_quick("lookahead-cprank")
        assert {
            "events": events,
            "tasks": stats.task_count,
            "apps_completed": stats.apps_completed,
            "makespan_ms": round(stats.makespan / 1000.0, 4),
            "sched_invocations": stats.sched_invocations,
            "apps_injected": stats.apps_injected,
            "apps_dropped": stats.apps_dropped,
        } == {
            "events": 5098, "tasks": 860, "apps_completed": 15,
            "makespan_ms": 19.9354, "sched_invocations": 861,
            "apps_injected": 15, "apps_dropped": 0,
        }

    def test_lookahead_scenarios_run_quick(self):
        cp, events = _run_quick("lookahead-cprank")
        assert cp.apps_completed == 15 and events > 0
        ro, _events = _run_quick("lookahead-rollout")
        assert ro.apps_injected > 0
        assert ro.apps_completed == ro.apps_injected
