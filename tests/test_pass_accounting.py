"""Pass accounting on the golden-timeline sessions.

Each workload-manager pass is recorded by one ``record_scheduling_pass``
call; the cost model's :meth:`~SchedulerCostModel.invocations` rule says
how many scheduler invocations that pass stands for.  A test-side wrapper
collects every call of each of the sixteen sessions in
``tests/test_golden_timeline.py`` (whose digests it still checks, so the
wrapper cannot have changed a run), then holds the counters to the rule.
"""

from __future__ import annotations

import pytest

from repro.hardware.perfmodel import SchedulerCostModel
from repro.runtime.schedulers import make_scheduler
from repro.runtime.stats import EmulationStats
from tests.test_golden_timeline import GOLDEN, SESSIONS, timeline_digest


def recorded_passes(monkeypatch, name: str):
    """The session's stats and its ``(ready_len, completions,
    invocations)`` per recorded pass, in order."""
    calls = []
    original = EmulationStats.record_scheduling_pass

    def spy(self, overhead, ready_len, completions, invocations):
        calls.append((self, ready_len, completions, invocations))
        original(self, overhead, ready_len, completions, invocations)

    monkeypatch.setattr(EmulationStats, "record_scheduling_pass", spy)
    assert timeline_digest(name) == GOLDEN[name]
    (stats,) = {c[0] for c in calls}
    return stats, [c[1:] for c in calls]


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_invocations_are_the_rule_summed_over_passes(monkeypatch, name):
    stats, passes = recorded_passes(monkeypatch, name)
    policy = make_scheduler(SESSIONS[name]["policy"])
    rule = SchedulerCostModel().invocations
    assert [inv for _r, _c, inv in passes] == [
        rule(policy, comp) for _r, comp, _i in passes
    ]
    assert stats.sched_invocations == sum(inv for _r, _c, inv in passes)
    assert stats.sched_passes == len(passes) <= stats.sched_invocations
    # every finished task is absorbed by exactly one pass
    assert stats.completions_absorbed == sum(c for _r, c, _i in passes)
    assert stats.completions_absorbed == stats.task_count
    if name.startswith("frfs-reserve-"):
        assert stats.sched_passes == stats.sched_invocations
    summary = stats.summary()
    assert "sched_passes" not in summary
    assert "completions_absorbed" not in summary


def test_overhead_is_split_evenly_over_a_pass_invocations():
    """k equal shares added one at a time: the same floats as recording
    each invocation on its own."""
    one_call, per_invocation = EmulationStats(), EmulationStats()
    one_call.record_scheduling_pass(10.0, 7, 3, 3)
    for _ in range(3):
        per_invocation.record_scheduling_pass(10.0 / 3, 7, 1, 1)
    assert one_call.sched_overhead_total == per_invocation.sched_overhead_total
    assert one_call.sched_invocations == per_invocation.sched_invocations == 3
    assert one_call.mean_ready_length() == per_invocation.mean_ready_length() == 7
    assert (one_call.sched_passes, one_call.completions_absorbed) == (1, 3)
