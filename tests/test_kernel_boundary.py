"""The compiled kernel checks what Python hands it — called directly.

``met_pass`` takes the usable idle positions from
``Scheduler.usable_idle`` and indexes C arrays with them, so a position that
is not an int, is negative or is past the handler list must end in a
``TypeError`` / ``ValueError``, never in a write outside the arrays.  A
position whose PE has meanwhile left IDLE is *not* an error: policies act
on a snapshot (``Scheduler.failed_mask``'s docstring) and the workload
manager's ``commit`` re-filters.

Skipped only when the extension is not built; the compiled CI job runs
this file with ``-rs`` and fails on a skip.
"""

from __future__ import annotations

import pytest

from repro import _native
from repro import core as core_select
from repro.runtime.handler import PEStatus
from repro.runtime.schedulers import make_scheduler
from tests.test_schedulers import FixedOracle, build_app, make_handlers

pytestmark = pytest.mark.skipif(
    not _native.available(), reason="compiled core extension not built"
)

#: kernel name -> the trailing argument after the usable positions
KERNELS = {"met_pass": None}


def kernel_call(name: str):
    """``call(usable, last=...)`` runs the kernel over four CPU-only tasks
    on ``[cpu, cpu, fft]`` with the given usable positions."""
    with core_select.forced(core_select.CORE_COMPILED):
        policy = make_scheduler(name.removesuffix("_pass"), FixedOracle({}))
    handlers = make_handlers(["cpu", "cpu", "fft"])
    tasks = build_app(4)
    policy._sync_row_cache(handlers)

    def call(usable, last=KERNELS[name]):
        placed = getattr(policy._kernels, name)(
            tasks, policy._est_rows, policy.estimate_row,
            handlers, usable, last,
        )
        return [(tasks.index(task), i) for task, i in placed]

    call.handlers = handlers
    return call


@pytest.fixture
def call():
    return kernel_call("met_pass")


def test_usable_positions_place_tasks_in_order(call):
    assert call([0, 1]) == [(0, 0), (1, 1)]
    assert [i for _task, i in call([1])] == [1]  # which task: the policy's
    assert call([]) == []


@pytest.mark.parametrize("bad", ["0", 1.0, None, (0,)])
def test_a_position_that_is_not_an_int_is_a_type_error(call, bad):
    with pytest.raises(TypeError, match="must be ints"):
        call([0, bad])


@pytest.mark.parametrize("bad", [-1, 3, 10**6, 2**80, -(2**80)])
def test_a_position_outside_the_handlers_is_a_value_error(call, bad):
    with pytest.raises(ValueError, match="outside the 3 handlers"):
        call([0, bad])


@pytest.mark.parametrize("bad", [(0, 1), None, 0, {0: 1}])
def test_the_positions_come_as_a_list(call, bad):
    with pytest.raises(TypeError, match="must be lists"):
        call(bad)


def test_a_position_whose_pe_left_idle_is_not_an_error(call):
    """The stale-read rule: the kernel places onto what it was told is
    usable; ``commit`` is what drops an assignment onto a PE that is gone."""
    busy, gone = call.handlers[0], call.handlers[1]
    busy.assign(build_app(1)[0])
    gone.mark_failed(5.0)
    assert busy.status is PEStatus.RUN and gone.status is PEStatus.FAILED
    assert call([0, 1]) == [(0, 0), (1, 1)]


def test_met_multipliers_are_one_per_position():
    call = kernel_call("met_pass")
    assert call([0, 1], [1.0, 0.5]) == [(0, 1), (1, 0)]
    with pytest.raises(ValueError, match="one multiplier per usable"):
        call([0, 1], [1.0])
    with pytest.raises(ValueError, match="one multiplier per usable"):
        call([0, 1], (1.0, 0.5))
