"""Runtime core — the paper's primary contribution.

The workload manager drives emulation on a dedicated management core:
injecting applications from the workload queue, maintaining the ready task
list, applying the selected scheduling policy, and coordinating with per-PE
resource managers through resource-handler objects.  Two execution backends
implement the same runtime state machine:

* ``threaded`` — real POSIX-style threads and real kernels (functional
  verification, wall-clock timing);
* ``virtual`` — discrete-event simulation with calibrated timing models
  (deterministic figure reproduction).
"""

from repro.runtime.handler import ResourceHandler, PEStatus
from repro.runtime.workload import (
    WorkloadItem,
    WorkloadSpec,
    validation_workload,
    performance_workload,
    periodic_arrivals,
)
from repro.runtime.application_handler import ApplicationHandler, ResolvedApplication
from repro.runtime.stats import EmulationStats, StreamingStats, TaskRecord
from repro.runtime.emulation import Emulation, EmulationResult
from repro.runtime.schedulers import (
    Scheduler,
    Assignment,
    FRFSScheduler,
    METScheduler,
    EFTScheduler,
    RandomScheduler,
    make_scheduler,
    available_policies,
    register_policy,
)

__all__ = [
    "ResourceHandler",
    "PEStatus",
    "WorkloadItem",
    "WorkloadSpec",
    "validation_workload",
    "performance_workload",
    "periodic_arrivals",
    "ApplicationHandler",
    "ResolvedApplication",
    "EmulationStats",
    "StreamingStats",
    "TaskRecord",
    "Emulation",
    "EmulationResult",
    "Scheduler",
    "Assignment",
    "FRFSScheduler",
    "METScheduler",
    "EFTScheduler",
    "RandomScheduler",
    "make_scheduler",
    "available_policies",
    "register_policy",
]
