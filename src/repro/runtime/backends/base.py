"""Backend interface, the emulation session and the setup both backends share."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.appmodel.instance import ApplicationInstance
from repro.common.rng import SeedSequenceFactory
from repro.hardware.accelerator import FFTAcceleratorDevice
from repro.hardware.config import AffinityPlan
from repro.hardware.perfmodel import PerformanceModel, SchedulerCostModel
from repro.hardware.platform import SoCPlatform
from repro.runtime.application_handler import ApplicationHandler, LazyInstanceSource
from repro.runtime.faults import FaultInjector
from repro.runtime.handler import ResourceHandler
from repro.runtime.qos import QoSController
from repro.runtime.schedulers.base import Scheduler
from repro.runtime.stats import EmulationStats
from repro.runtime.workload_manager import MaterializedSource, PerfModelOracle, WorkloadManagerCore

__all__ = ["EmulationSession", "ExecutionBackend", "PerfModelOracle", "start_session"]


@dataclass
class EmulationSession:
    """Everything a backend needs to run one emulation."""

    platform: SoCPlatform
    plan: AffinityPlan
    handlers: list[ResourceHandler]
    app_handler: ApplicationHandler
    instances: list[ApplicationInstance]
    scheduler: Scheduler
    perf_model: PerformanceModel
    cost_model: SchedulerCostModel
    stats: EmulationStats
    #: the workload manager's instance queue: a MaterializedSource over
    #: ``instances``, or a LazyInstanceSource for an arrival stream
    source: MaterializedSource | LazyInstanceSource
    seeds: SeedSequenceFactory = field(default_factory=SeedSequenceFactory)
    #: apply multiplicative execution-time jitter (virtual backend)
    jitter: bool = True
    #: fault injector, or None for a fault-free run (see runtime.faults)
    faults: FaultInjector | None = None
    #: QoS controller, or None for a guardrail-free run (see runtime.qos)
    qos: QoSController | None = None

    @property
    def n_pes(self) -> int:
        return len(self.handlers)


class ExecutionBackend:
    """A strategy that executes an :class:`EmulationSession` to completion."""

    name = "base"

    def run(self, session: EmulationSession) -> EmulationStats:
        raise NotImplementedError


def start_session(
    session: EmulationSession,
) -> tuple[WorkloadManagerCore, dict[int, FFTAcceleratorDevice]]:
    """Setup both backends share: one device model per accelerator PE
    (keyed by ``pe_id``), and the started workload-manager core."""
    devices = {
        pe.pe_id: session.platform.make_accelerator(f"{pe.name}_dev")
        for pe in session.plan.pes
        if pe.is_accelerator
    }
    return WorkloadManagerCore.start(session, devices), devices
