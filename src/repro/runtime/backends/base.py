"""Backend interface and the perf-model execution-time oracle."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.appmodel.instance import ApplicationInstance, TaskInstance
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
from repro.runtime.workload_manager import MaterializedSource


class PerfModelOracle:
    """Execution-time estimates from the calibrated performance model.

    Both the virtual backend's timing and the schedulers' expectations draw
    from the same tables — the paper's schedulers likewise consume the
    profiled per-platform execution costs carried in the application JSON.
    """

    def __init__(
        self,
        perf_model: PerformanceModel,
        devices: dict[int, FFTAcceleratorDevice],
    ) -> None:
        self.perf_model = perf_model
        self.devices = devices
        # Estimates depend only on (archetype node, PE) — instances of the
        # same application share TaskNode objects, so this cache turns the
        # schedulers' hot estimate() calls into dict lookups.
        self._cache: dict[tuple[int, int], float | None] = {}
        # Second level: the model itself depends only on (runfunc, PE), so
        # distinct nodes sharing a kernel resolve to one model evaluation.
        self._runfunc_cache: dict[tuple[str, int], float] = {}

    def estimate(self, task: TaskInstance, handler: ResourceHandler) -> float | None:
        node = task.node
        key = (id(node), handler.pe_id)
        hit = self._cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        value = self._estimate_uncached(node, handler)
        self._cache[key] = value
        return value

    def _estimate_uncached(self, node, handler: ResourceHandler) -> float | None:
        binding = node.binding_for_any(handler.accepted_platforms)
        if binding is None:
            return None
        # pe_id pins both the PE type and (for accelerators) the device, so
        # keying on (runfunc, pe_id) is sound and collapses every node that
        # runs the same kernel onto one model evaluation.
        key = (binding.runfunc, handler.pe_id)
        hit = self._runfunc_cache.get(key)
        if hit is not None:
            return hit
        pe_type = handler.pe.pe_type
        if pe_type.is_accelerator:
            device = self.devices.get(handler.pe_id)
            if device is None:
                return None
            value = self.perf_model.service_time(binding.runfunc, pe_type, device)
        else:
            value = self.perf_model.cpu_time(binding.runfunc, pe_type)
        self._runfunc_cache[key] = value
        return value


_MISS = object()


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
