"""Emulation façade: the framework's top-level entry point.

Ties together a platform, a DSSoC test configuration, the application
repository, a scheduling policy, and an execution backend::

    from repro import Emulation, validation_workload, VirtualBackend

    emu = Emulation(config="3C+2F", policy="frfs")
    result = emu.run(validation_workload({"range_detection": 3}))
    print(result.stats.summary())

The paper's initialization phase is split by how often its work is due.
Parsing the application repository happens once per process: the built-in
archetypes are built on first use and shared, read-only, by every
``Emulation`` (see :mod:`repro.apps.registry`); graphs passed in through
``applications=`` are used as given.  Each :meth:`Emulation.run` then does
what depends on the run — resolve each archetype's kernel symbols against
this emulation's library, check the configuration can execute every node,
instantiate the workload (allocating/initializing instance memory), build
the DSSoC configuration from the platform's resource pool — and hands the
session to the backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.appmodel.dag import TaskGraph
from repro.appmodel.instance import ApplicationInstance
from repro.appmodel.library import KernelLibrary
from repro.apps import registry as app_registry
from repro.common.rng import SeedSequenceFactory
from repro.hardware.config import AffinityPlan, DSSoCConfig, parse_config
from repro.hardware.perfmodel import PerformanceModel, SchedulerCostModel
from repro.hardware.platform import SoCPlatform, zcu102
from repro.runtime.application_handler import ApplicationHandler, LazyInstanceSource
from repro.runtime.backends.base import EmulationSession, ExecutionBackend
from repro.runtime.backends.virtual import VirtualBackend
from repro.runtime.faults import FaultSpec, make_injector
from repro.runtime.handler import ResourceHandler
from repro.runtime.qos import QoSController, QoSSpec, make_qos
from repro.runtime.schedulers import Scheduler, make_scheduler
from repro.runtime.stats import EmulationStats, StreamingStats
from repro.runtime.workload import ArrivalStream, WorkloadSpec
from repro.runtime.workload_manager import MaterializedSource


@dataclass
class EmulationResult:
    """Outcome of one emulation run."""

    stats: EmulationStats
    instances: list[ApplicationInstance]
    workload: WorkloadSpec | ArrivalStream
    config_label: str
    policy: str

    @property
    def makespan_us(self) -> float:
        return self.stats.makespan

    @property
    def makespan_ms(self) -> float:
        return self.stats.makespan / 1000.0

    def verify_outputs(self) -> dict[str, bool]:
        """Functional verification of every instance's application output
        (threaded backend only — virtual instances carry no data)."""
        results: dict[str, bool] = {}
        for instance in self.instances:
            if instance.variables is None:
                continue
            ok = app_registry.verify_instance(instance)
            key = instance.app_name
            results[key] = results.get(key, True) and ok
        return results

    def all_outputs_correct(self) -> bool:
        checks = self.verify_outputs()
        return bool(checks) and all(checks.values())


class Emulation:
    """Reusable emulation configuration (each ``run`` is independent)."""

    def __init__(
        self,
        *,
        platform: SoCPlatform | None = None,
        config: DSSoCConfig | str = "3C+2F",
        policy: str | Scheduler = "frfs",
        applications: dict[str, TaskGraph] | None = None,
        library: KernelLibrary | None = None,
        perf_model: PerformanceModel | None = None,
        cost_model: SchedulerCostModel | None = None,
        seed: int | None = None,
        jitter: bool = True,
        materialize_memory: bool = True,
        faults: FaultSpec | dict | None = None,
        qos: QoSController | QoSSpec | dict | None = None,
    ) -> None:
        self.platform = platform if platform is not None else zcu102()
        self.config = (
            parse_config(config) if isinstance(config, str) else config
        )
        self.policy = policy
        self.applications = (
            applications
            if applications is not None
            else app_registry.default_applications()
        )
        self.library = (
            library if library is not None else app_registry.default_kernel_library()
        )
        self.perf_model = perf_model if perf_model is not None else PerformanceModel()
        self.cost_model = cost_model if cost_model is not None else SchedulerCostModel()
        self.seed = seed
        self.jitter = jitter
        self.materialize_memory = materialize_memory
        #: fault plan (FaultSpec, its dict form, or None); an empty spec is
        #: equivalent to None — the run stays bit-identical to fault-free
        self.faults = faults
        #: QoS plan (QoSController, QoSSpec, its dict form, or None); an
        #: empty spec is equivalent to None, same bit-identity guarantee
        self.qos = qos

    # -- the initialization phase + emulation ---------------------------------------------

    def build_session(
        self, workload: WorkloadSpec | ArrivalStream, *, run_index: int = 0
    ) -> EmulationSession:
        """Everything up to (but excluding) backend execution.

        A :class:`WorkloadSpec` is materialized up front (the paper's
        closed-loop path, bit-identical to the historical behavior); an
        :class:`ArrivalStream` builds instances lazily at injection and
        records into :class:`StreamingStats`, so memory stays O(in flight).
        """
        plan = AffinityPlan.build(self.platform, self.config)
        handlers = [ResourceHandler(pe) for pe in plan.pes]

        app_handler = ApplicationHandler(self.library)
        app_handler.register_all(self.applications)
        accepted: set[str] = set()
        for handler in handlers:
            accepted.update(handler.accepted_platforms)
        app_handler.check_platform_coverage(accepted)

        streaming = isinstance(workload, ArrivalStream)
        instances: list[ApplicationInstance] = []
        if not streaming:
            instances = app_handler.instantiate(
                workload, materialize_memory=self.materialize_memory
            )

        scheduler = (
            make_scheduler(self.policy)
            if isinstance(self.policy, str)
            else self.policy
        )
        stats_cls = StreamingStats if streaming else EmulationStats
        stats = stats_cls(label=workload.description)
        stats.policy_name = scheduler.name
        stats.config_label = self.config.describe()
        for pe in plan.pes:
            stats.register_pe(pe)

        seeds = SeedSequenceFactory(self.seed)
        if run_index:
            seeds = seeds.spawn("run", run_index)
        injector = make_injector(self.faults, seeds)
        stats.faults_enabled = injector is not None
        qos = make_qos(self.qos)
        if qos is not None:
            # An empty-spec controller only carries the interrupt flag for
            # signal handling; it must not grow the stats summary.
            stats.qos_enabled = not qos.spec.is_empty
            qos.assign_deadlines(instances)
        if streaming:
            # Built after QoS so deadlines are stamped at pop time.
            source = LazyInstanceSource(
                app_handler,
                workload,
                materialize_memory=self.materialize_memory,
                qos=qos,
            )
        else:
            source = MaterializedSource(instances)
        return EmulationSession(
            platform=self.platform,
            plan=plan,
            handlers=handlers,
            app_handler=app_handler,
            instances=instances,
            scheduler=scheduler,
            perf_model=self.perf_model,
            cost_model=self.cost_model,
            stats=stats,
            seeds=seeds,
            jitter=self.jitter,
            faults=injector,
            qos=qos,
            source=source,
        )

    def run(
        self,
        workload: WorkloadSpec | ArrivalStream,
        backend: ExecutionBackend | None = None,
        *,
        run_index: int = 0,
    ) -> EmulationResult:
        """Execute one emulation; ``run_index`` varies the jitter stream
        across repeated iterations of the same workload (Fig. 9a's boxes)."""
        if backend is None:
            backend = VirtualBackend()
        session = self.build_session(workload, run_index=run_index)
        stats = backend.run(session)
        return EmulationResult(
            stats=stats,
            instances=session.instances,
            workload=workload,
            config_label=self.config.describe(),
            policy=session.scheduler.name,
        )
