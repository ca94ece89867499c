"""Policy registry — the Python analog of ``performScheduling``'s dispatch.

Users select a built-in policy by name at run time or register a custom
constructor; :func:`make_scheduler` builds the policy with the emulation's
execution-time oracle, mirroring the paper's instruction to "define a new
policy in scheduler.cpp and add a dispatch call in performScheduling".
"""

from __future__ import annotations

from collections.abc import Callable

from repro.common.errors import SchedulingError
from repro.runtime.schedulers.base import ExecutionTimeOracle, Scheduler
from repro.runtime.schedulers.eft import EFTScheduler
from repro.runtime.schedulers.frfs import FRFSScheduler
from repro.runtime.schedulers.heft import CPRankScheduler, HEFTScheduler
from repro.runtime.schedulers.met import METScheduler, PowerAwareMETScheduler
from repro.runtime.schedulers.random_policy import RandomScheduler
from repro.runtime.schedulers.reservation import (
    ReservationEFTScheduler,
    ReservationFRFSScheduler,
)
from repro.runtime.schedulers.rollout import RolloutScheduler

SchedulerFactory = Callable[[ExecutionTimeOracle | None], Scheduler]

_REGISTRY: dict[str, SchedulerFactory] = {
    "frfs": lambda oracle: FRFSScheduler(oracle),
    "met": lambda oracle: METScheduler(oracle),
    "eft": lambda oracle: EFTScheduler(oracle),
    "random": lambda oracle: RandomScheduler(oracle),
    "heft": lambda oracle: HEFTScheduler(oracle),
    "met_power": lambda oracle: PowerAwareMETScheduler(oracle),
    "frfs_reserve": lambda oracle: ReservationFRFSScheduler(oracle),
    "eft_reserve": lambda oracle: ReservationEFTScheduler(oracle),
    "cprank": lambda oracle: CPRankScheduler(oracle),
    "rollout": lambda oracle: RolloutScheduler(oracle),
}


def available_policies() -> list[str]:
    """Names accepted by :func:`make_scheduler`."""
    return sorted(_REGISTRY)


def register_policy(name: str, factory: SchedulerFactory,
                    replace: bool = False) -> None:
    """Add a user-defined policy to the dispatch table.  The name must be
    non-empty and free of ``+``, which :func:`make_scheduler` splits on."""
    if not name or "+" in name:
        raise SchedulingError(
            f"invalid policy name {name!r}: empty or contains '+'"
        )
    if name in _REGISTRY and not replace:
        raise SchedulingError(
            f"policy {name!r} already registered (pass replace=True to override)"
        )
    _REGISTRY[name] = factory


def make_scheduler(
    name: str, oracle: ExecutionTimeOracle | None = None
) -> Scheduler:
    """Instantiate a policy by registry name.

    A ``+edf`` suffix (e.g. ``frfs+edf``) wraps the base policy in the
    deadline-aware EDF tie-break from :mod:`repro.runtime.qos`.
    """
    base_name, _, variant = name.partition("+")
    try:
        factory = _REGISTRY[base_name]
    except KeyError:
        raise SchedulingError(
            f"unknown scheduling policy {name!r} "
            f"(available: {available_policies()})"
        ) from None
    scheduler = factory(oracle)
    if not variant:
        return scheduler
    if variant == "edf":
        from repro.runtime.qos import EDFScheduler

        return EDFScheduler(scheduler)
    raise SchedulingError(
        f"unknown policy variant {variant!r} in {name!r} (only '+edf')"
    )
