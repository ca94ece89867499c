"""COTS SoC platform descriptions — the emulation testbeds.

A :class:`SoCPlatform` describes the underlying chip the framework runs on:
its host CPU cores (with relative speeds and cluster tags), which core is
reserved as the *overlay/management* processor (runs the application
handler and workload manager), which cores form the resource pool, what PE
types can be instantiated and how many of each, and a factory for
accelerator devices.

Two factory functions build the paper's platforms:

* :func:`zcu102` — Zynq UltraScale+ MPSoC: quad Cortex-A53 (core 0 reserved
  for the overlay processor; cores 1–3 in the resource pool) plus up to two
  FFT accelerators in the programmable fabric.
* :func:`odroid_xu3` — Exynos 5422: four A15 big cores and four A7 LITTLE
  cores; one LITTLE core is the overlay processor, the remaining four big
  and three LITTLE cores form the resource pool.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.common.errors import HardwareConfigError, ReproError
from repro.hardware.accelerator import FFTAcceleratorDevice
from repro.hardware.pe import PE_BIG, PE_CPU, PE_FFT, PE_LITTLE, PEType


@dataclass(frozen=True)
class HostCoreSpec:
    """One physical core of the underlying SoC.

    ``cluster`` names which PE type's tasks this core can host ("cpu" on
    the ZCU102; "big"/"little" on the Odroid's heterogeneous clusters).
    ``speed`` is relative to the reference A53.
    """

    index: int
    name: str
    cluster: str
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise HardwareConfigError(f"core {self.name!r}: speed must be > 0")


@dataclass
class SoCPlatform:
    """An underlying SoC: host cores, PE-type inventory, device factory."""

    name: str
    host_cores: tuple[HostCoreSpec, ...]
    management_core: int
    pool_cores: tuple[int, ...]
    pe_types: dict[str, PEType]
    max_pe_counts: dict[str, int]
    accelerator_factory: Callable[[str], FFTAcceleratorDevice] | None = None
    description: str = ""

    def __post_init__(self) -> None:
        indices = {c.index for c in self.host_cores}
        if len(indices) != len(self.host_cores):
            raise HardwareConfigError(f"{self.name}: duplicate host core indices")
        if self.management_core not in indices:
            raise HardwareConfigError(
                f"{self.name}: management core {self.management_core} not a host core"
            )
        if self.management_core in self.pool_cores:
            raise HardwareConfigError(
                f"{self.name}: management core cannot also be in the resource pool"
            )
        for idx in self.pool_cores:
            if idx not in indices:
                raise HardwareConfigError(f"{self.name}: pool core {idx} unknown")
        for type_name in self.max_pe_counts:
            if type_name not in self.pe_types:
                raise HardwareConfigError(
                    f"{self.name}: max count given for unknown PE type {type_name!r}"
                )

    def core(self, index: int) -> HostCoreSpec:
        for c in self.host_cores:
            if c.index == index:
                return c
        raise HardwareConfigError(f"{self.name}: no host core {index}")

    def pool_cores_for_cluster(self, cluster: str) -> list[int]:
        """Resource-pool cores belonging to a cluster, in index order."""
        return [
            idx for idx in self.pool_cores if self.core(idx).cluster == cluster
        ]

    def pe_type(self, name: str) -> PEType:
        try:
            return self.pe_types[name]
        except KeyError:
            raise HardwareConfigError(
                f"{self.name}: unknown PE type {name!r} "
                f"(available: {sorted(self.pe_types)})"
            ) from None

    def max_count(self, type_name: str) -> int:
        return self.max_pe_counts.get(type_name, 0)

    def make_accelerator(self, name: str) -> FFTAcceleratorDevice:
        if self.accelerator_factory is None:
            raise HardwareConfigError(
                f"{self.name}: platform has no accelerator devices"
            )
        return self.accelerator_factory(name)


def zcu102() -> SoCPlatform:
    """Zynq UltraScale+ MPSoC evaluation platform (paper Sec. III-B)."""
    cores = tuple(
        HostCoreSpec(index=i, name=f"A53_{i}", cluster="cpu", speed=1.0)
        for i in range(4)
    )
    return SoCPlatform(
        name="zcu102",
        host_cores=cores,
        management_core=0,
        pool_cores=(1, 2, 3),
        pe_types={"cpu": PE_CPU, "fft": PE_FFT},
        max_pe_counts={"cpu": 3, "fft": 2},
        accelerator_factory=lambda name: FFTAcceleratorDevice(name),
        description=(
            "Quad Cortex-A53 + programmable fabric; core 0 is the overlay "
            "processor, up to 2 FFT accelerators behind AXI DMA"
        ),
    )


def odroid_xu3() -> SoCPlatform:
    """Odroid XU3 (Exynos 5422 big.LITTLE) platform (paper Sec. III-B).

    Cores 0–3 are Cortex-A15 (big), cores 4–7 Cortex-A7 (LITTLE).  Core 7
    (a LITTLE core) is the overlay processor — the paper notes its lower
    operating frequency inflates scheduling overhead, which is what makes
    high-PE-count configurations lose in Fig. 11.
    """
    bigs = tuple(
        HostCoreSpec(index=i, name=f"A15_{i}", cluster="big", speed=PE_BIG.speed)
        for i in range(4)
    )
    littles = tuple(
        HostCoreSpec(
            index=4 + i, name=f"A7_{i}", cluster="little", speed=PE_LITTLE.speed
        )
        for i in range(4)
    )
    return SoCPlatform(
        name="odroid_xu3",
        host_cores=bigs + littles,
        management_core=7,
        pool_cores=(0, 1, 2, 3, 4, 5, 6),
        pe_types={"big": PE_BIG, "little": PE_LITTLE},
        max_pe_counts={"big": 4, "little": 3},
        accelerator_factory=None,
        description=(
            "Exynos 5422 big.LITTLE: 4x A15 + 4x A7; one A7 is the overlay "
            "processor, 4 big + 3 LITTLE cores form the resource pool"
        ),
    )


_PLATFORMS: dict[str, Callable[[], SoCPlatform]] = {
    "zcu102": zcu102,
    "odroid_xu3": odroid_xu3,
}


def platform_by_name(name: str) -> SoCPlatform:
    """A fresh platform for a ``--platform`` / sweep-cell / scenario name."""
    try:
        return _PLATFORMS[name]()
    except KeyError:
        raise ReproError(
            f"unknown platform {name!r} ({' | '.join(_PLATFORMS)})"
        ) from None
