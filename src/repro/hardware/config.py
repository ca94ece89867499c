"""DSSoC test configurations and resource-manager thread affinity.

A configuration names how many PEs of each type to instantiate from a
platform's resource pool, written the way the paper labels its x-axes::

    "3C+2F"      -> 3 cpu cores + 2 FFT accelerators   (ZCU102)
    "2BIG+3LTL"  -> 2 big + 3 LITTLE cores             (Odroid XU3)
    "cpu:3,fft:2" (explicit form)

:class:`AffinityPlan` applies the paper's thread-placement rule (Sec. II-D):
CPU-type PEs pin their resource-manager thread to a dedicated unused pool
core of the matching cluster; accelerator-type PEs take remaining unused
cores first and are then distributed evenly — so a 2C+2F configuration puts
both FFT resource-manager threads on the single leftover A53, which is the
mechanism behind the paper's 2C+2F ≈ 2C+1F observation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.errors import HardwareConfigError
from repro.hardware.pe import ProcessingElement
from repro.hardware.platform import SoCPlatform

# Config-string abbreviations used by the paper's figure labels.
_ABBREVIATIONS = {
    "C": "cpu",
    "F": "fft",
    "BIG": "big",
    "B": "big",
    "LTL": "little",
    "L": "little",
}

_TOKEN_RE = re.compile(r"^(\d+)\s*([A-Za-z]+)$")


@dataclass(frozen=True)
class DSSoCConfig:
    """Requested PE counts per type, ordered as written."""

    counts: tuple[tuple[str, int], ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.counts:
            raise HardwareConfigError("configuration requests no PEs")
        seen: set[str] = set()
        total = 0
        for type_name, count in self.counts:
            if count < 0:
                raise HardwareConfigError(
                    f"negative PE count for {type_name!r}: {count}"
                )
            if type_name in seen:
                raise HardwareConfigError(f"duplicate PE type {type_name!r}")
            seen.add(type_name)
            total += count
        if total == 0:
            raise HardwareConfigError("configuration requests zero PEs")

    def count(self, type_name: str) -> int:
        for name, count in self.counts:
            if name == type_name:
                return count
        return 0

    def describe(self) -> str:
        return self.label or ",".join(f"{n}:{c}" for n, c in self.counts)

    def __str__(self) -> str:
        return self.describe()


def parse_config(text: str) -> DSSoCConfig:
    """Parse a configuration string (paper notation or explicit form)."""
    stripped = text.strip()
    if not stripped:
        raise HardwareConfigError("empty configuration string")
    if ":" in stripped:
        counts = []
        for part in stripped.split(","):
            name, _sep, num = part.partition(":")
            name = name.strip().lower()
            if not name or not num.strip().isdigit():
                raise HardwareConfigError(f"cannot parse config part {part!r}")
            counts.append((name, int(num)))
        return DSSoCConfig(counts=tuple(counts), label=stripped)
    counts = []
    for token in stripped.split("+"):
        match = _TOKEN_RE.match(token.strip())
        if match is None:
            raise HardwareConfigError(
                f"cannot parse config token {token!r} in {text!r}"
            )
        count = int(match.group(1))
        abbrev = match.group(2).upper()
        type_name = _ABBREVIATIONS.get(abbrev, abbrev.lower())
        counts.append((type_name, count))
    return DSSoCConfig(counts=tuple(counts), label=stripped)


@dataclass
class AffinityPlan:
    """The instantiated PE list plus each RM thread's host-core pin."""

    platform: SoCPlatform
    config: DSSoCConfig
    pes: list[ProcessingElement] = field(default_factory=list)

    @classmethod
    def build(cls, platform: SoCPlatform, config: DSSoCConfig | str) -> "AffinityPlan":
        if isinstance(config, str):
            config = parse_config(config)
        plan = cls(platform=platform, config=config)
        plan._place()
        return plan

    def _place(self) -> None:
        platform, config = self.platform, self.config
        # Validate against the platform inventory.
        for type_name, count in config.counts:
            pe_type = platform.pe_type(type_name)
            limit = platform.max_count(type_name)
            if count > limit:
                raise HardwareConfigError(
                    f"{platform.name}: config {config} requests {count} "
                    f"{type_name!r} PEs but the platform provides {limit}"
                )
            del pe_type
        used_cores: set[int] = set()
        pe_id = 0
        type_counters: dict[str, int] = {}

        def next_name(type_name: str) -> str:
            n = type_counters.get(type_name, 0)
            type_counters[type_name] = n + 1
            return f"{type_name}{n}"

        # 1. CPU-type PEs: dedicated cores of the matching cluster.
        for type_name, count in config.counts:
            pe_type = platform.pe_type(type_name)
            if not pe_type.is_cpu:
                continue
            cluster_cores = platform.pool_cores_for_cluster(type_name)
            free = [c for c in cluster_cores if c not in used_cores]
            if count > len(free):
                raise HardwareConfigError(
                    f"{platform.name}: {count} {type_name!r} PEs need "
                    f"{count} free {type_name!r}-cluster cores, "
                    f"only {len(free)} available"
                )
            for _ in range(count):
                core = free.pop(0)
                used_cores.add(core)
                self.pes.append(
                    ProcessingElement(
                        pe_id=pe_id,
                        pe_type=pe_type,
                        name=next_name(type_name),
                        host_core=core,
                    )
                )
                pe_id += 1

        # 2. Accelerator-type PEs: resource-manager threads take unused pool
        # cores first (cycling through them), then spread evenly over all
        # pool cores.
        unused = [c for c in platform.pool_cores if c not in used_cores]
        accel_index = 0
        for type_name, count in config.counts:
            pe_type = platform.pe_type(type_name)
            if not pe_type.is_accelerator:
                continue
            for _ in range(count):
                if unused:
                    core = unused[accel_index % len(unused)]
                else:
                    pool = list(platform.pool_cores)
                    core = pool[accel_index % len(pool)]
                self.pes.append(
                    ProcessingElement(
                        pe_id=pe_id,
                        pe_type=pe_type,
                        name=next_name(type_name),
                        host_core=core,
                    )
                )
                pe_id += 1
                accel_index += 1

    # -- queries -----------------------------------------------------------------

    def cores_in_use(self) -> set[int]:
        return {pe.host_core for pe in self.pes}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        placement = ", ".join(f"{pe.name}@core{pe.host_core}" for pe in self.pes)
        return f"AffinityPlan({self.config}: {placement})"
