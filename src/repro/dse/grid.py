"""Declarative sweep spaces for DSE campaigns.

A :class:`SweepGrid` names the axes of a design-space sweep — platform,
DSSoC configuration, scheduling policy, workload, seed — and expands
their cross product into :class:`SweepCell` instances.  Cells are plain
serializable data: a cell fully describes one emulation run without
holding any live objects, so it can cross a process boundary, key an
on-disk cache, and be replayed from a journal.

Workloads are described by small dicts rather than ``WorkloadSpec``
objects for the same reason; :func:`build_workload` materializes the
spec inside whichever process executes the cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any

from repro.common.errors import ReproError
from repro.runtime.workload import ArrivalSpec, ArrivalStream, WorkloadSpec

#: Workload descriptor kinds understood by :func:`build_workload`.
WORKLOAD_KINDS = ("validation", "rate", "table_ii", "arrivals")


def validation_sweep(apps: dict[str, int]) -> dict[str, Any]:
    """Descriptor for a validation-mode workload (all arrivals at t=0).

    App order is preserved: with every arrival at t=0, instance order
    (and therefore jitter-stream assignment) follows it, so two
    orderings of the same counts are genuinely different cells.
    """
    return {"kind": "validation", "apps": dict(apps)}


def rate_sweep(rate: float, time_frame_us: float | None = None) -> dict[str, Any]:
    """Descriptor for a Table-II-mix workload at an arbitrary rate."""
    desc: dict[str, Any] = {"kind": "rate", "rate": float(rate)}
    if time_frame_us is not None:
        desc["time_frame_us"] = float(time_frame_us)
    return desc


def table_ii_sweep(rate: float) -> dict[str, Any]:
    """Descriptor for one of the five canonical Table II workloads."""
    return {"kind": "table_ii", "rate": float(rate)}


def arrivals_sweep(spec: dict[str, Any]) -> dict[str, Any]:
    """Descriptor for an open-loop arrival stream (serving-style cell).

    ``spec`` is an :class:`~repro.runtime.workload.ArrivalSpec` dict —
    the same shape ``--arrivals`` accepts on the CLI.  It is built
    eagerly so a sweep file with a spec that cannot run fails at grid
    expansion, not minutes later inside a worker process.
    """
    _arrival_stream(spec)  # fail fast; cells carry the dict
    return {"kind": "arrivals", "spec": dict(spec)}


def _arrival_stream(spec: dict[str, Any]) -> ArrivalStream:
    """The stream an ``arrivals`` cell runs.  Building it checks the
    whole spec (bounds, rates, mix, bursts) without reading a trace."""
    return ArrivalSpec.from_dict(dict(spec)).build()


def build_workload(descriptor: dict[str, Any]) -> WorkloadSpec | ArrivalStream:
    """Materialize a workload descriptor into a :class:`WorkloadSpec`
    (closed-loop kinds) or a fresh :class:`ArrivalStream` (``arrivals``).

    Streams are re-iterable — each emulation run draws a fresh generator
    with the same seed — so one build per cell serves every iteration,
    exactly like the materialized kinds.
    """
    from repro.experiments.workloads import table_ii_workload, workload_at_rate
    from repro.runtime.workload import validation_workload

    kind = descriptor.get("kind")
    if kind == "validation":
        return validation_workload(dict(descriptor["apps"]))
    if kind == "rate":
        if "time_frame_us" in descriptor:
            return workload_at_rate(
                descriptor["rate"], descriptor["time_frame_us"]
            )
        return workload_at_rate(descriptor["rate"])
    if kind == "table_ii":
        return table_ii_workload(descriptor["rate"])
    if kind == "arrivals":
        return _arrival_stream(descriptor["spec"])
    raise ReproError(
        f"unknown workload descriptor kind {kind!r} (use {WORKLOAD_KINDS})"
    )


def describe_workload(descriptor: dict[str, Any]) -> str:
    """Short human label for a workload descriptor."""
    kind = descriptor.get("kind")
    if kind == "validation":
        apps = descriptor["apps"]
        return ",".join(f"{n}={c}" for n, c in apps.items())
    if kind in ("rate", "table_ii"):
        return f"{kind}@{descriptor['rate']:g}"
    if kind == "arrivals":
        spec = descriptor.get("spec", {})
        label = spec.get("label") or spec.get("kind", "?")
        return f"arrivals:{label}"
    return str(descriptor)


def _content_hash(doc: dict[str, Any], length: int) -> str:
    """Leading hex digits of the SHA-256 of ``doc``'s canonical JSON."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:length]


@dataclass(frozen=True)
class SweepCell:
    """One point of the sweep space: everything one emulation run needs.

    The cell ID is a content hash over the canonical JSON encoding of the
    cell's parameters — deterministic across processes, platforms, and
    dict orderings — and keys both the result cache and the journal.

    Identity (``cell_id``, ``label``, ``workload_label``) is computed once
    per object, on first read.  The cell is frozen and :meth:`from_dict` and
    :meth:`SweepGrid.expand` hand it private copies of their dicts; do
    not mutate ``workload``/``faults``/``qos`` in place afterwards — build
    a new cell (``dataclasses.replace``) instead.
    """

    config: str
    policy: str
    workload: dict[str, Any]
    platform: str = "zcu102"
    seed: int | None = None
    iterations: int = 1
    jitter: bool = False
    backend: str = "virtual"
    #: fault spec in dict form (see runtime.faults), or None for fault-free
    faults: dict[str, Any] | None = None
    #: QoS spec in dict form (see runtime.qos), or None for QoS-free
    qos: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "platform": self.platform,
            "config": self.config,
            "policy": self.policy,
            "workload": dict(self.workload),
            "seed": self.seed,
            "iterations": self.iterations,
            "jitter": self.jitter,
            "backend": self.backend,
        }
        # Serialized only when present so fault-free/QoS-free cell IDs (and
        # cached results keyed on them) are unchanged from older campaigns.
        if self.faults is not None:
            doc["faults"] = dict(self.faults)
        if self.qos is not None:
            doc["qos"] = dict(self.qos)
        return doc

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> SweepCell:
        faults = data.get("faults")
        qos = data.get("qos")
        return cls(
            platform=data.get("platform", "zcu102"),
            config=data["config"],
            policy=data["policy"],
            workload=dict(data["workload"]),
            seed=data.get("seed"),
            iterations=int(data.get("iterations", 1)),
            jitter=bool(data.get("jitter", False)),
            backend=data.get("backend", "virtual"),
            faults=dict(faults) if faults is not None else None,
            qos=dict(qos) if qos is not None else None,
        )

    # Identity is kept in the instance ``__dict__`` by hand rather than by
    # ``functools.cached_property``, whose first read takes a lock in
    # Python 3.11: 0.6 us a cell where a campaign prologue reads every id.

    @property
    def cell_id(self) -> str:
        cached = self.__dict__.get("_cell_id")
        if cached is None:
            payload = self.to_dict()
            workload = payload["workload"]
            if isinstance(workload.get("apps"), dict):
                # apps order is execution-significant (arrival
                # tie-breaking), so encode it as an ordered pair list
                # rather than letting sort_keys erase the distinction
                payload["workload"] = {
                    **workload,
                    "apps": [list(kv) for kv in workload["apps"].items()],
                }
            cached = self.__dict__["_cell_id"] = _content_hash(payload, 16)
        return cached

    @property
    def workload_label(self) -> str:
        """``describe_workload(self.workload)``, the row's ``workload``."""
        cached = self.__dict__.get("_workload_label")
        if cached is None:
            cached = self.__dict__["_workload_label"] = describe_workload(
                self.workload
            )
        return cached

    @property
    def label(self) -> str:
        cached = self.__dict__.get("_label")
        if cached is None:
            parts = [self.config, self.policy, self.workload_label]
            if self.platform != "zcu102":
                parts.insert(0, self.platform)
            if self.seed is not None:
                parts.append(f"seed{self.seed}")
            if self.faults is not None:
                parts.append(str(self.faults.get("label") or "faults"))
            if self.qos is not None:
                parts.append(str(self.qos.get("label") or "qos"))
            cached = self.__dict__["_label"] = "/".join(parts)
        return cached


@dataclass(frozen=True)
class SweepGrid:
    """Cross product of sweep axes.

    Expansion order is deterministic: platforms, then workloads, then
    configs, then policies, then seeds — so campaign output follows the
    order experiments conventionally present (rate-major, config-minor
    for Fig. 11; config-major for Fig. 9).
    """

    configs: tuple[str, ...]
    policies: tuple[str, ...]
    workloads: tuple[dict[str, Any], ...]
    platforms: tuple[str, ...] = ("zcu102",)
    seeds: tuple[int | None, ...] = (None,)
    iterations: int = 1
    jitter: bool = False
    backend: str = "virtual"
    #: fault axis: dict-form fault specs; None = a fault-free grid point
    faults: tuple[dict[str, Any] | None, ...] = (None,)
    #: QoS axis: dict-form QoS specs; None = a QoS-free grid point
    qos: tuple[dict[str, Any] | None, ...] = (None,)

    def __post_init__(self) -> None:
        if not self.configs:
            raise ReproError("sweep grid needs at least one config")
        if not self.policies:
            raise ReproError("sweep grid needs at least one policy")
        if not self.workloads:
            raise ReproError("sweep grid needs at least one workload")
        if self.iterations < 1:
            raise ReproError("iterations must be >= 1")
        if self.backend not in ("virtual", "threaded"):
            raise ReproError(f"unknown backend {self.backend!r}")
        if not self.faults:
            raise ReproError(
                "fault axis cannot be empty (use (None,) for fault-free)"
            )
        if not self.qos:
            raise ReproError(
                "qos axis cannot be empty (use (None,) for QoS-free)"
            )

    @property
    def size(self) -> int:
        return (
            len(self.platforms)
            * len(self.workloads)
            * len(self.configs)
            * len(self.policies)
            * len(self.seeds)
            * len(self.faults)
            * len(self.qos)
        )

    def expand(self) -> list[SweepCell]:
        cells: list[SweepCell] = []
        for platform in self.platforms:
            for workload in self.workloads:
                for config in self.configs:
                    for policy in self.policies:
                        for seed in self.seeds:
                            for faults in self.faults:
                                for qos in self.qos:
                                    cells.append(
                                        SweepCell(
                                            platform=platform,
                                            config=config,
                                            policy=policy,
                                            workload=dict(workload),
                                            seed=seed,
                                            iterations=self.iterations,
                                            jitter=self.jitter,
                                            backend=self.backend,
                                            faults=(
                                                dict(faults)
                                                if faults is not None
                                                else None
                                            ),
                                            qos=(
                                                dict(qos)
                                                if qos is not None
                                                else None
                                            ),
                                        )
                                    )
        return cells

    @property
    def grid_id(self) -> str:
        """Content hash of the whole grid (stable default campaign key)."""
        return _content_hash(self.to_dict(), 12)

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "platforms": list(self.platforms),
            "configs": list(self.configs),
            "policies": list(self.policies),
            "workloads": [dict(w) for w in self.workloads],
            "seeds": list(self.seeds),
            "iterations": self.iterations,
            "jitter": self.jitter,
            "backend": self.backend,
        }
        # As with SweepCell: only serialized when the axis is non-trivial,
        # so pre-fault grid IDs are unchanged.
        if self.faults != (None,):
            doc["faults"] = [
                dict(f) if f is not None else None for f in self.faults
            ]
        if self.qos != (None,):
            doc["qos"] = [
                dict(q) if q is not None else None for q in self.qos
            ]
        return doc

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> SweepGrid:
        """Build a grid from a campaign spec dict (JSON file contents)."""
        unknown = set(data) - {
            "platforms", "configs", "policies", "workloads", "seeds",
            "iterations", "jitter", "backend", "faults", "qos",
        }
        if unknown:
            raise ReproError(f"unknown sweep spec keys: {sorted(unknown)}")
        try:
            workloads = tuple(dict(w) for w in data["workloads"])
            grid = cls(
                configs=tuple(data["configs"]),
                policies=tuple(data["policies"]),
                workloads=workloads,
                platforms=tuple(data.get("platforms", ("zcu102",))),
                seeds=tuple(data.get("seeds", (None,))),
                iterations=int(data.get("iterations", 1)),
                jitter=bool(data.get("jitter", False)),
                backend=data.get("backend", "virtual"),
                faults=tuple(
                    dict(f) if f is not None else None
                    for f in data.get("faults", (None,))
                ),
                qos=tuple(
                    dict(q) if q is not None else None
                    for q in data.get("qos", (None,))
                ),
            )
        except KeyError as exc:
            raise ReproError(f"sweep spec missing key: {exc}") from None
        for w in grid.workloads:
            if w.get("kind") not in WORKLOAD_KINDS:
                raise ReproError(
                    f"workload descriptor kind {w.get('kind')!r} not in "
                    f"{WORKLOAD_KINDS}"
                )
            if w.get("kind") == "arrivals":
                # the same fail-fast check arrivals_sweep() gives in-code
                # grids
                try:
                    _arrival_stream(w.get("spec") or {})
                except Exception as exc:
                    raise ReproError(
                        f"invalid arrivals workload in sweep spec: {exc}"
                    ) from exc
        return grid

    def with_overrides(self, **kwargs: Any) -> SweepGrid:
        """A copy with some axes replaced (convenience for experiments)."""
        return replace(self, **kwargs)
