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
import math
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


def _check_descriptor(descriptor: dict[str, Any]) -> None:
    """Reject a workload descriptor no cell could run, once per grid.

    Rates get scalar checks only (nothing is built); an ``arrivals`` spec
    gets the fail-fast build :func:`arrivals_sweep` gives in-code grids.
    """
    kind = descriptor.get("kind")
    if kind not in WORKLOAD_KINDS:
        raise ReproError(
            f"workload descriptor kind {kind!r} not in {WORKLOAD_KINDS}"
        )
    if kind == "validation":
        _check_apps(descriptor.get("apps"))
    elif kind in ("rate", "table_ii"):
        rate = descriptor.get("rate")
        if not (isinstance(rate, (int, float)) and math.isfinite(rate)
                and rate > 0):
            raise ReproError(
                f"{kind} workload needs a finite rate > 0, got {rate!r}"
            )
        if kind == "table_ii":
            from repro.experiments.workloads import TABLE_II_RATES

            if rate not in TABLE_II_RATES:
                raise ReproError(
                    f"table_ii rate {rate!r} is not one of {TABLE_II_RATES}"
                )
    elif kind == "arrivals":
        try:
            _arrival_stream(descriptor.get("spec") or {})
        except Exception as exc:
            raise ReproError(
                f"invalid arrivals workload in sweep grid: {exc}"
            ) from exc


def _check_apps(apps: Any) -> None:
    """A ``validation`` descriptor's ``apps``: a non-empty mapping of
    application names a cell can build to whole counts >= 1."""
    from repro.apps.registry import APPLICATION_BUILDERS

    if not isinstance(apps, dict) or not apps:
        raise ReproError(
            f"validation workload field 'apps' needs at least one "
            f"application, got {apps!r}"
        )
    for name, count in apps.items():
        if name not in APPLICATION_BUILDERS:
            raise ReproError(
                f"validation workload field 'apps': unknown application "
                f"{name!r} (available: {sorted(APPLICATION_BUILDERS)})"
            )
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ReproError(
                f"validation workload field 'apps': count for {name!r} must "
                f"be a whole number >= 1, got {count!r}"
            )


def _check_configs(configs: tuple[str, ...], platforms: tuple[str, ...]) -> None:
    """Reject a config no cell could run: one a cell cannot parse, or one
    naming a PE type that no platform of the grid has.

    Each config is parsed once, with the parser a cell's
    :class:`~repro.runtime.emulation.Emulation` uses.  A config asking for
    more PEs than a platform's pool holds, and a platform name that does
    not resolve, stay per-cell errors: other cells of the grid can run.
    """
    from repro.hardware.config import parse_config
    from repro.hardware.platform import platform_by_name

    known = []
    for name in platforms:
        try:
            known.append(set(platform_by_name(name).pe_types))
        except ReproError:
            pass  # reported by every cell on that platform
    for text in configs:
        if not isinstance(text, str):
            raise ReproError(
                f"sweep grid field 'configs': {text!r} is not a string"
            )
        try:
            config = parse_config(text)
        except ReproError as exc:
            raise ReproError(f"sweep grid field 'configs': {exc}") from None
        types = {type_name for type_name, _n in config.counts}
        if known and not any(types <= pe_types for pe_types in known):
            raise ReproError(
                f"sweep grid field 'configs': {text!r} names PE types "
                f"{sorted(types)}, which no platform of the grid "
                f"{list(platforms)} provides together"
            )


def _check_policies(policies: tuple[str, ...]) -> None:
    """Reject a policy no cell could build: each name must resolve through
    :func:`~repro.runtime.schedulers.make_scheduler`, ``+variant`` included."""
    from repro.runtime.schedulers import make_scheduler

    for name in policies:
        if not isinstance(name, str):
            raise ReproError(
                f"sweep grid field 'policies': {name!r} is not a string"
            )
        try:
            make_scheduler(name)
        except ReproError as exc:
            raise ReproError(f"sweep grid field 'policies': {exc}") from None


def _spec_list(data: dict[str, Any], name: str, default: tuple | None) -> tuple:
    """A spec axis: a JSON list (a string is not one: ``"frfs"`` would
    iterate as four one-letter policies); required when ``default`` is None."""
    if default is None and name not in data:
        raise ReproError(f"sweep spec missing key: {name!r}")
    value = data.get(name, default)
    if not isinstance(value, (list, tuple)):
        raise ReproError(
            f"sweep spec field {name!r} must be a list, got {value!r}"
        )
    return tuple(value)


def _spec_objects(data: dict[str, Any], name: str, default: tuple | None) -> tuple:
    """A spec axis of JSON objects (``null`` too, except for workloads)."""
    entries = _spec_list(data, name, default)
    for entry in entries:
        if not isinstance(entry, dict) and (name == "workloads" or entry is not None):
            raise ReproError(
                f"sweep spec field {name!r}: {entry!r} is not an object"
            )
    return tuple(None if e is None else dict(e) for e in entries)


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
        for w in self.workloads:
            _check_descriptor(w)
        _check_configs(self.configs, self.platforms)
        _check_policies(self.policies)

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
        if not isinstance(data, dict):
            raise ReproError(
                f"sweep spec must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {
            "platforms", "configs", "policies", "workloads", "seeds",
            "iterations", "jitter", "backend", "faults", "qos",
        }
        if unknown:
            raise ReproError(f"unknown sweep spec keys: {sorted(unknown)}")
        try:
            iterations = int(data.get("iterations", 1))
        except (TypeError, ValueError):
            raise ReproError(
                f"sweep spec field 'iterations' must be a whole number, "
                f"got {data['iterations']!r}"
            ) from None
        return cls(
            configs=_spec_list(data, "configs", None),
            policies=_spec_list(data, "policies", None),
            workloads=_spec_objects(data, "workloads", None),
            platforms=_spec_list(data, "platforms", ("zcu102",)),
            seeds=_spec_list(data, "seeds", (None,)),
            iterations=iterations,
            jitter=bool(data.get("jitter", False)),
            backend=data.get("backend", "virtual"),
            faults=_spec_objects(data, "faults", (None,)),
            qos=_spec_objects(data, "qos", (None,)),
        )

    def with_overrides(self, **kwargs: Any) -> SweepGrid:
        """A copy with some axes replaced (convenience for experiments)."""
        return replace(self, **kwargs)
