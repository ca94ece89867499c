"""Workload creation: validation mode, performance mode, arrival streams.

* **Validation mode** — every requested instance arrives at t=0 and the
  emulation finishes once all applications complete.
* **Performance mode** — applications are injected periodically over a test
  time-frame (the paper uses 100 ms) with a per-application period and
  injection probability; varying the periods sets the average injection
  rate (Table II).
* **Arrival streams** — open-loop generator sources for serving-scale
  workloads: instead of materializing every arrival up front (fine for the
  paper's 100 ms windows, fatal at millions of instances), an
  :class:`ArrivalStream` yields ``(arrival_time_us, app_name)`` pairs
  lazily, in non-decreasing time order, with a bounded lookahead window.
  All sources are seeded and deterministic; :class:`SpecStream` re-expresses
  a finite :class:`WorkloadSpec` as a stream, which is how the equivalence
  tests show both paths inject the same arrivals.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from repro.common.errors import ApplicationSpecError, EmulationError
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MS


@dataclass(frozen=True)
class WorkloadItem:
    """One application arrival: which archetype, and when."""

    app_name: str
    arrival_time: float  # µs relative to the emulation reference start time

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ApplicationSpecError(
                f"negative arrival time for {self.app_name!r}"
            )


@dataclass
class WorkloadSpec:
    """A complete workload: ordered arrivals plus provenance metadata."""

    items: list[WorkloadItem]
    mode: str = "validation"            # "validation" | "performance"
    time_frame: float = 0.0             # µs (performance mode window)
    description: str = ""

    def __post_init__(self) -> None:
        self.items = sorted(self.items, key=lambda it: it.arrival_time)

    @property
    def size(self) -> int:
        return len(self.items)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for item in self.items:
            out[item.app_name] = out.get(item.app_name, 0) + 1
        return out

    def injection_rate_per_ms(self) -> float:
        """Average injection rate in jobs per millisecond (performance mode)."""
        span = self.time_frame
        if span <= 0:
            if self.mode == "validation":
                # Validation mode has no time frame by construction; 0.0 is
                # the documented "not applicable" answer.
                return 0.0
            # No explicit window: fall back to the observed arrival span so
            # replayed traces still report a rate — and fail clearly when
            # the rate is genuinely undefined (single arrival / zero span)
            # instead of dividing by zero.
            if self.size >= 2:
                span = self.items[-1].arrival_time - self.items[0].arrival_time
            if span <= 0:
                raise EmulationError(
                    f"injection rate undefined for {self.mode!r} workload "
                    f"({self.size} arrival(s) over a zero time span); set "
                    "time_frame or provide at least two distinct arrivals"
                )
        return self.size / (span / MS)


def validation_workload(app_counts: dict[str, int]) -> WorkloadSpec:
    """All instances at t=0 (functional-verification mode)."""
    items: list[WorkloadItem] = []
    for app_name, count in app_counts.items():
        if count < 0:
            raise ApplicationSpecError(f"negative count for {app_name!r}")
        items.extend(WorkloadItem(app_name, 0.0) for _ in range(count))
    if not items:
        raise ApplicationSpecError("validation workload is empty")
    return WorkloadSpec(
        items=items,
        mode="validation",
        description=f"validation: {dict(sorted(app_counts.items()))}",
    )


def periodic_arrivals(
    period: float,
    time_frame: float,
    probability: float = 1.0,
    rng: np.random.Generator | None = None,
    phase: float = 0.0,
) -> list[float]:
    """Arrival instants for one application: every ``period`` µs within
    ``[0, time_frame)``, each kept with ``probability``."""
    # NaN/inf would make every loop comparison False and spin forever, so
    # reject non-finite parameters up front alongside the sign checks.
    if not np.isfinite(period) or period <= 0:
        raise ApplicationSpecError(f"period must be positive, got {period}")
    if not np.isfinite(time_frame) or time_frame <= 0:
        raise ApplicationSpecError(
            f"time_frame must be positive, got {time_frame}"
        )
    if not np.isfinite(phase) or phase < 0:
        raise ApplicationSpecError(f"phase must be >= 0, got {phase}")
    if not 0.0 <= probability <= 1.0:
        raise ApplicationSpecError(f"probability out of range: {probability}")
    arrivals: list[float] = []
    k = 0
    # Multiply rather than accumulate so float error cannot admit an extra
    # k*period == time_frame arrival (period is often time_frame/count).
    eps = 1e-9 * max(time_frame, 1.0)
    while True:
        t = phase + k * period
        if t >= time_frame - eps:
            break
        if probability >= 1.0 or (rng is not None and rng.random() < probability):
            arrivals.append(t)
        k += 1
    return arrivals


def performance_workload(
    app_periods: dict[str, float],
    time_frame: float = 100.0 * MS,
    probabilities: dict[str, float] | None = None,
    seed: int | None = None,
) -> WorkloadSpec:
    """Probabilistic periodic trace over the test time-frame.

    ``app_periods`` maps app name → injection period in µs; the optional
    ``probabilities`` map defaults each app to 1.0 (the paper's setting).
    """
    if not np.isfinite(time_frame) or time_frame <= 0:
        raise ApplicationSpecError(
            f"time_frame must be positive, got {time_frame}"
        )
    probabilities = probabilities or {}
    factory = SeedSequenceFactory(seed)
    items: list[WorkloadItem] = []
    for app_name, period in sorted(app_periods.items()):
        prob = probabilities.get(app_name, 1.0)
        rng = factory.rng("arrivals", app_name) if prob < 1.0 else None
        for t in periodic_arrivals(period, time_frame, prob, rng):
            items.append(WorkloadItem(app_name, t))
    if not items:
        raise ApplicationSpecError("performance workload is empty")
    return WorkloadSpec(
        items=items,
        mode="performance",
        time_frame=time_frame,
        description=(
            f"performance: periods={ {k: round(v, 1) for k, v in app_periods.items()} }"
            f" over {time_frame / MS:.0f}ms"
        ),
    )


def workload_for_counts(
    app_counts: dict[str, int], time_frame: float = 100.0 * MS
) -> WorkloadSpec:
    """Performance-mode workload hitting exact per-app instance counts.

    Inverts the paper's Table II: given target counts over the window, the
    per-app period is ``time_frame / count`` (probability 1), producing
    exactly ``count`` arrivals at k·period for k = 0..count-1.
    """
    periods = {}
    for app_name, count in app_counts.items():
        if count < 0:
            raise ApplicationSpecError(
                f"negative instance count for {app_name!r}: {count}"
            )
        if count == 0:
            continue
        periods[app_name] = time_frame / count
    if not periods:
        raise ApplicationSpecError("no positive app counts given")
    spec = performance_workload(periods, time_frame)
    actual = spec.counts()
    expected = {k: v for k, v in app_counts.items() if v > 0}
    if actual != expected:
        raise ApplicationSpecError(
            f"count inversion failed: wanted {expected}, got {actual}"
        )
    return spec


# ---------------------------------------------------------------------------
# Open-loop arrival streams
# ---------------------------------------------------------------------------

#: draws per RNG batch: the stream's only lookahead buffer, so memory stays
#: O(chunk) however long the stream runs
_CHUNK = 256


def validate_arrivals(iterable, what: str = "arrival stream"):
    """Wrap an arrival iterator, enforcing the stream contract lazily.

    Every yielded item must be a ``(time_us, app_name)`` pair with a finite,
    non-negative time no earlier than its predecessor.  Violations raise
    :class:`EmulationError` naming the offending index, so a bad trace file
    or source fails fast at the first out-of-order arrival instead of
    corrupting the emulation's event ordering.
    """
    last = 0.0
    for i, item in enumerate(iterable):
        try:
            t, app_name = item
        except (TypeError, ValueError):
            raise EmulationError(
                f"{what}: arrival #{i} is not a (time, app_name) pair: "
                f"{item!r}"
            ) from None
        t = float(t)
        if not math.isfinite(t) or t < 0:
            raise EmulationError(
                f"{what}: arrival #{i} has invalid time {t!r} "
                "(must be finite and >= 0)"
            )
        if t < last:
            raise EmulationError(
                f"{what}: arrival #{i} at t={t:.3f}us precedes arrival "
                f"#{i - 1} at t={last:.3f}us — arrival times must be "
                "non-decreasing"
            )
        last = t
        yield t, str(app_name)


def _normalize_mix(apps, what: str):
    """Validate an app-weight mix (a mapping or ``(name, weight)`` pairs);
    return (names, cumulative_weights)."""
    apps = dict(apps)
    if not apps:
        raise EmulationError(f"{what}: app mix is empty")
    names: list[str] = []
    weights: list[float] = []
    for name in sorted(apps):
        w = float(apps[name])
        if not math.isfinite(w) or w <= 0:
            raise EmulationError(
                f"{what}: weight for {name!r} must be positive and finite, "
                f"got {w}"
            )
        names.append(name)
        weights.append(w)
    total = sum(weights)
    cum: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cum.append(acc)
    cum[-1] = 1.0  # absorb float drift so every draw lands in range
    return tuple(names), cum


def _positive_rate(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise EmulationError(f"{what} must be positive and finite, got {value}")
    return value


class ArrivalStream:
    """Base class for open-loop arrival sources.

    Subclasses implement :meth:`arrivals`, the stream's law: a generator
    of ``(arrival_time_us, app_name)`` pairs that never checks a bound.
    Iteration runs it through the monotonicity guard, so any misbehaving
    source fails fast with the offending index, and then through the
    bounds: the first arrival at or past ``duration_us`` ends the stream,
    and nothing is pulled after the ``max_apps``-th arrival.  ``total`` is
    the known arrival count (None unless a subclass can say), and ``mode``
    is what stats/report labels use.
    """

    mode = "openloop"
    description = ""
    duration_us: float | None = None
    max_apps: int | None = None

    @property
    def total(self) -> int | None:
        return None

    def arrivals(self):
        raise NotImplementedError

    def _set_bounds(
        self, duration_ms: float | None, max_apps: int | None, what: str
    ) -> None:
        """Validate and keep the stream's bounds; None leaves one unset."""
        if duration_ms is not None:
            self.duration_us = _positive_rate(
                duration_ms * MS, f"{what}: duration"
            )
        if max_apps is not None and max_apps < 1:
            raise EmulationError(
                f"{what}: max_apps must be >= 1, got {max_apps}"
            )
        self.max_apps = max_apps

    def __iter__(self):
        end, cap = self.duration_us, self.max_apps
        checked = validate_arrivals(
            self.arrivals(), what=self.description or type(self).__name__
        )
        for n, (t, app_name) in enumerate(checked, start=1):
            if end is not None and t >= end:
                return
            yield t, app_name
            if n == cap:
                return


class SpecStream(ArrivalStream):
    """Finite adapter: replays a :class:`WorkloadSpec` as an arrival stream.

    The spec's sorted items already satisfy the stream contract.  The
    bit-identity tests replay a spec through it to show the streaming
    path injects exactly what the materialized path does.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.mode = spec.mode
        self.description = spec.description

    @property
    def total(self) -> int | None:
        return self.spec.size

    def arrivals(self):
        for item in self.spec.items:
            yield item.arrival_time, item.app_name


class _GeneratedStream(ArrivalStream):
    """A seeded source over a weighted app mix; it must be bounded.

    Its :meth:`arrivals` is the one exponential-gap loop: a Poisson
    process at ``_peak`` per ms.  When the kind defines ``rate_at(t_us)``
    (µs^-1) each candidate is kept with probability ``rate_at(t)/peak``
    — Lewis-Shedler thinning against a constant majorant, exact and
    deterministic for a fixed seed.  The RNG streams are named
    ``("openloop", kind, …)``, so each kind draws its own.
    """

    kind = ""
    rate_at = None

    def __init__(
        self,
        what: str,
        apps: dict[str, float],
        duration_ms: float | None,
        max_apps: int | None,
        seed: int = 0,
    ) -> None:
        if duration_ms is None and max_apps is None:
            raise EmulationError(
                f"{what}: unbounded stream — set a duration and/or a "
                "max_apps cap so the emulation can terminate"
            )
        self._set_bounds(duration_ms, max_apps, what)
        self.names, self.cum = _normalize_mix(apps, what)
        self.seed = int(seed)

    @property
    def total(self) -> int | None:
        # Only a hard count cap makes the length knowable up front.
        return self.max_apps if self.duration_us is None else None

    def arrivals(self):
        factory = SeedSequenceFactory(self.seed)
        t_rng = factory.rng("openloop", self.kind, "times")
        a_rng = factory.rng("openloop", self.kind, "apps")
        rate_at = self.rate_at
        if rate_at is not None:
            u_rng = factory.rng("openloop", self.kind, "thin")
        peak = self._peak / MS  # majorant, µs^-1
        scale = 1.0 / peak  # mean candidate gap, µs
        names, cum = self.names, self.cum
        last = len(names) - 1
        t = 0.0
        while True:
            gaps = t_rng.exponential(scale, size=_CHUNK)
            picks = a_rng.random(_CHUNK)
            accepts = repeat(0.0) if rate_at is None else u_rng.random(_CHUNK)
            for gap, u, v in zip(gaps, picks, accepts):
                t += gap
                if rate_at is None or v * peak < rate_at(t):
                    yield t, names[min(bisect_right(cum, u), last)]


class PoissonStream(_GeneratedStream):
    """Homogeneous Poisson arrivals at ``rate_per_ms``, app mix by weight."""

    kind = "poisson"

    def __init__(
        self,
        rate_per_ms: float,
        apps: dict[str, float],
        *,
        duration_ms: float | None = None,
        max_apps: int | None = None,
        seed: int = 0,
    ) -> None:
        what = f"poisson({rate_per_ms}/ms)"
        super().__init__(what, apps, duration_ms, max_apps, seed)
        self.rate_per_ms = self._peak = _positive_rate(
            rate_per_ms, f"{what}: rate_per_ms"
        )
        self.description = (
            f"openloop poisson {self.rate_per_ms:g}/ms seed={self.seed}"
        )


class PeriodicStream(_GeneratedStream):
    """Deterministic fixed-spacing arrivals with a smooth weighted mix.

    One arrival every ``1/rate_per_ms`` ms; the app for each slot comes from
    an error-diffusion (smooth weighted round-robin) pick, so the mix
    converges to the weights without any randomness — the same seedless
    trace every run.
    """

    kind = "periodic"

    def __init__(
        self,
        rate_per_ms: float,
        apps: dict[str, float],
        *,
        duration_ms: float | None = None,
        max_apps: int | None = None,
        phase_us: float = 0.0,
    ) -> None:
        what = f"periodic({rate_per_ms}/ms)"
        super().__init__(what, apps, duration_ms, max_apps)
        self.rate_per_ms = _positive_rate(rate_per_ms, f"{what}: rate_per_ms")
        # back out the normalized per-app shares from the cumulative form
        cum = self.cum
        self.shares = [
            cum[i] - (cum[i - 1] if i else 0.0) for i in range(len(cum))
        ]
        if not math.isfinite(phase_us) or phase_us < 0:
            raise EmulationError(f"{what}: phase must be >= 0, got {phase_us}")
        self.phase_us = phase_us
        self.description = f"openloop periodic {self.rate_per_ms:g}/ms"

    def arrivals(self):
        period = MS / self.rate_per_ms
        names, shares = self.names, self.shares
        n = len(names)
        credits = [0.0] * n
        k = 0
        while True:
            best = 0
            for i in range(n):
                credits[i] += shares[i]
                if credits[i] > credits[best]:
                    best = i
            credits[best] -= 1.0
            yield self.phase_us + k * period, names[best]
            k += 1


class DiurnalStream(_GeneratedStream):
    """Sinusoidal day/night load: rate swings between base and peak.

    ``rate(t) = base + (peak - base) · (1 - cos(2πt/period)) / 2`` — the
    cycle starts at the base rate, crests at ``period/2``, and returns.
    """

    kind = "diurnal"

    def __init__(
        self,
        rate_per_ms: float,
        peak_rate_per_ms: float,
        apps: dict[str, float],
        *,
        period_ms: float = 1000.0,
        duration_ms: float | None = None,
        max_apps: int | None = None,
        seed: int = 0,
    ) -> None:
        what = f"diurnal({rate_per_ms}..{peak_rate_per_ms}/ms)"
        super().__init__(what, apps, duration_ms, max_apps, seed)
        self.base = _positive_rate(rate_per_ms, f"{what}: rate_per_ms")
        self.peak = self._peak = _positive_rate(
            peak_rate_per_ms, f"{what}: peak_rate_per_ms"
        )
        if self.peak < self.base:
            raise EmulationError(
                f"{what}: peak_rate_per_ms ({self.peak}) must be >= "
                f"rate_per_ms ({self.base})"
            )
        self.period_us = _positive_rate(period_ms, f"{what}: period_ms") * MS
        self.description = (
            f"openloop diurnal {self.base:g}..{self.peak:g}/ms "
            f"period={self.period_us / MS:g}ms seed={self.seed}"
        )

    def rate_at(self, t_us: float) -> float:
        swing = (self.peak - self.base) / MS
        base = self.base / MS
        return base + swing * 0.5 * (
            1.0 - math.cos(2.0 * math.pi * t_us / self.period_us)
        )


class BurstyStream(_GeneratedStream):
    """Flash-crowd load: a base rate with piecewise-constant burst windows.

    Each burst is ``(start_ms, duration_ms, rate_per_ms)``; while a burst
    window is active the offered rate is the burst rate (overlapping bursts
    take the maximum), otherwise the base rate.
    """

    kind = "bursty"

    def __init__(
        self,
        rate_per_ms: float,
        apps: dict[str, float],
        *,
        bursts: list[tuple[float, float, float]],
        duration_ms: float | None = None,
        max_apps: int | None = None,
        seed: int = 0,
    ) -> None:
        what = f"bursty({rate_per_ms}/ms base)"
        super().__init__(what, apps, duration_ms, max_apps, seed)
        self.base = _positive_rate(rate_per_ms, f"{what}: rate_per_ms")
        if not bursts:
            raise EmulationError(f"{what}: bursts list is empty")
        windows: list[tuple[float, float, float]] = []
        for j, burst in enumerate(bursts):
            try:
                start_ms, dur_ms, rate = burst
            except (TypeError, ValueError):
                raise EmulationError(
                    f"{what}: burst #{j} must be "
                    f"(start_ms, duration_ms, rate_per_ms), got {burst!r}"
                ) from None
            start_ms = float(start_ms)
            if not math.isfinite(start_ms) or start_ms < 0:
                raise EmulationError(
                    f"{what}: burst #{j} start must be >= 0, got {start_ms}"
                )
            dur_ms = _positive_rate(dur_ms, f"{what}: burst #{j} duration")
            rate = _positive_rate(rate, f"{what}: burst #{j} rate")
            windows.append((start_ms * MS, (start_ms + dur_ms) * MS, rate))
        self.windows = sorted(windows)
        self._peak = max(self.base, max(w[2] for w in self.windows))
        self.description = (
            f"openloop bursty {self.base:g}/ms +{len(self.windows)} "
            f"burst(s) peak={self._peak:g}/ms seed={self.seed}"
        )

    def rate_at(self, t_us: float) -> float:
        rate = self.base
        for start, end, burst_rate in self.windows:
            if start > t_us:
                break
            if t_us < end and burst_rate > rate:
                rate = burst_rate
        return rate / MS


class TraceStream(ArrivalStream):
    """Replay arrivals from a trace file, one line at a time (O(1) memory).

    Two formats, chosen by extension:

    * ``.jsonl`` — one JSON value per line: either an object
      ``{"t_us": <float>, "app": <name>}`` or a two-element array
      ``[<t_us>, <name>]``.
    * ``.csv`` — ``t_us,app`` rows; a header row naming the columns is
      skipped if present.

    ``time_scale`` divides every timestamp (>1 compresses the trace —
    the offered-load knob for replayed traces), and ``duration_ms``
    bounds replay in *scaled* time exactly like the generated sources:
    the first arrival at or past the bound ends the stream.  Ordering
    violations are reported with the offending line via the stream
    guard.  ``total`` stays None even under ``max_apps``: the file may
    end before the cap, and a count nobody will reach would leave the
    workload manager waiting for apps that never arrive.
    """

    def __init__(
        self,
        path: str,
        *,
        time_scale: float = 1.0,
        duration_ms: float | None = None,
        max_apps: int | None = None,
    ) -> None:
        self.path = str(path)
        what = f"trace {self.path!r}"
        self.time_scale = _positive_rate(time_scale, f"{what}: time_scale")
        self._set_bounds(duration_ms, max_apps, what)
        self.description = f"openloop trace {self.path}"

    def arrivals(self):
        jsonl = self.path.endswith((".jsonl", ".json"))
        saw_data = False
        try:
            fh = open(self.path, encoding="utf-8")
        except OSError as exc:
            raise EmulationError(
                f"cannot open arrival trace {self.path!r}: {exc}"
            ) from exc
        with fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    if jsonl:
                        row = json.loads(line)
                        if isinstance(row, dict):
                            t, app_name = row["t_us"], row["app"]
                        else:
                            t, app_name = row
                    else:
                        first, _, rest = line.partition(",")
                        if not saw_data and not _is_number(first):
                            # Header row: only the first non-skipped row
                            # may name the columns; anything non-numeric
                            # later is a genuine parse error.
                            saw_data = True
                            continue
                        t, app_name = float(first), rest.strip()
                    t = float(t)
                    saw_data = True
                except (ValueError, KeyError, TypeError,
                        json.JSONDecodeError) as exc:
                    raise EmulationError(
                        f"arrival trace {self.path!r} line {lineno}: "
                        f"cannot parse {line!r}: {exc}"
                    ) from exc
                if not app_name:
                    raise EmulationError(
                        f"arrival trace {self.path!r} line {lineno}: "
                        "missing app name"
                    )
                yield t / self.time_scale, app_name


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Declarative arrival specs (the --arrivals JSON façade)
# ---------------------------------------------------------------------------

#: kind -> (stream class, required fields, optional fields).  Every kind
#: also takes ``kind``/``duration_ms``/``max_apps``/``label``.  Any other
#: field set on a spec is rejected up front: a silently ignored ``seed`` on
#: a deterministic periodic stream (or a rate on a trace replay) is a
#: config typo, not a request.  :meth:`ArrivalSpec.build` passes the set
#: fields to the stream class by name, so an unset optional one takes the
#: stream's own default.
_KINDS = {
    "poisson": (PoissonStream, ("rate_per_ms", "apps"), ("seed",)),
    "periodic": (PeriodicStream, ("rate_per_ms", "apps"), ()),
    "diurnal": (DiurnalStream, ("rate_per_ms", "peak_rate_per_ms", "apps"),
                ("period_ms", "seed")),
    "bursty": (BurstyStream, ("rate_per_ms", "apps", "bursts"), ("seed",)),
    "trace": (TraceStream, ("path",), ("time_scale",)),
}
ARRIVAL_KINDS = tuple(_KINDS)

_COMMON_FIELDS = ("kind", "duration_ms", "max_apps", "label")
#: the fields ``rate_scale`` multiplies, an unset one counting as 1.0 (a
#: burst's rate is scaled too)
_RATE_FIELDS = ("rate_per_ms", "peak_rate_per_ms", "time_scale")
_BURST_KEYS = ("start_ms", "duration_ms", "rate_per_ms")


def _read_apps(raw) -> tuple[tuple[str, float], ...]:
    if not isinstance(raw, dict):
        raise EmulationError("arrival spec 'apps' must be an object "
                             "mapping app name -> weight")
    return tuple(sorted((str(k), float(v)) for k, v in raw.items()))


def _read_bursts(raw) -> tuple[tuple[float, float, float], ...]:
    bursts = []
    for j, burst in enumerate(raw):
        if isinstance(burst, dict):
            if set(burst) != set(_BURST_KEYS):
                raise EmulationError(
                    f"arrival spec burst #{j} must have exactly start_ms, "
                    f"duration_ms, rate_per_ms (got {sorted(burst)})"
                )
            burst = [burst[key] for key in _BURST_KEYS]
        try:
            s, d, r = burst
        except (TypeError, ValueError):
            raise EmulationError(
                f"arrival spec burst #{j}: expected 3 fields, got {burst!r}"
            ) from None
        bursts.append((float(s), float(d), float(r)))
    return tuple(bursts)


#: how :meth:`ArrivalSpec.from_dict` reads a JSON value, by field annotation
_READERS = {
    "str": str,
    "int": int,
    "int | None": int,
    "float | None": float,
    "tuple[tuple[str, float], ...]": _read_apps,
    "tuple[tuple[float, float, float], ...]": _read_bursts,
}


@dataclass(frozen=True)
class ArrivalSpec:
    """JSON-serializable description of one arrival stream.

    The CLI/bench knobs compose through :meth:`build`: ``rate_scale``
    multiplies every generated rate (for a trace it *composes* with the
    spec's own ``time_scale`` unit conversion), and
    ``duration_ms``/``max_apps`` override the spec's own bounds.
    """

    kind: str
    apps: tuple[tuple[str, float], ...] = ()
    rate_per_ms: float | None = None
    duration_ms: float | None = None
    max_apps: int | None = None
    seed: int = 0
    #: diurnal only
    peak_rate_per_ms: float | None = None
    period_ms: float | None = None
    #: bursty only: (start_ms, duration_ms, rate_per_ms) windows
    bursts: tuple[tuple[float, float, float], ...] = ()
    #: trace only: path to the trace file and its timestamp unit
    #: conversion, which divides every stamp (0.001 for a trace in ms)
    path: str = ""
    time_scale: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise EmulationError(
                f"unknown arrival kind {self.kind!r} "
                f"(use one of {ARRIVAL_KINDS})"
            )
        _, required, optional = _KINDS[self.kind]
        allowed = required + optional + _COMMON_FIELDS
        stray = [name for name in self._set_fields() if name not in allowed]
        if stray:
            raise EmulationError(
                f"arrival spec kind={self.kind!r} does not use "
                f"{sorted(stray)} (allowed: {sorted(required + optional)})"
            )

    def _set_fields(self) -> dict:
        """The fields that differ from their defaults, in field order."""
        return {
            f.name: getattr(self, f.name) for f in fields(self)
            if getattr(self, f.name) != f.default
        }

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        doc = self._set_fields()
        if "apps" in doc:
            doc["apps"] = dict(self.apps)
        if "bursts" in doc:
            doc["bursts"] = [dict(zip(_BURST_KEYS, b)) for b in self.bursts]
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "ArrivalSpec":
        if not isinstance(data, dict):
            raise EmulationError(
                f"arrival spec must be an object, got {type(data).__name__}"
            )
        spec_fields = fields(cls)
        unknown = set(data) - {f.name for f in spec_fields}
        if unknown:
            raise EmulationError(f"unknown arrival spec keys: {sorted(unknown)}")
        values = {}
        for f in spec_fields:
            if data.get(f.name) is not None:
                try:
                    values[f.name] = _READERS[f.type](data[f.name])
                except (TypeError, ValueError) as exc:
                    raise EmulationError(
                        f"arrival spec {f.name!r}: {exc}"
                    ) from None
        values.setdefault("kind", "")
        return cls(**values)

    @classmethod
    def from_json_file(cls, path: str) -> "ArrivalSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise EmulationError(
                f"cannot load arrival spec {path!r}: {exc}"
            ) from exc
        return cls.from_dict(data)

    # -- construction --------------------------------------------------------

    def build(
        self,
        *,
        rate_scale: float = 1.0,
        duration_ms: float | None = None,
        max_apps: int | None = None,
    ) -> ArrivalStream:
        """Instantiate the stream, applying the offered-load/bound knobs."""
        rate_scale = _positive_rate(rate_scale, "rate_scale")
        stream_cls, required, optional = _KINDS[self.kind]
        given = self._set_fields()
        missing = [name for name in required if name not in given]
        if missing:
            raise EmulationError(
                f"arrival spec kind={self.kind!r} requires {', '.join(missing)}"
            )
        kwargs = {
            name: given[name] for name in required + optional if name in given
        }
        # rate_scale multiplies every rate, and composes with (never
        # replaces) a trace's own time_scale: both divide replayed times.
        for name in _RATE_FIELDS:
            if name in required + optional:
                kwargs[name] = kwargs.get(name, 1.0) * rate_scale
        if "bursts" in kwargs:
            kwargs["bursts"] = tuple(
                (s, d, r * rate_scale) for s, d, r in self.bursts
            )
        stream = stream_cls(
            **kwargs,
            duration_ms=self.duration_ms if duration_ms is None else duration_ms,
            max_apps=self.max_apps if max_apps is None else max_apps,
        )
        if self.label:
            stream.description = f"{self.label}: {stream.description}"
        return stream
