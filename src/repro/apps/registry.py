"""Application repository: wires the SDR suite into the framework.

Provides the default :class:`~repro.appmodel.library.KernelLibrary` with all
four applications' shared objects (plus the common ``fft_accel.so``), and
archetype builders keyed by app name, so the application handler can parse
"all available applications" the way the C framework scans its application
directory.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

from repro.appmodel.dag import TaskGraph
from repro.appmodel.library import KernelLibrary
from repro.apps import pulse_doppler, range_detection, wifi_rx, wifi_tx
from repro.common.errors import ApplicationSpecError

#: app name -> zero-argument archetype builder
APPLICATION_BUILDERS: dict[str, Callable[[], TaskGraph]] = {
    range_detection.APP_NAME: range_detection.build_graph,
    pulse_doppler.APP_NAME: pulse_doppler.build_graph,
    wifi_tx.APP_NAME: wifi_tx.build_graph,
    wifi_rx.APP_NAME: wifi_rx.build_graph,
}

#: app name -> functional output verifier (instance -> bool)
OUTPUT_VERIFIERS: dict[str, Callable] = {
    range_detection.APP_NAME: range_detection.verify_output,
    pulse_doppler.APP_NAME: pulse_doppler.verify_output,
    wifi_tx.APP_NAME: wifi_tx.verify_output,
    wifi_rx.APP_NAME: wifi_rx.verify_output,
}


def default_kernel_library() -> KernelLibrary:
    """A library with every SDR shared object registered."""
    lib = KernelLibrary()
    lib.register_shared_object(
        range_detection.SHARED_OBJECT, range_detection.CPU_KERNELS
    )
    lib.register_shared_object(pulse_doppler.SHARED_OBJECT, pulse_doppler.CPU_KERNELS)
    lib.register_shared_object(wifi_tx.SHARED_OBJECT, wifi_tx.CPU_KERNELS)
    lib.register_shared_object(wifi_rx.SHARED_OBJECT, wifi_rx.CPU_KERNELS)
    # The shared accelerator library referenced by per-platform
    # ``shared_object`` keys (Listing 1's fft_accel.so).
    accel_symbols = {}
    accel_symbols.update(range_detection.ACCEL_KERNELS)
    accel_symbols.update(pulse_doppler.ACCEL_KERNELS)
    accel_symbols.update(wifi_tx.ACCEL_KERNELS)
    accel_symbols.update(wifi_rx.ACCEL_KERNELS)
    lib.register_shared_object("fft_accel.so", accel_symbols)
    return lib


#: archetypes parsed so far in this process; a TaskGraph is read-only, so
#: every emulation shares the one object
_archetypes: dict[str, TaskGraph] = {}
_archetypes_lock = threading.Lock()


def build_application(app_name: str) -> TaskGraph:
    """One archetype by name, built on first request and shared after; error
    message lists what exists, like the framework reporting an unknown
    ``AppName`` after parsing."""
    with _archetypes_lock:  # two threads asking at once build it once
        graph = _archetypes.get(app_name)
        if graph is None:
            try:
                builder = APPLICATION_BUILDERS[app_name]
            except KeyError:
                raise ApplicationSpecError(
                    f"application {app_name!r} was not detected "
                    f"(available: {sorted(APPLICATION_BUILDERS)})"
                ) from None
            graph = _archetypes[app_name] = builder()
    return graph


def default_applications() -> dict[str, TaskGraph]:
    """All archetypes, parsed and validated: a fresh dict over the shared,
    read-only graphs (the paper's once-only initialization phase)."""
    return {name: build_application(name) for name in APPLICATION_BUILDERS}


def verify_instance(instance) -> bool:
    """Dispatch to the app's functional verifier (True when unknown apps
    have nothing to check)."""
    verifier = OUTPUT_VERIFIERS.get(instance.app_name)
    return True if verifier is None else bool(verifier(instance))
