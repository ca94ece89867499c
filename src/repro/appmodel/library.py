"""Kernel libraries — the Python analog of ``*.so`` shared objects.

The C runtime ``dlopen``s the shared object named in the JSON and looks up
each node's ``runfunc`` with ``dlsym``.  Here, a *shared object* is a name
registered with the :class:`KernelLibrary` mapping symbols to Python
callables.  Lookup failures raise :class:`SymbolResolutionError`, preserving
the integration failure mode users debug in the real framework.

Kernel calling convention
-------------------------
A kernel is ``fn(ctx: KernelContext) -> None``.  The context exposes the
node's declared arguments *positionally* (``ctx.arg(0)``), mirroring the C
kernels receiving raw pointers in the JSON-declared order, plus by-name
access to the instance's full variable table, invocation metadata (which PE
type is running it), and — for accelerator platforms — the device handle
the resource manager is driving.
"""

from __future__ import annotations

import types
from collections.abc import Callable, Mapping

import numpy as np

from repro.appmodel.variables import VariableBinding, VariableTable
from repro.common.errors import ApplicationSpecError, SymbolResolutionError


class KernelContext:
    """Argument bundle passed to every kernel invocation."""

    __slots__ = (
        "variables",
        "arg_names",
        "platform",
        "node_name",
        "app_name",
        "device",
    )

    def __init__(
        self,
        variables: VariableTable,
        arg_names: tuple[str, ...] = (),
        platform: str = "cpu",
        node_name: str = "",
        app_name: str = "",
        device=None,
    ) -> None:
        self.variables = variables
        self.arg_names = arg_names
        self.platform = platform
        self.node_name = node_name
        self.app_name = app_name
        #: accelerator device handle (threaded backend, accel platforms only)
        self.device = device

    def arg(self, index: int) -> VariableBinding:
        """The node's ``index``-th declared argument."""
        try:
            name = self.arg_names[index]
        except IndexError:
            raise ApplicationSpecError(
                f"node {self.node_name!r}: argument index {index} out of "
                f"range (declares {len(self.arg_names)})"
            ) from None
        return self.variables[name]

    def array(self, name: str, dtype: str | np.dtype, count: int | None = None) -> np.ndarray:
        """Typed view of a pointer variable (writes are visible to successors)."""
        return self.variables[name].as_array(dtype, count)

    def int(self, name: str) -> int:
        """Read an integer scalar variable."""
        return self.variables[name].as_int()

    def set_int(self, name: str, value: int) -> None:
        """Write an integer scalar variable."""
        self.variables[name].set_int(value)

    def float32(self, name: str, count: int | None = None) -> np.ndarray:
        return self.array(name, np.float32, count)

    def complex64(self, name: str, count: int | None = None) -> np.ndarray:
        return self.array(name, np.complex64, count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KernelContext(app={self.app_name!r}, node={self.node_name!r}, "
            f"platform={self.platform!r})"
        )


Kernel = Callable[[KernelContext], None]


class KernelLibrary:
    """Registry of shared objects and their exported kernel symbols."""

    def __init__(self) -> None:
        self._objects: dict[str, dict[str, Kernel]] = {}

    def register_shared_object(
        self, name: str, symbols: Mapping[str, Kernel] | types.ModuleType
    ) -> None:
        """Register a shared object under ``name``.

        ``symbols`` may be a mapping or a module — for modules, every public
        callable becomes an exported symbol (the module *is* the ``.so``).
        Re-registering a name replaces it, matching ``dlopen`` of a rebuilt
        library.
        """
        if isinstance(symbols, types.ModuleType):
            exported = {
                attr: obj
                for attr, obj in vars(symbols).items()
                if callable(obj) and not attr.startswith("_")
            }
        else:
            exported = dict(symbols)
        self._objects[name] = exported

    def register_symbol(self, shared_object: str, symbol: str, fn: Kernel) -> None:
        """Add (or replace) one symbol in a shared object, creating it if new."""
        self._objects.setdefault(shared_object, {})[symbol] = fn

    def symbols(self, shared_object: str) -> list[str]:
        if shared_object not in self._objects:
            raise SymbolResolutionError(f"shared object {shared_object!r} not found")
        return list(self._objects[shared_object])

    def resolve(self, shared_object: str, runfunc: str) -> Kernel:
        """Look up a kernel symbol; raises like a failed ``dlsym``."""
        obj = self._objects.get(shared_object)
        if obj is None:
            raise SymbolResolutionError(
                f"shared object {shared_object!r} not found (registered: "
                f"{sorted(self._objects)})"
            )
        fn = obj.get(runfunc)
        if fn is None:
            raise SymbolResolutionError(
                f"symbol {runfunc!r} not found in shared object "
                f"{shared_object!r}"
            )
        return fn
