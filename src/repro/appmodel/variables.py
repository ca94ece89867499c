"""Program variables with byte-level storage, per Listing 1.

Each variable in an application JSON declares::

    "n_samples": {"bytes": 4, "is_ptr": false, "ptr_alloc_bytes": 0,
                  "val": [0, 1, 0, 0]}

* ``bytes`` — storage for the variable's own representation (4 for an i32,
  8 for a pointer on 64-bit systems).
* ``is_ptr`` — whether the variable is itself a pointer into the heap.
* ``ptr_alloc_bytes`` — heap allocation backing the pointer.
* ``val`` — little-endian initializer bytes (for the pointed-to region when
  ``is_ptr``, else for the variable itself).

The emulated heap is a :class:`MemoryPool` (one per application instance,
mirroring the C framework allocating each instance's variables in main
memory during initialization).  Kernels receive :class:`VariableBinding`
objects and reinterpret the raw bytes with NumPy views — the Python analog
of casting a ``void*``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ApplicationSpecError, MemoryError_

_POINTER_BYTES = 8  # pointers are 8 bytes on the 64-bit targets emulated
#: pool headroom beyond the variables' own storage and alignment padding
_POOL_SLACK_BYTES = 256


@dataclass(frozen=True)
class VariableSpec:
    """Declaration of one program variable (schema of Listing 1).

    ``dtype_hint`` is a framework extension: an optional NumPy dtype string
    recorded in the JSON (ignored by the storage model, used by kernels and
    debugging tools to view the raw bytes conveniently).
    """

    name: str
    bytes: int
    is_ptr: bool = False
    ptr_alloc_bytes: int = 0
    val: tuple[int, ...] = ()
    dtype_hint: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ApplicationSpecError("variable name must be non-empty")
        if self.bytes <= 0:
            raise ApplicationSpecError(
                f"variable {self.name!r}: bytes must be positive, got {self.bytes}"
            )
        if self.is_ptr:
            if self.bytes != _POINTER_BYTES:
                raise ApplicationSpecError(
                    f"variable {self.name!r}: pointer variables use "
                    f"{_POINTER_BYTES} bytes, got {self.bytes}"
                )
            if self.ptr_alloc_bytes <= 0:
                raise ApplicationSpecError(
                    f"variable {self.name!r}: pointer needs ptr_alloc_bytes > 0"
                )
        elif self.ptr_alloc_bytes:
            raise ApplicationSpecError(
                f"variable {self.name!r}: ptr_alloc_bytes set on non-pointer"
            )
        limit = self.ptr_alloc_bytes if self.is_ptr else self.bytes
        if len(self.val) > limit:
            raise ApplicationSpecError(
                f"variable {self.name!r}: {len(self.val)} initializer bytes "
                f"exceed storage of {limit}"
            )
        if any((b < 0 or b > 255) for b in self.val):
            raise ApplicationSpecError(
                f"variable {self.name!r}: initializer bytes must be 0..255"
            )

    @property
    def storage_bytes(self) -> int:
        """Total footprint: own representation plus heap allocation."""
        return self.bytes + self.ptr_alloc_bytes


def scalar_spec(name: str, value: int = 0, nbytes: int = 4) -> VariableSpec:
    """Spec for a little-endian integer scalar (e.g. ``n_samples``).

    >>> scalar_spec("n_samples", 256).val
    (0, 1, 0, 0)
    """
    raw = int(value).to_bytes(nbytes, "little", signed=value < 0)
    return VariableSpec(name=name, bytes=nbytes, val=tuple(raw))


def buffer_spec(
    name: str,
    alloc_bytes: int,
    init: bytes | np.ndarray | None = None,
    dtype_hint: str | None = None,
) -> VariableSpec:
    """Spec for a heap buffer variable (pointer + allocation).

    ``init`` may be raw bytes or a NumPy array whose byte image initializes
    the allocation.
    """
    val: tuple[int, ...] = ()
    if init is not None:
        raw = init.tobytes() if isinstance(init, np.ndarray) else bytes(init)
        if len(raw) > alloc_bytes:
            raise ApplicationSpecError(
                f"variable {name!r}: initializer of {len(raw)} bytes exceeds "
                f"allocation of {alloc_bytes}"
            )
        val = tuple(raw)
    return VariableSpec(
        name=name,
        bytes=_POINTER_BYTES,
        is_ptr=True,
        ptr_alloc_bytes=alloc_bytes,
        val=val,
        dtype_hint=dtype_hint,
    )


class MemoryPool:
    """Emulated main-memory heap for one application instance.

    A bump allocator over a contiguous ``bytearray``; allocations are
    aligned to 8 bytes (matching malloc alignment guarantees relevant to the
    kernels' typed views).  The pool records every allocation so accesses
    can be bounds-checked and so the DMA model knows transfer extents.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise MemoryError_(f"pool capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._storage = bytearray(capacity)
        self._arr = np.frombuffer(self._storage, dtype=np.uint8)
        self._offset = 0
        self._allocations: dict[int, int] = {}  # base -> size

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes``; returns the base offset (the 'pointer')."""
        if nbytes <= 0:
            raise MemoryError_(f"allocation size must be positive, got {nbytes}")
        base = (self._offset + 7) & ~7
        if base + nbytes > self.capacity:
            raise MemoryError_(
                f"pool exhausted: need {nbytes} at offset {base}, "
                f"capacity {self.capacity}"
            )
        self._offset = base + nbytes
        self._allocations[base] = nbytes
        return base

    def view(self, base: int, nbytes: int | None = None) -> np.ndarray:
        """A uint8 view of an allocation (bounds-checked)."""
        size = self._allocations.get(base)
        if size is None:
            raise MemoryError_(f"no allocation at offset {base}")
        if nbytes is None:
            nbytes = size
        if nbytes > size:
            raise MemoryError_(
                f"view of {nbytes} bytes exceeds allocation of {size} at {base}"
            )
        return self._arr[base : base + nbytes]

    def write(self, base: int, data: bytes) -> None:
        """Initialize an allocation's leading bytes."""
        size = self._allocations.get(base)
        if size is None:
            raise MemoryError_(f"no allocation at offset {base}")
        if len(data) > size:
            raise MemoryError_(
                f"write of {len(data)} bytes overruns allocation of {size}"
            )
        self._storage[base : base + len(data)] = data


class VariableBinding:
    """A live variable: its spec plus its storage inside a pool.

    Scalars live in a small slot; pointers additionally own a heap
    allocation.  Kernels use the typed accessors, which reinterpret raw
    bytes exactly as the C kernels' casts would.
    """

    __slots__ = ("spec", "pool", "slot_base", "heap_base")

    def __init__(self, spec: VariableSpec, pool: MemoryPool) -> None:
        self.spec = spec
        self.pool = pool
        self.slot_base = pool.allocate(spec.bytes)
        if spec.is_ptr:
            self.heap_base = pool.allocate(spec.ptr_alloc_bytes)
            # The slot stores the emulated address (offset) little-endian.
            pool.write(self.slot_base, self.heap_base.to_bytes(8, "little"))
            if spec.val:
                pool.write(self.heap_base, bytes(spec.val))
        else:
            self.heap_base = -1
            if spec.val:
                pool.write(self.slot_base, bytes(spec.val))

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def nbytes(self) -> int:
        """Size of the payload region (allocation for pointers, slot else)."""
        return self.spec.ptr_alloc_bytes if self.spec.is_ptr else self.spec.bytes

    def raw(self) -> np.ndarray:
        """uint8 view of the payload region."""
        base = self.heap_base if self.spec.is_ptr else self.slot_base
        return self.pool.view(base, self.nbytes)

    # typed accessors --------------------------------------------------------

    def as_int(self) -> int:
        """Read a non-pointer variable as a little-endian signed integer."""
        if self.spec.is_ptr:
            raise MemoryError_(f"variable {self.name!r} is a pointer, not a scalar")
        return int.from_bytes(self.raw().tobytes(), "little", signed=True)

    def set_int(self, value: int) -> None:
        """Write a non-pointer variable as a little-endian signed integer."""
        if self.spec.is_ptr:
            raise MemoryError_(f"variable {self.name!r} is a pointer, not a scalar")
        self.pool.write(
            self.slot_base, int(value).to_bytes(self.spec.bytes, "little", signed=True)
        )

    def as_array(self, dtype: str | np.dtype, count: int | None = None) -> np.ndarray:
        """Typed view of a pointer variable's allocation.

        The returned array aliases pool storage: kernel writes land in the
        emulated main memory, visible to successor tasks — the shared-memory
        communication model of the paper.
        """
        if not self.spec.is_ptr:
            raise MemoryError_(f"variable {self.name!r} is not a pointer")
        dt = np.dtype(dtype)
        avail = self.spec.ptr_alloc_bytes // dt.itemsize
        if count is None:
            count = avail
        if count > avail:
            raise MemoryError_(
                f"variable {self.name!r}: {count} x {dt} exceeds allocation "
                f"of {self.spec.ptr_alloc_bytes} bytes"
            )
        return self.raw()[: count * dt.itemsize].view(dt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = f"ptr[{self.spec.ptr_alloc_bytes}]" if self.spec.is_ptr else "scalar"
        return f"VariableBinding({self.name!r}, {kind})"


class VariableTable:
    """All live variables of one application instance."""

    def __init__(self, specs: dict[str, VariableSpec], pool: MemoryPool) -> None:
        self.pool = pool
        self._bindings: dict[str, VariableBinding] = {
            name: VariableBinding(spec, pool) for name, spec in specs.items()
        }

    def __getitem__(self, name: str) -> VariableBinding:
        try:
            return self._bindings[name]
        except KeyError:
            raise ApplicationSpecError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __iter__(self):
        return iter(self._bindings.values())

    def __len__(self) -> int:
        return len(self._bindings)

    def names(self) -> list[str]:
        return list(self._bindings)

    @staticmethod
    def required_pool_bytes(specs: dict[str, VariableSpec]) -> int:
        """Pool capacity needed for a spec set (8-byte alignment padding
        bounded by 7 bytes per allocation, plus fixed headroom)."""
        total = sum(s.storage_bytes + 14 for s in specs.values())
        return total + _POOL_SLACK_BYTES
