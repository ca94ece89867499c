"""Deterministic random-number management.

Every stochastic component (workload generation, execution-time jitter,
RANDOM scheduler) draws from its own :class:`numpy.random.Generator`,
derived from a single experiment seed via named sub-streams.  This makes
experiment sweeps reproducible bit-for-bit while keeping streams independent
— changing how many draws one component makes never perturbs another.
"""

from __future__ import annotations

import zlib

import numpy as np

_DEFAULT_SEED = 0xD550C  # "DSSoC"


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a stable 63-bit child seed from a root seed and a name path.

    Uses CRC32 over the textual path so the mapping is stable across runs,
    platforms, and Python hash randomization.
    """
    path = "/".join(str(n) for n in names)
    digest = zlib.crc32(path.encode("utf-8"))
    return (int(root_seed) * 0x9E3779B1 + digest) & 0x7FFF_FFFF_FFFF_FFFF


class SeedSequenceFactory:
    """Hands out independent, named RNG streams from one root seed.

    >>> factory = SeedSequenceFactory(42)
    >>> jitter_rng = factory.rng("jitter", "pe0")
    >>> arrivals_rng = factory.rng("arrivals")

    Asking for the same name path twice returns a generator in the same
    initial state, so components may re-derive their stream instead of
    plumbing generator objects around.
    """

    def __init__(self, root_seed: int | None = None) -> None:
        self.root_seed = _DEFAULT_SEED if root_seed is None else int(root_seed)

    def seed(self, *names: object) -> int:
        """The child seed for a name path (useful for logging/replay)."""
        return derive_seed(self.root_seed, *names)

    def rng(self, *names: object) -> np.random.Generator:
        """A fresh generator for the given name path."""
        return np.random.default_rng(self.seed(*names))

    def spawn(self, *names: object) -> "SeedSequenceFactory":
        """A child factory rooted at a name path (for nested components)."""
        return SeedSequenceFactory(self.seed(*names))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeedSequenceFactory(root_seed={self.root_seed:#x})"
