"""Named, reproducible random-number streams.

Stochastic components (one per host load source, per workload generator,
...) must be statistically independent yet fully reproducible, and -- the
property the paper's methodology hinges on -- *identical across competing
strategies* so that back-to-back comparisons see the same environment.

:class:`RngRegistry` derives an independent :class:`numpy.random.Generator`
for each string/int key path from a single root seed, using SHA-256 of the
key path mixed into a :class:`numpy.random.SeedSequence`.  The same
``(root_seed, key path)`` always produces the same stream, regardless of
creation order -- and regardless of whether it was built alone
(:meth:`RngRegistry.stream`) or in a batch (:meth:`RngRegistry.streams`).

:mod:`numpy.random` is imported on the first stream, not with this
module: the sweep fabric's coordinator and the experiment executor
import the registry but draw nothing themselves.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def derive_seed(root_seed: int, *key: "str | int") -> int:
    """Derive a 64-bit child seed from a root seed and a key path.

    The derivation is order-independent across *different* key paths (each
    path hashes independently) and stable across Python processes (no use
    of ``hash()``).
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode("utf-8"))
    for part in key:
        hasher.update(b"\x00")
        hasher.update(str(part).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "little")


class RngRegistry:
    """Factory of independent, named random streams under one root seed.

    Examples
    --------
    >>> reg = RngRegistry(42)
    >>> a = reg.stream("load", "host", 3)
    >>> b = RngRegistry(42).stream("load", "host", 3)
    >>> float(a.random()) == float(b.random())
    True
    >>> (c,) = RngRegistry(42).streams([("load", "host", 3)])
    >>> float(c.random()) == float(reg.stream("load", "host", 3).random())
    True
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)

    def seed_for(self, *key: "str | int") -> int:
        """The derived 64-bit seed for ``key`` (without creating a stream)."""
        return derive_seed(self.root_seed, *key)

    def stream(self, *key: "str | int") -> "np.random.Generator":
        """A fresh Generator for ``key``; same key -> same stream.

        Constructs ``Generator(PCG64(seed))`` directly -- ``PCG64`` wraps
        an int seed in a ``SeedSequence`` itself, so this is the exact
        stream ``default_rng`` would produce at less than half the
        construction cost.
        """
        from numpy.random import PCG64, Generator

        return Generator(PCG64(self.seed_for(*key)))

    def streams(self, keys: "Iterable[tuple[str | int, ...]]"
                ) -> "list[np.random.Generator]":
        """``[self.stream(*key) for key in keys]``, seeded in one batch.

        Bit-identical to one :meth:`stream` per key (same state, draws
        and ``Generator.spawn`` children), at a fraction of the cost:
        the ``SeedSequence`` hashing ``PCG64`` would repeat per stream
        runs once over every key's seed as array arithmetic (see
        :mod:`repro.simkernel._seedseq`).  Platform builds create one
        stream per host and fault plans one more per host, so stream
        construction sits on the sweep hot path.
        """
        from repro.simkernel._seedseq import prepared_streams

        return prepared_streams([self.seed_for(*key) for key in keys])

    def spawn(self, *key: "str | int") -> "RngRegistry":
        """A sub-registry rooted at ``key`` (for nested components)."""
        return RngRegistry(self.seed_for(*key))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(root_seed={self.root_seed})"
