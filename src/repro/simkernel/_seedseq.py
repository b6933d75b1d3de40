"""Batch construction of ``Generator(PCG64(seed))`` streams.

``PCG64(seed)`` with an int seed wraps it in a :class:`numpy.random.
SeedSequence` and asks it for ``generate_state(4, np.uint64)``; that
hashing is most of the ~20 us a stream costs to build.  For an integer
seed below ``2**64`` and an empty spawn key the sequence's pool and its
output words are a fixed composition of 32-bit multiply/xor-shift steps
whose constants never depend on the seed, so :func:`seed_states` runs
them over every seed of a batch at once as uint32 array arithmetic.

Each stream is then built around a :class:`PreparedSeedSequence`: a
seed sequence that hands ``PCG64`` its precomputed words and delegates
anything else -- ``Generator.spawn`` above all -- to a real
``SeedSequence(seed)``, made on first use.  The streams are therefore
bit-identical to ``Generator(PCG64(seed))``: the same state, the same
draws, the same spawned children.

This module imports :mod:`numpy.random`, so :mod:`repro.simkernel.rng`
imports it only inside :meth:`~repro.simkernel.rng.RngRegistry.streams`.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The ``n`` successive values a hash constant steps through."""
    out = []
    const = init
    for _ in range(n):
        out.append(const)
        const = (const * mult) & _MASK32
    return np.array(out, dtype=np.uint32)


# ``hashmix`` xors its value with the current constant, then multiplies
# it by the constant's next value: call ``k`` uses ``(C[k], C[k + 1])``.
_A = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
_SHIFT = np.uint32(16)
#: Pool rows behind generate_state's 8 output words.
_CYCLE = [i % _POOL_SIZE for i in range(2 * _POOL_SIZE)]


def _hashmix(value: np.ndarray, first: int, count: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` calls ``first .. first + count - 1``,
    call ``first + r`` on row ``r`` of ``value`` (broadcast if 1-D)."""
    xor = _A[first:first + count, None]
    mul = _A[first + 1:first + count + 1, None]
    value = (value ^ xor) * mul
    return value ^ (value >> _SHIFT)


def seed_states(seeds: "list[int]") -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every ``s``.

    Returns a ``(len(seeds), 4)`` uint64 array whose row ``k`` equals
    numpy's words for ``seeds[k]``.  Every seed must lie in
    ``[0, 2**64)``: its entropy is then its low and high 32-bit words
    (a seed below ``2**32`` has one word, and the pool pads the missing
    high word with the zero it has anyway).  The pool is a
    ``(4, len(seeds))`` array, so each step below is one array
    operation over the whole batch.
    """
    wide = np.array(seeds, dtype=np.uint64)
    entropy = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    entropy[0] = wide & np.uint64(_MASK32)
    entropy[1] = wide >> np.uint64(32)
    # SeedSequence.mix_entropy: hash every entropy word into the pool
    # (calls 0-3), then mix each source word into the three others
    # (three calls per source).  A source row is not changed while it
    # mixes, so its three calls run as one.
    pool = _hashmix(entropy, 0, _POOL_SIZE)
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(pool[src], call, len(dst))
        call += len(dst)
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    # SeedSequence.generate_state: 8 uint32 words cycling over the pool,
    # read back as 4 little-endian uint64 words.
    words = (pool[_CYCLE] ^ _B[:-1, None]) * _B[1:, None]
    words ^= words >> _SHIFT
    return np.ascontiguousarray(words.T, dtype="<u4").view(
        "<u8").astype(np.uint64)


class PreparedSeedSequence(ISpawnableSeedSequence):
    """``SeedSequence(seed)`` whose ``PCG64`` state words are known.

    ``generate_state(4, np.uint64)`` returns the prepared words; every
    other request, and :meth:`spawn`, goes to a real ``SeedSequence``
    built on first use, so spawn counters advance exactly as numpy's do.
    """

    __slots__ = ("seed", "_state", "_real")

    def __init__(self, seed: int, state: np.ndarray) -> None:
        self.seed = seed
        self._state = state
        self._real: "SeedSequence | None" = None

    def _sequence(self) -> SeedSequence:
        if self._real is None:
            self._real = SeedSequence(self.seed)
        return self._real

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self._state
        return self._sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._sequence().spawn(n_children)


def prepared_streams(seeds: "list[int]") -> "list[Generator]":
    """``[Generator(PCG64(s)) for s in seeds]``, seeded in one batch."""
    states = seed_states(seeds)
    return [Generator(PCG64(PreparedSeedSequence(seed, state)))
            for seed, state in zip(seeds, states)]
