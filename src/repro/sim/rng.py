"""Deterministic random-number plumbing.

Every stochastic component (traffic generator, ECN marker, ECMP tie-break,
jitter) draws from its *own* named stream derived from one experiment seed.
Adding a new consumer therefore never perturbs existing streams, which keeps
regression baselines stable — the reproducibility idiom the HPC guides call
out ("make it work reliably" before optimizing).
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


class SeedSequenceFactory:
    """Derives independent, stable child seeds from ``(root_seed, name)``.

    ``stream("traffic")`` always returns the same :class:`random.Random` for
    the same root seed, regardless of creation order.
    """

    def __init__(self, root_seed: int) -> None:
        if not (0 <= root_seed < 2**63):
            raise ValueError("root seed must be a non-negative 63-bit integer")
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def child_seed(self, name: str) -> int:
        """A stable 64-bit seed for the named stream."""
        digest = zlib.crc32(name.encode("utf-8"))
        return (self.root_seed * 0x9E3779B97F4A7C15 + digest) % (2**63)

    def stream(self, name: str) -> random.Random:
        """The stdlib RNG for ``name`` (created on first use, then cached)."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(self.child_seed(name))
            self._streams[name] = rng
        return rng


def stable_hash64(*parts: int) -> int:
    """A deterministic 64-bit mix of integers (Python's ``hash`` is salted,
    so it must never be used for ECMP path selection)."""
    h = 0xCBF29CE484222325
    for p in parts:
        p &= 0xFFFFFFFFFFFFFFFF
        while p:
            h ^= p & 0xFF
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            p >>= 8
        # Separator byte so (1, 23) and (12, 3) differ.
        h ^= 0xFE
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    # Avalanche finalizer (splitmix64-style): plain FNV's low bit is a
    # parity function of the input bytes — order-invariant — which would
    # make "hash % 2" ECMP pick the same port for (a,b) and (b,a) and mask
    # genuine path asymmetry.  Mixing makes every output bit order-aware.
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 31
    return h
