"""Workload abstractions: access streams the runners can drive.

A workload is an unbounded, reproducible stream of memory accesses plus
an instruction-cost model.  The paper observes that roughly one in three
instructions is a load or store (Section 3.1); our patterns generate
accesses at cache-line granularity (one access per distinct *touch*), so
``instructions_per_access`` folds in both the 3:1 instruction mix and
the within-line spatial locality real code has (a 128-byte line holds 16
words, each typically touched by its own instruction).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "MemoryAccess",
    "Workload",
    "AccessPattern",
    "AccessBatch",
    "BatchCursor",
    "draw_uniform",
]

#: One generated slab: line-aligned virtual addresses plus store flags.
AccessBatch = Tuple[np.ndarray, np.ndarray]


def draw_uniform(rng: random.Random, count: int) -> np.ndarray:
    """``count`` consecutive ``rng.random()`` draws as a float64 array.

    Bit-identical to calling ``rng.random()`` ``count`` times, and
    ``rng`` is advanced exactly as far, so scalar draws may continue
    seamlessly.  The draws come from the native engine's CPython-exact
    MT19937 (:func:`repro.sim.native.mt_fill`) when it is available and
    from ``rng.random()`` itself otherwise.
    """
    if count <= 0:
        return np.empty(0, dtype=np.float64)
    from repro.sim.native import mt_fill, native_available

    if native_available():
        out, state = mt_fill(rng.getstate(), count)
        rng.setstate(state)
        return out
    return np.fromiter((rng.random() for _ in range(count)), np.float64, count)


class BatchCursor:
    """Pull arbitrary-length array chunks from a batch iterator.

    The glue for composite patterns: sub-patterns yield fixed-size
    slabs, but the composite consumes a data-dependent number of
    accesses per output batch.
    """

    __slots__ = ("_batches", "_vaddrs", "_stores", "_cursor")

    def __init__(self, batches: Iterator[AccessBatch]):
        self._batches = batches
        self._vaddrs = np.empty(0, dtype=np.int64)
        self._stores = np.empty(0, dtype=np.bool_)
        self._cursor = 0

    def take(self, count: int) -> AccessBatch:
        """The next ``count`` accesses as ``(vaddrs, stores)`` arrays."""
        start = self._cursor
        end = start + count
        if end <= self._vaddrs.size:
            self._cursor = end
            return self._vaddrs[start:end], self._stores[start:end]
        vparts = [self._vaddrs[start:]]
        sparts = [self._stores[start:]]
        got = vparts[0].size
        while got < count:
            vaddrs, stores = next(self._batches)
            need = count - got
            if vaddrs.size > need:
                self._vaddrs, self._stores = vaddrs, stores
                self._cursor = need
                vparts.append(vaddrs[:need])
                sparts.append(stores[:need])
                return np.concatenate(vparts), np.concatenate(sparts)
            vparts.append(vaddrs)
            sparts.append(stores)
            got += vaddrs.size
        self._vaddrs = np.empty(0, dtype=np.int64)
        self._stores = np.empty(0, dtype=np.bool_)
        self._cursor = 0
        if len(vparts) == 1:
            return vparts[0], sparts[0]
        return np.concatenate(vparts), np.concatenate(sparts)


@dataclass(frozen=True)
class MemoryAccess:
    """One memory operation: a virtual byte address plus load/store kind."""

    vaddr: int
    is_store: bool = False


class AccessPattern(abc.ABC):
    """A reusable access-stream primitive (see :mod:`repro.workloads.patterns`).

    Patterns are stateless descriptions; :meth:`generate` returns a fresh
    infinite iterator each call, driven by the supplied RNG so streams
    are reproducible.
    """

    @abc.abstractmethod
    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        """Yield accesses forever."""

    def generate_batch(
        self, rng: random.Random, batch_size: int = 8192
    ) -> Iterator[AccessBatch]:
        """Yield ``(vaddrs, is_store)`` array slabs forever.

        The concatenation of the yielded slabs is exactly the stream
        :meth:`generate` produces from an identically seeded RNG -- same
        addresses, same store flags, same RNG draw order -- so the two
        forms are interchangeable mid-stream.  The default implementation
        buffers the scalar generator; hot patterns override it with
        native vectorized generation.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        stream = self.generate(rng)
        while True:
            vaddrs = np.empty(batch_size, dtype=np.int64)
            stores = np.empty(batch_size, dtype=np.bool_)
            for index in range(batch_size):
                access = next(stream)
                vaddrs[index] = access.vaddr
                stores[index] = access.is_store
            yield vaddrs, stores

    @abc.abstractmethod
    def footprint_bytes(self) -> int:
        """Total bytes the pattern can touch (its working-set bound)."""


class Workload:
    """A named application model: an access pattern plus cost parameters.

    Args:
        name: the application this models (e.g. ``mcf``).
        pattern: the access-stream generator.
        instructions_per_access: instructions retired per memory access
            emitted (folds in instruction mix and within-line locality).
        store_fraction: fraction of accesses that are stores (the pattern
            may also mark stores itself; this is a fallback used by
            patterns that do not).
        seed: base RNG seed; every stream from this workload is
            reproducible given the seed.
        description: one line on what behaviour class is being modeled.
    """

    def __init__(
        self,
        name: str,
        pattern: AccessPattern,
        instructions_per_access: int = 48,
        store_fraction: float = 0.3,
        seed: int = 7,
        description: str = "",
    ):
        if instructions_per_access < 1:
            raise ValueError("instructions_per_access must be >= 1")
        if not 0.0 <= store_fraction <= 1.0:
            raise ValueError("store_fraction must be in [0, 1]")
        self.name = name
        self.pattern = pattern
        self.instructions_per_access = instructions_per_access
        self.store_fraction = store_fraction
        self.seed = seed
        self.description = description

    def accesses(self, seed_offset: int = 0) -> Iterator[MemoryAccess]:
        """A fresh, reproducible infinite access stream."""
        rng = random.Random(f"{self.seed}/{seed_offset}")
        store_rng = random.Random(f"{self.seed}/{seed_offset}/stores")
        for access in self.pattern.generate(rng):
            if not access.is_store and store_rng.random() < self.store_fraction:
                yield MemoryAccess(access.vaddr, is_store=True)
            else:
                yield access

    def access_batches(
        self, seed_offset: int = 0, batch_size: int = 8192
    ) -> Iterator[AccessBatch]:
        """Array-slab form of :meth:`accesses` (same stream, same draws).

        Store promotion consumes ``store_rng`` draws in the exact scalar
        order: one draw per access the pattern did not already mark as a
        store, in stream order.
        """
        rng = random.Random(f"{self.seed}/{seed_offset}")
        store_rng = random.Random(f"{self.seed}/{seed_offset}/stores")
        fraction = self.store_fraction
        for vaddrs, stores in self.pattern.generate_batch(rng, batch_size):
            load_positions = np.flatnonzero(~stores)
            count = load_positions.size
            if count:
                draws = draw_uniform(store_rng, count)
                promoted = draws < fraction
                if promoted.any():
                    stores = np.array(stores, dtype=np.bool_, copy=True)
                    stores[load_positions[promoted]] = True
            yield vaddrs, stores

    def footprint_bytes(self) -> int:
        return self.pattern.footprint_bytes()

    def __repr__(self) -> str:
        return (
            f"Workload({self.name!r}, ipa={self.instructions_per_access}, "
            f"footprint={self.footprint_bytes()}B)"
        )
