"""Set-associative LRU cache simulator.

Used to reproduce Figure 12: the L1/L2 hit rates of the SparseTIR SpMM kernel
as the number of column partitions of the ``hyb`` format grows.  The
simulator operates on coarse-grained address traces (one entry per global
load, at cache-line granularity) generated from the kernel's access pattern
on the concrete sparse structure; sampling keeps trace sizes tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple



@dataclass
class AccessStats:
    """Result of one cache simulation."""

    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class LRUCache:
    """A set-associative cache with least-recently-used replacement."""

    def __init__(self, capacity_bytes: int, line_bytes: int = 64, associativity: int = 8):
        if capacity_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("cache capacity, line size and associativity must be positive")
        num_lines = max(1, capacity_bytes // line_bytes)
        self.line_bytes = line_bytes
        self.associativity = min(associativity, num_lines)
        self.num_sets = max(1, num_lines // self.associativity)
        # Each set maps line tag -> logical timestamp of last use.
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._clock = 0
        self._hits = 0
        self._accesses = 0

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        line = address // self.line_bytes
        index = line % self.num_sets
        cache_set = self._sets[index]
        self._clock += 1
        self._accesses += 1
        if line in cache_set:
            cache_set[line] = self._clock
            self._hits += 1
            return True
        if len(cache_set) >= self.associativity:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[line] = self._clock
        return False

    def stats(self) -> AccessStats:
        return AccessStats(self._accesses, self._hits)

    def reset(self) -> None:
        self._sets = [dict() for _ in range(self.num_sets)]
        self._clock = 0
        self._hits = 0
        self._accesses = 0


class CacheHierarchy:
    """A two-level (per-SM L1 + shared L2) cache hierarchy.

    The simulator routes every address through one L1 (representing the SM
    the accessing thread block runs on — the trace generator interleaves
    blocks round-robin, which is what the hardware scheduler does) and sends
    L1 misses to the shared L2.
    """

    def __init__(
        self,
        l1_bytes: int,
        l2_bytes: int,
        line_bytes: int = 64,
        l1_associativity: int = 4,
        l2_associativity: int = 16,
        num_l1: int = 1,
    ):
        self.l1 = [LRUCache(l1_bytes, line_bytes, l1_associativity) for _ in range(max(1, num_l1))]
        self.l2 = LRUCache(l2_bytes, line_bytes, l2_associativity)
        self.line_bytes = line_bytes

    def access(self, address: int, l1_slot: int = 0) -> Tuple[bool, Optional[bool]]:
        """Access an address; returns (l1_hit, l2_hit or None if not reached)."""
        l1 = self.l1[l1_slot % len(self.l1)]
        if l1.access(address):
            return True, None
        return False, self.l2.access(address)

    def run_trace(self, addresses: Iterable[int], slots: Optional[Iterable[int]] = None) -> Dict[str, AccessStats]:
        if slots is None:
            for address in addresses:
                self.access(int(address))
        else:
            for address, slot in zip(addresses, slots):
                self.access(int(address), int(slot))
        return {"l1": self.l1_stats(), "l2": self.l2.stats()}

    def l1_stats(self) -> AccessStats:
        accesses = sum(c.stats().accesses for c in self.l1)
        hits = sum(c.stats().hits for c in self.l1)
        return AccessStats(accesses, hits)


def reuse_distance_hit_rate(unique_bytes: float, touched_bytes: float, cache_bytes: float) -> float:
    """Analytic hit-rate estimate used when full trace simulation is too costly.

    If the working set (``unique_bytes``) fits in the cache, every re-access
    hits, so the hit rate approaches ``1 - unique/touched``.  When the working
    set exceeds the cache, only the cached fraction of re-accesses hit.
    """
    if touched_bytes <= 0:
        return 0.0
    reuse_fraction = max(0.0, 1.0 - unique_bytes / touched_bytes)
    if unique_bytes <= cache_bytes:
        return reuse_fraction
    return reuse_fraction * (cache_bytes / unique_bytes)
