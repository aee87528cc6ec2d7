"""Set-associative LRU caches and a two-level private hierarchy.

The Appendix-A configurations specify, per core: L1D and L2 geometry
(associativity, block size, number of sets) and access latencies in cycles,
plus a memory access latency in cycles.  The hierarchy here reproduces that
structure.  Misses are modelled without bandwidth contention (latencies
overlap freely subject to the window), which matches the level of detail the
paper's analysis depends on.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency of one cache level."""

    assoc: int
    block: int       # bytes per block (power of two)
    sets: int        # number of sets (power of two)
    latency: int     # access latency in core cycles

    def __post_init__(self) -> None:
        if self.assoc < 1 or self.sets < 1 or self.latency < 1:
            raise ValueError("assoc, sets and latency must be >= 1")
        if self.block < 1 or (self.block & (self.block - 1)):
            raise ValueError("block size must be a positive power of two")
        if self.sets & (self.sets - 1):
            raise ValueError("set count must be a power of two")

    @property
    def size_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.assoc * self.block * self.sets


class Cache:
    """One set-associative cache level with true-LRU replacement.

    Tag state only — this is a timing model, no data is stored.  Each set is
    a list ordered most-recently-used first; associativities in the palette
    are small enough that list operations are the fast path.  Sets are
    allocated on their first allocating miss: a short trace touches a small
    fraction of a 32K-set L1, and an untouched set behaves exactly like an
    empty one.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._block_bits = config.block.bit_length() - 1
        self._set_mask = config.sets - 1
        self._tag_shift = self._set_mask.bit_length()
        self._assoc = config.assoc
        #: set index -> tags, most recently used first (allocated lazily)
        self._sets: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, addr: int, allocate: bool = True) -> bool:
        """Access the cache; returns True on hit.  Misses allocate by
        default (both reads and writes allocate, as in sim-mase)."""
        block_addr = addr >> self._block_bits
        index = block_addr & self._set_mask
        tag = block_addr >> self._tag_shift
        entries = self._sets.get(index)
        if entries is None:
            self.misses += 1
            if allocate:
                self._sets[index] = [tag]
            return False
        if tag in entries:
            self.hits += 1
            if entries[0] != tag:
                entries.remove(tag)
                entries.insert(0, tag)
            return True
        self.misses += 1
        if allocate:
            entries.insert(0, tag)
            if len(entries) > self._assoc:
                entries.pop()
        return False

    def contains(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no statistics)."""
        block_addr = addr >> self._block_bits
        entries = self._sets.get(block_addr & self._set_mask)
        return entries is not None and (block_addr >> self._tag_shift) in entries

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (contents are kept)."""
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """Private L1D + L2 backed by a fixed-latency memory.

    ``access`` returns the load-to-use latency in cycles for the requesting
    core.  Stores update cache state at commit (write-allocate) but their
    latency is hidden behind the store buffer, matching the model described
    in DESIGN.md.
    """

    def __init__(
        self,
        l1: CacheConfig,
        l2: CacheConfig,
        mem_latency: int,
        shared_cache: Optional["Cache"] = None,
        shared_latency: int = 0,
    ) -> None:
        if mem_latency < 1:
            raise ValueError("memory latency must be >= 1 cycle")
        if shared_cache is not None and shared_latency < 1:
            raise ValueError("shared_latency must be >= 1 when a shared cache is attached")
        self.l1 = Cache(l1)
        self.l2 = Cache(l2)
        self.mem_latency = mem_latency
        #: optional shared level beyond the private L2 (Section 4.2's
        #: "shared cache level"); one Cache object may be shared by the
        #: hierarchies of several cores, with a per-core cycle latency
        self.shared_cache = shared_cache
        self.shared_latency = shared_latency

    def access(self, addr: int) -> int:
        """Load access: returns total latency in cycles."""
        if self.l1.lookup(addr):
            return self.l1.config.latency
        if self.l2.lookup(addr):
            return self.l1.config.latency + self.l2.config.latency
        private = self.l1.config.latency + self.l2.config.latency
        if self.shared_cache is not None:
            if self.shared_cache.lookup(addr):
                return private + self.shared_latency
            return private + self.shared_latency + self.mem_latency
        return private + self.mem_latency

    def write(self, addr: int) -> None:
        """Store performed at commit: updates tag state, latency hidden."""
        if not self.l1.lookup(addr):
            self.l2.lookup(addr)

    def reset_stats(self) -> None:
        """Zero both private levels' counters."""
        self.l1.reset_stats()
        self.l2.reset_stats()
