"""Three-level cache hierarchy with a DRAM backstop.

Latency model: an access that hits at level k pays the sum of lookup
latencies down to k (L1 probe, then L2, ...).  Misses refill every level
on the way back (inclusive fill).  The hierarchy reports *which* level
served each access — the tag that the core propagates through dataflow to
attribute each branch misprediction to the furthest memory level feeding
it (Figures 2a and 25b of the paper).
"""

import enum
from dataclasses import dataclass, field

from repro.memsys.cache import Cache, CacheConfig
from repro.memsys.prefetch import PREFETCHER_FACTORIES


class MemLevel(enum.IntEnum):
    """Furthest level that served an access (ordering matters: higher = further)."""

    NONE = 0  # not memory-dependent ("NoData" in Fig 2a)
    L1 = 1
    L2 = 2
    L3 = 3
    MEM = 4


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access.

    Immutable: the hierarchy hands out one preallocated result per
    (first level, level served) pair instead of a fresh one per access.
    """

    latency: int
    level: MemLevel


@dataclass
class MemoryHierarchyConfig:
    """Cache geometry matching the paper's Sandy-Bridge-like baseline."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * 1024, 4, 64, hit_latency=1)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 8, 64, hit_latency=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * 1024, 8, 64, hit_latency=12)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 8 * 1024 * 1024, 16, 64, hit_latency=30)
    )
    dram_latency: int = 200
    mshr_capacity: int = 32
    prefetcher: str = "none"


class MemoryHierarchy:
    """L1I/L1D -> L2 -> L3 -> DRAM with optional L1D prefetcher."""

    def __init__(self, config=None):
        self.config = config or MemoryHierarchyConfig()
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.l3 = Cache(self.config.l3)
        factory = PREFETCHER_FACTORIES[self.config.prefetcher]
        self.prefetcher = factory(line_bytes=self.config.l1d.line_bytes)
        self.data_accesses = 0
        self.inst_accesses = 0
        self.prefetch_fills = 0
        self._inst_results = self._results(self.config.l1i)
        self._data_results = self._results(self.config.l1d)

    def _results(self, first_level):
        """The results of an access that starts at *first_level*, indexed
        by ``level - 1``: each level adds its lookup latency."""
        config = self.config
        latency = first_level.hit_latency
        results = [AccessResult(latency, MemLevel.L1)]
        for extra, level in ((config.l2.hit_latency, MemLevel.L2),
                             (config.l3.hit_latency, MemLevel.L3),
                             (config.dram_latency, MemLevel.MEM)):
            latency += extra
            results.append(AccessResult(latency, level))
        return tuple(results)

    def _refill(self, first_level_cache, addr, is_write):
        """Probe L2, L3 and DRAM after a first-level miss; fill on the way
        back.  Returns the served level's index into the result table."""
        if self.l2.lookup(addr):
            first_level_cache.fill(addr, is_write)
            return 1
        if self.l3.lookup(addr):
            self.l2.fill(addr)
            first_level_cache.fill(addr, is_write)
            return 2
        self.l3.fill(addr)
        self.l2.fill(addr)
        first_level_cache.fill(addr, is_write)
        return 3

    def access_data(self, addr, is_write=False, pc=None):
        """A demand data access. Returns :class:`AccessResult`."""
        self.data_accesses += 1
        l1d = self.l1d
        if l1d.lookup(addr, is_write):
            result = self._data_results[0]
        else:
            result = self._data_results[self._refill(l1d, addr, is_write)]
        if self.prefetcher is not None and not is_write:
            missed = result.level != MemLevel.L1
            for pf_addr in self.prefetcher.observe(pc or 0, addr, missed):
                self.prefetch_fill(pf_addr)
        return result

    def probe_data_hit(self, addr):
        """Non-mutating L1D probe (used for MSHR-free fast-path checks)."""
        return self.l1d.contains(addr)

    def prefetch_fill(self, addr):
        """Install *addr*'s line at every level (hardware prefetch fill).

        A fill of a resident line leaves it untouched, so no level is
        probed first.
        """
        self.prefetch_fills += 1
        self.l3.fill(addr)
        self.l2.fill(addr)
        self.l1d.fill(addr)

    def access_inst(self, addr):
        """An instruction fetch access. Returns :class:`AccessResult`."""
        self.inst_accesses += 1
        l1i = self.l1i
        if l1i.lookup(addr):
            return self._inst_results[0]
        return self._inst_results[self._refill(l1i, addr, False)]

    def miss_latency(self, level):
        """Total latency an access served at *level* pays (for MSHR fills)."""
        latency = self.config.l1d.hit_latency
        if level >= MemLevel.L2:
            latency += self.config.l2.hit_latency
        if level >= MemLevel.L3:
            latency += self.config.l3.hit_latency
        if level >= MemLevel.MEM:
            latency += self.config.dram_latency
        return latency

    def register_metrics(self, registry, prefix="memsys"):
        """Register every level's counters as ``memsys.<level>.*``."""
        for label in ("l1i", "l1d", "l2", "l3"):
            getattr(self, label).register_metrics(
                registry, "%s.%s" % (prefix, label)
            )
        registry.counter(prefix + ".data_accesses", fn=lambda: self.data_accesses)
        registry.counter(prefix + ".inst_accesses", fn=lambda: self.inst_accesses)
        registry.counter(prefix + ".prefetch_fills", fn=lambda: self.prefetch_fills)
        return registry

    def stats(self):
        return {
            "l1i": self.l1i.stats(),
            "l1d": self.l1d.stats(),
            "l2": self.l2.stats(),
            "l3": self.l3.stats(),
            "data_accesses": self.data_accesses,
            "inst_accesses": self.inst_accesses,
            "prefetch_fills": self.prefetch_fills,
        }
