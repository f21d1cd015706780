"""Set-associative cache model with LRU replacement.

Tag-array only (data values live in the architectural memory image); the
model answers "hit or miss" and maintains recency state.  Write policy is
write-back/write-allocate, with dirty bits tracked so writeback traffic
can be counted for the energy model.
"""

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 3

    @property
    def num_sets(self):
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ConfigError(
                "%s: sets must be a positive power of two (got %d)"
                % (self.name, sets)
            )
        return sets


class Cache:
    """One level of cache: LRU, write-back, write-allocate.

    State is flat.  A line is named by its block number (``addr //
    line_bytes``), which identifies it uniquely and so doubles as its tag.
    Each set is a list of the resident blocks in MRU-first order, and one
    set of blocks records which resident lines are dirty.
    """

    def __init__(self, config):
        self.config = config
        self.num_sets = config.num_sets
        self.line_bytes = config.line_bytes
        self.assoc = config.assoc
        self._set_mask = self.num_sets - 1
        self._sets = [[] for _ in range(self.num_sets)]
        self._dirty = set()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def lookup(self, addr, is_write=False, update=True):
        """Probe for *addr*. Returns True on hit (and updates LRU/dirty)."""
        block = addr // self.line_bytes
        lines = self._sets[block & self._set_mask]
        if not lines or lines[0] != block:  # not the MRU line
            if block not in lines:
                if update:
                    self.misses += 1
                return False
            if update:
                lines.remove(block)
                lines.insert(0, block)
        if update:
            if is_write:
                self._dirty.add(block)
            self.hits += 1
        return True

    def fill(self, addr, is_write=False):
        """Install the line containing *addr* (on miss refill).

        A line already present (e.g. a racing prefetch) keeps its LRU
        position and only picks up the dirty bit.
        """
        block = addr // self.line_bytes
        lines = self._sets[block & self._set_mask]
        if is_write:
            self._dirty.add(block)
        if block in lines:
            return
        lines.insert(0, block)
        if len(lines) > self.assoc:
            victim = lines.pop()
            if victim in self._dirty:
                self._dirty.remove(victim)
                self.writebacks += 1

    def contains(self, addr):
        """Non-updating probe (used by tests and warmup checks)."""
        return self.lookup(addr, update=False)

    def reset_stats(self):
        self.hits = self.misses = self.writebacks = 0

    def register_metrics(self, registry, prefix):
        """Register live hit/miss counters as ``<prefix>.*`` instruments."""
        registry.counter(prefix + ".hits", fn=lambda: self.hits)
        registry.counter(prefix + ".misses", fn=lambda: self.misses)
        registry.counter(prefix + ".writebacks", fn=lambda: self.writebacks)
        registry.gauge(
            prefix + ".miss_rate", fn=lambda: self.stats()["miss_rate"]
        )
        return registry

    def stats(self):
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "miss_rate": self.misses / total if total else 0.0,
        }
