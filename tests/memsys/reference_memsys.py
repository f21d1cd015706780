"""Object-model memory system: the reference for the flat kernels.

The same cache, hierarchy walk, MSHR file and BTB with per-set lists of
``[tag, dirty]`` or ``[tag, target]`` entries in MRU order, a fresh
result per access, and an MSHR file that scans every pending entry each
cycle.  ``test_flat_memsys`` drives them and :mod:`repro.memsys` with the
same seeded streams.  Test-only; nothing in ``src/`` imports it.
"""

from repro.memsys.hierarchy import MemLevel


class ReferenceCache:
    """One level of cache: LRU, write-back, write-allocate."""

    def __init__(self, config):
        self.config = config
        self.num_sets = config.num_sets
        self.line_bytes = config.line_bytes
        # Per set: list of [tag, dirty] in MRU-first order.
        self._sets = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, addr):
        block = addr // self.line_bytes
        return block % self.num_sets, block // self.num_sets

    def lookup(self, addr, is_write=False, update=True):
        index, tag = self._locate(addr)
        lines = self._sets[index]
        for position, line in enumerate(lines):
            if line[0] == tag:
                if update:
                    if position:
                        lines.insert(0, lines.pop(position))
                    if is_write:
                        line[1] = True
                    self.hits += 1
                return True
        if update:
            self.misses += 1
        return False

    def fill(self, addr, is_write=False):
        index, tag = self._locate(addr)
        lines = self._sets[index]
        for line in lines:
            if line[0] == tag:  # already present (e.g. racing prefetch)
                line[1] = line[1] or is_write
                return
        lines.insert(0, [tag, is_write])
        if len(lines) > self.config.assoc:
            victim = lines.pop()
            if victim[1]:
                self.writebacks += 1


class ReferenceHierarchy:
    """The L1I/L1D -> L2 -> L3 -> DRAM walk over reference caches."""

    def __init__(self, config):
        self.config = config
        self.l1i = ReferenceCache(config.l1i)
        self.l1d = ReferenceCache(config.l1d)
        self.l2 = ReferenceCache(config.l2)
        self.l3 = ReferenceCache(config.l3)

    def _walk(self, first_level_cache, addr, is_write):
        latency = first_level_cache.config.hit_latency
        if first_level_cache.lookup(addr, is_write):
            return latency, MemLevel.L1
        latency += self.l2.config.hit_latency
        if self.l2.lookup(addr):
            first_level_cache.fill(addr, is_write)
            return latency, MemLevel.L2
        latency += self.l3.config.hit_latency
        if self.l3.lookup(addr):
            self.l2.fill(addr)
            first_level_cache.fill(addr, is_write)
            return latency, MemLevel.L3
        latency += self.config.dram_latency
        self.l3.fill(addr)
        self.l2.fill(addr)
        first_level_cache.fill(addr, is_write)
        return latency, MemLevel.MEM

    def access_data(self, addr, is_write=False):
        return self._walk(self.l1d, addr, is_write)

    def access_inst(self, addr):
        return self._walk(self.l1i, addr, False)

    def prefetch_fill(self, addr):
        if not self.l3.lookup(addr, update=False):
            self.l3.fill(addr)
        if not self.l2.lookup(addr, update=False):
            self.l2.fill(addr)
        if not self.l1d.lookup(addr, update=False):
            self.l1d.fill(addr)


class ReferenceMSHRFile:
    """Outstanding-miss tracker that scans its entries every cycle."""

    def __init__(self, capacity=32, line_bytes=64):
        self.capacity = capacity
        self.line_bytes = line_bytes
        self._pending = {}  # block -> ready_cycle
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0
        self.occupancy_histogram = {}

    def occupancy(self, cycle):
        if self._pending:
            expired = [b for b, ready in self._pending.items() if ready <= cycle]
            for block in expired:
                del self._pending[block]
        return len(self._pending)

    def request(self, addr, cycle, fill_latency):
        block = addr // self.line_bytes
        self.occupancy(cycle)
        ready = self._pending.get(block)
        if ready is not None:
            self.merges += 1
            return True, ready
        if len(self._pending) >= self.capacity:
            self.full_stalls += 1
            return False, None
        ready = cycle + fill_latency
        self._pending[block] = ready
        self.allocations += 1
        return True, ready

    def sample(self, cycle):
        occ = self.occupancy(cycle)
        hist = self.occupancy_histogram
        hist[occ] = hist.get(occ, 0) + 1


class ReferenceBTB:
    """Set-associative BTB of ``[tag, target]`` entries, MRU first."""

    def __init__(self, sets=1024, ways=4):
        self.sets = sets
        self.ways = ways
        self._sets = [[] for _ in range(sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, pc):
        entries = self._sets[pc % self.sets]
        tag = pc // self.sets
        for position, entry in enumerate(entries):
            if entry[0] == tag:
                if position:
                    entries.insert(0, entries.pop(position))
                self.hits += 1
                return entry[1]
        self.misses += 1
        return None

    def install(self, pc, target):
        entries = self._sets[pc % self.sets]
        tag = pc // self.sets
        for position, entry in enumerate(entries):
            if entry[0] == tag:
                entry[1] = target
                if position:
                    entries.insert(0, entries.pop(position))
                return
        entries.insert(0, [tag, target])
        if len(entries) > self.ways:
            entries.pop()
