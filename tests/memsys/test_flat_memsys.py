"""Differential tests: the flat cache, hierarchy, MSHR and BTB against
the object-model references (``reference_memsys``).

Seeded address streams with writes, skewed toward a hot working set so
that hits, LRU reorders, evictions and dirty writebacks all occur, drive
both versions; hit/miss/writeback counts, served levels, latencies and
every set's LRU order and dirty bits must match.
"""

import random

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.memsys.cache import Cache, CacheConfig
from repro.memsys.hierarchy import MemoryHierarchy, MemoryHierarchyConfig
from repro.memsys.mshr import MSHRFile

from tests.memsys.reference_memsys import (
    ReferenceBTB,
    ReferenceCache,
    ReferenceHierarchy,
    ReferenceMSHRFile,
)


def address_stream(seed, count, lines=600, line_bytes=64):
    """``[(addr, is_write)]``: 80% from a 32-line hot set, 25% writes."""
    rng = random.Random(seed)
    hot = [rng.randrange(lines) for _ in range(32)]
    stream = []
    for _ in range(count):
        line = rng.choice(hot) if rng.random() < 0.8 else rng.randrange(lines)
        stream.append((line * line_bytes + rng.randrange(line_bytes),
                       rng.random() < 0.25))
    return stream


def lru_state(cache):
    """Per set: the resident tags MRU first, each with its dirty bit."""
    if isinstance(cache, ReferenceCache):
        return [[(tag, bool(dirty)) for tag, dirty in lines]
                for lines in cache._sets]
    return [[(block // cache.num_sets, block in cache._dirty)
             for block in lines] for lines in cache._sets]


def counts(cache):
    return cache.hits, cache.misses, cache.writebacks


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cache_matches_reference(seed):
    config = CacheConfig("T", 16 * 4 * 64, 4, 64)
    old, new = ReferenceCache(config), Cache(config)
    rng = random.Random(seed + 100)
    for addr, is_write in address_stream(seed, 6000):
        op = rng.random()
        if op < 0.6:
            hit = old.lookup(addr, is_write)
            assert new.lookup(addr, is_write) == hit
            if not hit:
                old.fill(addr, is_write)
                new.fill(addr, is_write)
        elif op < 0.8:  # a prefetch-style probe-then-fill
            if not old.lookup(addr, update=False):
                old.fill(addr)
            if not new.lookup(addr, update=False):
                new.fill(addr)
        else:  # a fill racing a resident line
            old.fill(addr, is_write)
            new.fill(addr, is_write)
        assert counts(new) == counts(old)
    assert lru_state(new) == lru_state(old)
    assert old.writebacks > 0 and old.hits > old.misses > 0


@pytest.mark.parametrize("seed", [4, 5])
def test_hierarchy_matches_reference(seed):
    config = MemoryHierarchyConfig(
        l1i=CacheConfig("L1I", 1024, 2, 64, 1),
        l1d=CacheConfig("L1D", 1024, 2, 64, 4),
        l2=CacheConfig("L2", 4096, 4, 64, 12),
        l3=CacheConfig("L3", 16384, 8, 64, 30),
        dram_latency=100,
    )
    old, new = ReferenceHierarchy(config), MemoryHierarchy(config)
    rng = random.Random(seed)
    for addr, is_write in address_stream(seed, 8000, lines=1500):
        op = rng.random()
        if op < 0.7:
            result = new.access_data(addr, is_write)
            assert (result.latency, result.level) == old.access_data(
                addr, is_write)
        elif op < 0.85:
            result = new.access_inst(addr)
            assert (result.latency, result.level) == old.access_inst(addr)
        else:
            old.prefetch_fill(addr)
            new.prefetch_fill(addr)
    for level in ("l1i", "l1d", "l2", "l3"):
        assert counts(getattr(new, level)) == counts(getattr(old, level))
        assert lru_state(getattr(new, level)) == lru_state(getattr(old, level))


def test_results_are_shared_and_immutable():
    hierarchy = MemoryHierarchy()
    first = hierarchy.access_data(0x1000)
    second = hierarchy.access_data(0x2000)
    assert first is second  # both cold misses: one preallocated result
    with pytest.raises(AttributeError):
        first.latency = 0


def test_mshr_matches_reference():
    old, new = ReferenceMSHRFile(capacity=6), MSHRFile(capacity=6)
    rng = random.Random(7)
    cycle = 0
    for _ in range(20000):
        cycle += rng.choice((0, 1, 1, 1, 2))
        if rng.random() < 0.3:
            addr = rng.randrange(40) * 64
            latency = rng.choice((4, 16, 46, 246))
            assert new.request(addr, cycle, latency) == old.request(
                addr, cycle, latency)
        if rng.random() < 0.05:
            assert new.occupancy(cycle) == old.occupancy(cycle)
        old.sample(cycle)
        new.sample(cycle)
        assert new._pending == old._pending
    assert new.occupancy_histogram == old.occupancy_histogram
    assert (new.allocations, new.merges, new.full_stalls) == (
        old.allocations, old.merges, old.full_stalls)
    assert old.full_stalls > 0 and len(old.occupancy_histogram) > 3


def test_btb_matches_reference():
    old, new = ReferenceBTB(sets=16, ways=2), BranchTargetBuffer(16, 2)
    rng = random.Random(8)
    pcs = [rng.randrange(4096) for _ in range(80)]
    for _ in range(20000):
        pc = rng.choice(pcs)
        assert new.lookup(pc) == old.lookup(pc)
        if rng.random() < 0.4:
            target = rng.randrange(4096)
            old.install(pc, target)
            new.install(pc, target)
    assert (new.hits, new.misses) == (old.hits, old.misses)
    for index in range(16):
        assert [[pc // 16, new._targets[pc]] for pc in new._sets[index]] \
            == old._sets[index]
    assert sorted(new._targets) == sorted(
        tag * 16 + index for index in range(16)
        for tag, _ in old._sets[index])
