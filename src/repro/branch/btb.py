"""Branch target buffer.

Detects branches and supplies taken-targets in the fetch stage.  As in the
paper (Section III-C4), ``Branch_on_BQ`` is cached in the BTB like any
other branch so that a taken pop costs nothing on a BTB hit; a BTB miss
for a taken branch costs a 1-cycle misfetch penalty (detected next cycle).
"""


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement.

    State is flat: each set is a list of the resident branch PCs in
    MRU-first order (a PC names its set and tag, so it serves as both),
    and one dict maps every resident PC to its target.
    """

    def __init__(self, sets=1024, ways=4):
        self.sets = sets
        self.ways = ways
        self._sets = [[] for _ in range(sets)]
        self._targets = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, pc):
        """Return the cached taken-target for *pc*, or ``None`` on miss."""
        entries = self._sets[pc % self.sets]
        if not entries or entries[0] != pc:  # not the MRU entry
            if pc not in entries:
                self.misses += 1
                return None
            entries.remove(pc)
            entries.insert(0, pc)
        self.hits += 1
        return self._targets[pc]

    def install(self, pc, target):
        """Install/refresh the taken-target for *pc*."""
        entries = self._sets[pc % self.sets]
        self._targets[pc] = target
        if entries and entries[0] == pc:
            return
        if pc in entries:
            entries.remove(pc)
            entries.insert(0, pc)
            return
        entries.insert(0, pc)
        if len(entries) > self.ways:
            del self._targets[entries.pop()]

    def stats(self):
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }
