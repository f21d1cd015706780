"""JRS confidence estimator (Jacobsen, Rotenberg, Smith).

A table of resetting counters: increment on a correct prediction, reset to
zero on a misprediction.  A branch whose counter is at/above the threshold
is *high confidence*.  The baseline core uses this to gate checkpoint
allocation (confidence-guided checkpointing, Section VI): only
low-confidence branches take one of the scarce checkpoints.
"""


class JRSConfidenceEstimator:
    """Resetting-counter confidence estimator indexed by PC^history."""

    def __init__(self, table_bits=12, counter_max=15, threshold=8,
                 history_bits=0):
        """history_bits=0 (the default) indexes by PC alone: at simulated
        region scale, history-hashed indexing spreads each branch over too
        many counters to ever reach the confidence threshold."""
        self._mask = (1 << table_bits) - 1
        self._history_mask = (1 << history_bits) - 1 if history_bits else 0
        self._counter_max = counter_max
        self.threshold = threshold
        self._table = [0] * (1 << table_bits)
        self._history = 0

    def _index(self, pc):
        return (pc ^ (self._history << 2)) & self._mask

    def is_confident(self, pc):
        """True when the branch at *pc* is predicted with high confidence."""
        return self._table[self._index(pc)] >= self.threshold

    def speculative_update(self, taken):
        if self._history_mask:
            self._history = (
                (self._history << 1) | (1 if taken else 0)
            ) & self._history_mask

    def snapshot(self):
        return self._history

    def restore(self, snapshot):
        self._history = snapshot

    def update(self, pc, correct):
        """Train with whether the overall prediction was *correct*."""
        table = self._table
        idx = (pc ^ (self._history << 2)) & self._mask
        if not correct:
            table[idx] = 0
        elif table[idx] < self._counter_max:
            table[idx] += 1
