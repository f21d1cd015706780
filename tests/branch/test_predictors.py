"""Direction predictors: learning behavior and accuracy profiles.

These tests pin the *profile* the CFD evaluation depends on: a modern
predictor is near-perfect on regular control flow and near-coin-flip on
i.i.d. random predicates (the separable-branch inputs).
"""

import numpy as np
import pytest

from repro.branch import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    BTFNPredictor,
    GSharePredictor,
    ISLTAGEPredictor,
    NotTakenPredictor,
    PerfectPredictor,
    TAGEPredictor,
    make_predictor,
)


def _accuracy(predictor, outcomes, pc=0x40):
    correct = 0
    for taken in outcomes:
        predicted, meta = predictor.predict(pc)
        predictor.speculative_update(pc, taken)
        predictor.update(pc, taken, meta)
        if predicted == taken:
            correct += 1
    return correct / len(outcomes)


def _pattern(pattern, reps):
    return [bool(b) for b in pattern] * reps


class TestStatic:
    def test_always_and_never(self):
        assert AlwaysTakenPredictor().predict(0)[0] is True
        assert NotTakenPredictor().predict(0)[0] is False

    def test_btfn_uses_target_direction(self):
        predictor = BTFNPredictor(target_of=lambda pc: pc - 4)
        assert predictor.predict(100)[0] is True
        predictor.set_target_resolver(lambda pc: pc + 4)
        assert predictor.predict(100)[0] is False

    def test_btfn_without_resolver(self):
        assert BTFNPredictor().predict(10)[0] is False


class TestBimodal:
    def test_learns_bias(self):
        predictor = BimodalPredictor(table_bits=8)
        accuracy = _accuracy(predictor, [True] * 100)
        assert accuracy > 0.95

    def test_struggles_on_alternation_window(self):
        predictor = BimodalPredictor(table_bits=8)
        accuracy = _accuracy(predictor, _pattern((1, 0), 200))
        assert accuracy < 0.7  # bimodal cannot track alternation


class TestGShare:
    def test_learns_short_pattern(self):
        predictor = GSharePredictor(table_bits=12, history_bits=8)
        accuracy = _accuracy(predictor, _pattern((1, 1, 0), 400))
        assert accuracy > 0.9

    def test_history_snapshot_restore(self):
        predictor = GSharePredictor()
        predictor.speculative_update(0, True)
        snap = predictor.snapshot()
        predictor.speculative_update(0, False)
        predictor.restore(snap)
        assert predictor.snapshot().payload == snap.payload


class TestTAGE:
    def test_learns_long_pattern(self):
        predictor = TAGEPredictor()
        accuracy = _accuracy(predictor, _pattern((1, 1, 1, 0, 1, 0, 0, 1), 400))
        assert accuracy > 0.9

    def test_near_chance_on_random(self):
        rng = np.random.default_rng(7)
        outcomes = [bool(b) for b in rng.integers(0, 2, 4000)]
        accuracy = _accuracy(TAGEPredictor(), outcomes)
        assert 0.4 < accuracy < 0.62  # no predictor beats a fair coin

    def test_biased_random_tracks_bias(self):
        rng = np.random.default_rng(8)
        outcomes = [bool(r < 0.9) for r in rng.random(3000)]
        accuracy = _accuracy(TAGEPredictor(), outcomes)
        assert accuracy > 0.85

    def test_history_repair(self):
        predictor = TAGEPredictor()
        for taken in _pattern((1, 0, 1, 1), 50):
            _, meta = predictor.predict(0x10)
            predictor.speculative_update(0x10, taken)
            predictor.update(0x10, taken, meta)
        snap = predictor.snapshot()
        predictor.speculative_update(0x10, True)
        predictor.speculative_update(0x10, True)
        predictor.restore(snap)
        assert predictor.snapshot().payload == snap.payload


class TestISLTAGE:
    def test_loop_predictor_catches_fixed_trip_count(self):
        """A loop-back branch taken exactly 7 times then not-taken once:
        the loop predictor should learn the exit."""
        predictor = ISLTAGEPredictor()
        outcomes = ([True] * 7 + [False]) * 120
        accuracy = _accuracy(predictor, outcomes)
        assert accuracy > 0.97

    def test_outperforms_plain_tage_on_loops(self):
        outcomes = ([True] * 9 + [False]) * 100
        isl = _accuracy(ISLTAGEPredictor(), outcomes)
        plain = _accuracy(TAGEPredictor(), outcomes)
        assert isl >= plain

    def test_random_loop_counts_stay_hard(self):
        rng = np.random.default_rng(9)
        outcomes = []
        for _ in range(250):
            outcomes.extend([True] * int(rng.integers(0, 9)))
            outcomes.append(False)
        accuracy = _accuracy(ISLTAGEPredictor(), outcomes)
        assert accuracy < 0.9  # data-dependent exits are unpredictable


class TestPerfect:
    def test_serves_recorded_outcomes(self):
        predictor = PerfectPredictor({0x10: [True, False, True]})
        assert [predictor.predict(0x10)[0] for _ in range(3)] == [True, False, True]

    def test_unknown_pc_and_exhaustion(self):
        predictor = PerfectPredictor({0x10: [True]})
        assert predictor.predict(0x99)[0] is False
        predictor.predict(0x10)
        assert predictor.predict(0x10)[0] is False

    def test_cursor_snapshot_restore(self):
        predictor = PerfectPredictor({0x10: [True, False]})
        snap = predictor.snapshot()
        predictor.predict(0x10)
        predictor.restore(snap)
        assert predictor.predict(0x10)[0] is True


class TestRegistry:
    @pytest.mark.parametrize(
        "name",
        ["always_taken", "not_taken", "btfn", "bimodal", "gshare", "tage",
         "isl_tage", "perfect"],
    )
    def test_factory(self, name):
        predictor = make_predictor(name)
        assert predictor.name == name or predictor.name in name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_predictor("oracle9000")


class TestTAGEInternals:
    def test_useful_bit_aging(self):
        """At every reset period each useful counter is halved.

        A twin that never ages sees the same stream; at each period the
        aged table must equal the twin's shifted right by one.  The twin
        then adopts the aged counters, so the two stay in lockstep.
        """
        period = 64
        aged = TAGEPredictor(u_reset_period=period)
        twin = TAGEPredictor(u_reset_period=1 << 30)
        outcomes = _pattern((1, 0, 0, 1, 1, 0), 40)
        halved = 0
        for count, taken in enumerate(outcomes, 1):
            for predictor in (aged, twin):
                _, meta = predictor.predict(0x30)
                predictor.speculative_update(0x30, taken)
                predictor.update(0x30, taken, meta)
            if count % period:
                assert aged._useful == twin._useful
                continue
            assert aged._useful == [u >> 1 for u in twin._useful]
            halved += sum(1 for u in twin._useful if u > 1)
            twin._useful[:] = aged._useful
        assert aged._update_count == len(outcomes) > 2 * period
        assert halved > 0  # some counter had a bit to lose

    def test_allocation_on_mispredicts_populates_tables(self):
        predictor = TAGEPredictor()
        rng = np.random.default_rng(3)
        outcomes = [bool(b) for b in rng.integers(0, 2, 500)]
        _accuracy(predictor, outcomes, pc=0x50)
        assert predictor.stats()["live_entries"] > 10

    def test_distinct_pcs_do_not_alias_catastrophically(self):
        predictor = TAGEPredictor()
        # two branches with opposite fixed biases
        for _ in range(300):
            for pc, taken in ((0x100, True), (0x23C, False)):
                predicted, meta = predictor.predict(pc)
                predictor.speculative_update(pc, taken)
                predictor.update(pc, taken, meta)
        correct = 0
        for pc, taken in ((0x100, True), (0x23C, False)):
            predicted, _ = predictor.predict(pc)
            correct += predicted == taken
        assert correct == 2
