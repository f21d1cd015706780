"""Differential tests: the flat TAGE/ISL-TAGE kernels against the
object-per-entry reference model (``reference_tage``).

Both predictors see the same branch streams — the committed conditional
branches of the four reference binaries, recorded by the functional
pre-scan — and must agree on every prediction and on all table state:
tags, counters, useful bits, base table, folded histories, the loop
table and the corrector.
"""

import copy
import gc
import pickle
import random
import weakref

import pytest

from repro.branch import tage
from repro.core import memory_bound_config, sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.core.warm import _E_BR, _E_BR_T, record_portable_trace
from repro.workloads import get_workload

from tests.branch import reference_tage as ref

#: The four reference binaries (memory-bound astar, DFD astar, TQ bzip2,
#: CFD soplex) at half scale: a few thousand branches each.
REFERENCE_BINARIES = {
    "astar_base": ("astar_r1", "base", "BigLakes", memory_bound_config),
    "astar_dfd": ("astar_r1", "dfd", "Rivers", memory_bound_config),
    "bzip2_tq": ("bzip2", "tq", "chicken", sandy_bridge_config),
    "soplex_cfd": ("soplex", "cfd", "ref", sandy_bridge_config),
}

_STREAMS = {}


def branch_stream(name):
    """``[(pc, taken)]`` of the predictor-trained branches of *name*."""
    if name not in _STREAMS:
        workload, variant, input_name, config = REFERENCE_BINARIES[name]
        program = get_workload(workload).build(
            variant, input_name, 0.5, 1).program
        trace = record_portable_trace(Pipeline(program, config()), 100_000)
        _STREAMS[name] = [
            (a, kind == _E_BR_T)
            for kind, a in zip(trace.kinds, trace.a)
            if kind == _E_BR or kind == _E_BR_T
        ]
    return _STREAMS[name]


def _pair(kind, **kwargs):
    if kind == "isl":
        return ref.ISLTAGEPredictor(**kwargs), tage.ISLTAGEPredictor(**kwargs)
    return ref.TAGEPredictor(**kwargs), tage.TAGEPredictor(**kwargs)


def assert_same_state(old, new):
    """The reference model's objects and the flat lists hold one state."""
    entries = [e for table in old._tables for e in table]
    assert new._tags == [e.tag for e in entries]
    assert new._ctrs == [e.ctr for e in entries]
    assert new._useful == [e.useful for e in entries]
    assert new._base == old._base
    assert new._history == old._history
    assert new._use_alt_on_na == old._use_alt_on_na
    assert new._update_count == old._update_count
    assert new._alloc_tick == old._alloc_tick
    old_regs = {(lm1 + 1, bm1 + 1): value for (lm1, bm1, _, _), value
                in zip(old._fold_params, old._fold_regs)}
    assert dict(zip(new._fold_params, new._regs)) == {
        key: old_regs[key] for key in new._fold_params}
    if isinstance(old, ref.ISLTAGEPredictor):
        assert new._sc == [v for table in old._sc_tables for v in table]
        assert new._loop_trust == old._loop_trust
        loop = [(-1, 0, 0, 0, 0) if e is None else
                (e.tag, e.past_iter, e.current_iter, e.confidence, e.age)
                for e in old.loop._table]
        flat = list(zip(new._loop_tag, new._loop_past, new._loop_cur,
                        new._loop_conf, new._loop_age))
        # An empty slot's fields other than its tag are never read.
        assert [f if f[0] >= 0 else (-1, 0, 0, 0, 0) for f in flat] == loop


def drive_detailed(old, new, stream, seed):
    """The detailed core's protocol: predict and speculate at fetch,
    snapshot/restore to repair a mispredicted path, update at retire
    from a seeded window of in-flight branches (some without meta)."""
    rng = random.Random(seed)
    inflight = []
    for pc, taken in stream:
        snaps = old.snapshot(), new.snapshot()
        (p_old, m_old), (p_new, m_new) = old.predict(pc), new.predict(pc)
        assert p_old == p_new
        for predictor in (old, new):
            predictor.speculative_update(pc, p_old)
        if p_old != taken:
            for predictor, snap in zip((old, new), snaps):
                predictor.restore(snap)
                predictor.speculative_update(pc, taken)
        inflight.append((pc, taken, m_old, m_new))
        while len(inflight) > rng.randrange(1, 16):
            pc_r, taken_r, m_old, m_new = inflight.pop(0)
            if rng.random() < 0.05:
                m_old = m_new = None
            old.update(pc_r, taken_r, m_old)
            new.update(pc_r, taken_r, m_new)
    for pc_r, taken_r, m_old, m_new in inflight:
        old.update(pc_r, taken_r, m_old)
        new.update(pc_r, taken_r, m_new)


@pytest.mark.parametrize("kind", ["tage", "isl"])
@pytest.mark.parametrize("binary", sorted(REFERENCE_BINARIES))
def test_train_matches_reference(binary, kind):
    old, new = _pair(kind)
    for pc, taken in branch_stream(binary):
        assert old.train(pc, taken) == new.train(pc, taken)
    assert_same_state(old, new)


@pytest.mark.parametrize("kind", ["tage", "isl"])
@pytest.mark.parametrize("binary", sorted(REFERENCE_BINARIES))
def test_detailed_protocol_matches_reference(binary, kind):
    old, new = _pair(kind)
    drive_detailed(old, new, branch_stream(binary), seed=len(binary))
    assert_same_state(old, new)


def test_other_geometry_and_aging_match_reference():
    """Kernels are compiled per geometry: a small odd geometry with a
    short reset period (so aging runs) still matches the reference."""
    kwargs = dict(table_bits=7, tag_bits=8, history_lengths=(3, 7, 19, 40),
                  u_reset_period=300)
    old, new = _pair("tage", **kwargs)
    stream = branch_stream("astar_dfd")
    drive_detailed(old, new, stream[:3000], seed=5)
    for pc, taken in stream[3000:6000]:
        assert old.train(pc, taken) == new.train(pc, taken)
    assert_same_state(old, new)
    assert new._update_count > 2 * 300


def test_fold_registers_are_shared():
    """With table_bits = tag_bits - 1 each table's index fold is also its
    (tag - 1) fold, and the corrector's 8-bit fold is table 1's."""
    assert len(tage.TAGEPredictor()._regs) == 12
    assert len(tage.ISLTAGEPredictor()._regs) == 13


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda p: pickle.loads(pickle.dumps(p))])
def test_copies_are_independent(clone):
    stream = branch_stream("soplex_cfd")
    original = tage.ISLTAGEPredictor()
    for pc, taken in stream[:1000]:
        original.train(pc, taken)
    original.predict = lambda pc: (True, None)  # an instance-level wrapper
    twin = clone(original)
    assert type(twin) is type(original)
    assert twin.train.__self__ is twin and twin.predict.__self__ is twin
    del original.predict
    before = copy.deepcopy(vars(original))
    for pc, taken in stream[1000:2000]:
        twin.train(pc, taken)
    assert vars(original) == before
    for pc, taken in stream[1000:2000]:
        original.train(pc, taken)
    assert vars(original) == vars(twin)


def test_a_dropped_predictor_is_freed_at_once():
    """The kernels hold no reference to an instance: no cycle keeps a
    dropped predictor alive until the cyclic collector runs."""
    predictor = tage.ISLTAGEPredictor()
    predictor.train(0x40, True)
    alive = weakref.ref(predictor)
    gc.disable()
    try:
        del predictor
        assert alive() is None
    finally:
        gc.enable()
