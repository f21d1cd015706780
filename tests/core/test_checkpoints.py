"""Checkpoint pool: allocation, reclamation, squash cleanup."""

from repro.core import sandy_bridge_config
from repro.core.checkpoints import CheckpointPool, FrontEndSnapshot, SimCheckpoint
from repro.core.pipeline import Pipeline
from repro.workloads import get_workload


def _allocate(pool, seq):
    return pool.allocate(seq, rmt=list(range(32)), vq=(0, 0), front_end=FrontEndSnapshot())


def test_allocate_until_full():
    pool = CheckpointPool(2)
    assert _allocate(pool, 1) is not None
    assert _allocate(pool, 2) is not None
    assert _allocate(pool, 3) is None
    assert pool.available == 0


def test_release_frees_slot():
    pool = CheckpointPool(1)
    ckpt_id = _allocate(pool, 1)
    pool.release(ckpt_id)
    assert pool.available == 1
    assert _allocate(pool, 2) is not None


def test_release_is_idempotent():
    pool = CheckpointPool(1)
    ckpt_id = _allocate(pool, 1)
    pool.release(ckpt_id)
    pool.release(ckpt_id)
    assert pool.available == 1


def test_release_younger_on_squash():
    pool = CheckpointPool(4)
    keep = _allocate(pool, 10)
    _allocate(pool, 20)
    _allocate(pool, 30)
    pool.release_younger(15)
    assert pool.get(keep) is not None
    assert pool.available == 3


def test_get_returns_contents():
    pool = CheckpointPool(1)
    ckpt_id = _allocate(pool, 5)
    ckpt = pool.get(ckpt_id)
    assert ckpt.seq == 5
    assert len(ckpt.rmt) == 32


def test_clear():
    pool = CheckpointPool(3)
    _allocate(pool, 1)
    pool.clear()
    assert pool.available == 3


def test_sim_checkpoint_copies_flat_warm_state():
    """capture -> mutate -> restore: the checkpoint holds its own copy of
    every flat warm structure, and a restored pipeline gets a fresh copy
    whose kernels are bound to it, so the checkpoint restores again."""
    program = get_workload("soplex").build("cfd", "ref", 0.125, 1).program
    pipeline = Pipeline(program, sandy_bridge_config())
    pipeline.run_slice(2000)
    pipeline.drain_to_committed()
    ckpt = SimCheckpoint.capture(pipeline)
    tags = list(ckpt.predictor._tags)
    l2_sets = [list(lines) for lines in ckpt.memory.l2._sets]
    first = pipeline.run_slice(2000).to_snapshot()
    assert pipeline.predictor._update_count > ckpt.predictor._update_count
    assert ckpt.predictor._tags == tags
    assert [list(lines) for lines in ckpt.memory.l2._sets] == l2_sets
    for _ in range(2):
        ckpt.restore(pipeline)
        predictor = pipeline.predictor
        assert predictor is not ckpt.predictor
        assert predictor._tags is not ckpt.predictor._tags
        assert predictor.train.__self__ is predictor
        assert pipeline.memory.l2._sets is not ckpt.memory.l2._sets
        assert pipeline.btb._targets is not ckpt.btb._targets
        assert pipeline.run_slice(2000).to_snapshot() == first
