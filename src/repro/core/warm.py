"""Functional warm-mode execution between detailed sampling intervals.

SMARTS-style sampled simulation alternates cheap *functional warming*
with detailed measurement intervals.  :func:`warm_advance` is the warm
mode: it advances the pipeline's committed state (the built-in
:class:`~repro.arch.executor.FunctionalExecutor` checker) one
instruction at a time — no fetch, rename, issue or timing — while
applying the *committed-path* training side effects the detailed core
would have applied:

* direction predictor + JRS confidence: ``predict`` then the
  speculative/retire update pair, collapsed to their committed-path net
  effect (history ends shifted by the actual outcome; the table trains
  on the actual outcome under the prediction-time meta);
* BTB: installed on every taken transfer (and on JALR resolution, as
  the execute stage does);
* RAS: pushed on ``JAL`` with the link register, popped on the
  ``JALR ra`` return idiom;
* caches: one L1I access per new fetch block, and the full data-side
  hierarchy walk for loads, stores and prefetches;
* direction-oracle cursors are consumed for oracle-covered branches so
  a ``perfect``/hybrid predictor stays aligned with the retire stream.

Deliberate approximations (warm state only — measured intervals are
always driven by the detailed core): CFD fetch-resolved control
(``Branch_on_BQ``, ``Branch_on_TCR``, the TQ pops) trains no predictor
state, matching the detailed core's decoupled-hit case; wrong-path
effects (speculative cache pollution, history repair traffic) do not
occur, because warm mode executes only the committed path.

The pre-scan itself is *portable*: :func:`record_portable_trace`
produces a :class:`PortableWarmTrace` — the event stream plus periodic
*stride boundaries* (architectural-state deltas + event offsets) — from
which :meth:`PortableWarmTrace.materialize` derives event offsets and
deep :class:`~repro.arch.state.ArchState` snapshots at **arbitrary**
instruction positions, not just positions known at record time.  A
portable trace round-trips losslessly through
:meth:`~PortableWarmTrace.to_bytes`/:meth:`~PortableWarmTrace.from_bytes`
(schema-versioned, CRC-checked), which is what
:class:`repro.perf.tracestore.TraceStore` persists: one recorded trace
then serves every sampling plan and every timing config whose
:func:`warm_fingerprint` matches.
"""

import struct
import zlib
from array import array
from bisect import bisect_right
from collections import deque, namedtuple

from repro.arch.executor import FunctionalExecutor
from repro.arch.memory import Memory
from repro.arch.queues import BranchQueue, TripCountQueue, ValueQueue
from repro.arch.state import ArchState, program_image
from repro.isa.instructions import LINK_REG, ZERO_REG
from repro.isa.opcodes import OpClass, Opcode

#: Instruction-space base address; mirrors ``core.pipeline.CODE_BASE``
#: (imported lazily below to keep this module import-light).
from repro.core.pipeline import CODE_BASE, _D_INST, _D_OPCLASS, _D_OPCODE

#: Warm-trace event kinds (see :func:`record_warm_trace`).  One event is
#: (kind, a, b); the meaning of a/b depends on the kind.
_E_ICACHE = 1   # a = fetch address
_E_LOAD = 2     # a = pc, b = data address (includes PREFETCH)
_E_STORE = 3    # a = pc, b = data address
_E_BR = 4       # a = pc           (predictor-trained branch, not taken)
_E_BR_T = 5     # a = pc, b = target (predictor-trained branch, taken)
_E_ORACLE = 6   # a = pc           (oracle-covered branch, not taken)
_E_ORACLE_T = 7  # a = pc, b = target (oracle-covered branch, taken)
_E_JAL_LINK = 8  # a = pc, b = target (call: RAS push + BTB install)
_E_JALR_RET = 9  # a = pc, b = target (return: RAS pop + BTB install)
_E_JUMP = 10    # a = pc, b = target (other jump: BTB install)
_E_CFD_T = 11   # a = pc, b = target (taken CFD control: BTB install)

#: Serialized portable-trace format version; bump whenever the event
#: stream semantics or the boundary layout change — foreign versions are
#: rejected on load (and quarantined by the trace store).
TRACE_SCHEMA_VERSION = 1

#: Default instruction stride between boundary records.  Derivation of a
#: mark inside a window re-executes at most one stride functionally, so
#: the stride trades artifact size against worst-case materialize cost.
DEFAULT_TRACE_STRIDE = 4096

_TRACE_MAGIC = b"RWTC"


class TraceFormatError(ValueError):
    """A serialized warm trace is damaged, truncated or foreign."""


class TraceCompatibilityError(ValueError):
    """A warm trace does not cover the requested pipeline or budget."""


def warm_fingerprint(config):
    """Identity of everything that shapes the warm event stream.

    The recorded stream is a pure function of (program, input, budget)
    *and* of the config fields that reach the functional machine or the
    per-PC event-kind table: the architectural CFD queue geometry
    (``bq/vq/tq`` sizes, TQ bits), the L1I line size (I-cache block
    events), and the direction-oracle coverage (oracle-covered branches
    record ``_E_ORACLE*`` instead of ``_E_BR*``).  Timing-only knobs —
    widths, ROB/IQ/LQ/SQ sizes, latencies, checkpoint policy — are
    deliberately absent: configs differing only in those share one
    trace, which is what the sweep scheduler exploits.
    """
    return (
        "warm/v%d:bq=%d:vq=%d:tq=%d:tqbits=%d:l1i=%d:oracle=%s:pcs=%s"
        % (
            TRACE_SCHEMA_VERSION,
            config.bq_size, config.vq_size, config.tq_size, config.tq_bits,
            config.memory.l1i.line_bytes,
            int(config.predictor == "perfect"),
            ",".join(str(pc) for pc in sorted(config.perfect_pcs)),
        )
    )


def warm_advance(pipeline, max_instructions):
    """Advance *pipeline*'s committed state by up to *max_instructions*.

    Returns the number of instructions actually advanced (short on
    halt).  The caller must have drained the pipeline first
    (:meth:`~repro.core.pipeline.Pipeline.drain_to_committed`); on
    return the fetch unit is re-pointed at the new committed PC.
    """
    if max_instructions <= 0:
        return 0
    checker = pipeline.checker
    state = checker.state
    if state.halted:
        return 0
    decoded = pipeline._decoded
    predictor = pipeline.predictor
    confidence = pipeline.confidence
    btb = pipeline.btb
    ras = pipeline.ras
    memory = pipeline.memory
    oracle = pipeline.oracle
    oracle_all = pipeline.oracle_all
    perfect_pcs = pipeline.config.perfect_pcs
    line_bytes = pipeline._l1i_line_bytes
    step = checker.step
    access_inst = memory.access_inst
    access_data = memory.access_data
    prev_block = None
    advanced = 0
    while advanced < max_instructions:
        pc = state.pc
        record = step()
        if record is None:
            break
        advanced += 1
        addr = CODE_BASE + pc * 4
        block = addr // line_bytes
        if block != prev_block:
            access_inst(addr)
            prev_block = block
        entry = decoded[pc]
        opclass = entry[_D_OPCLASS]
        if opclass is OpClass.ALU:
            continue
        if opclass is OpClass.LOAD:
            # Includes PREFETCH: both walk the data hierarchy as reads.
            access_data(record.mem_addr, is_write=False, pc=pc)
        elif opclass is OpClass.STORE:
            access_data(record.mem_addr, is_write=True, pc=pc)
        elif opclass is OpClass.BRANCH:
            taken = bool(record.taken)
            if oracle is not None and (oracle_all or pc in perfect_pcs):
                predicted = oracle.predict(pc)
                predictor.speculative_update(pc, taken)
            else:
                predicted = predictor.train(pc, taken)
            confidence.speculative_update(taken)
            confidence.update(pc, predicted == taken)
            if taken:
                btb.install(pc, record.target)
                prev_block = None
        elif opclass is OpClass.JUMP:
            inst = entry[_D_INST]
            opcode = entry[_D_OPCODE]
            if opcode is Opcode.JAL and inst.rd == LINK_REG:
                ras.push(pc + 1)
            elif opcode is Opcode.JALR:
                if inst.rs1 == LINK_REG and inst.rd == ZERO_REG:
                    ras.pop()
            btb.install(pc, record.target)
            prev_block = None
        elif (
            opclass is OpClass.BQ_BRANCH
            or opclass is OpClass.TCR_BRANCH
            or opclass is OpClass.TQ_POP_BOV
        ):
            # Fetch-resolved CFD control: no predictor training, but a
            # taken transfer still lands in the BTB (misfetch install).
            if record.taken:
                btb.install(pc, record.target)
                prev_block = None
    pipeline.resync_committed_state()
    if advanced and pipeline.obs is not None:
        pipeline.obs.on_warm_skip(pipeline, advanced)
    return advanced


class WarmTrace:
    """Committed-path warm events recorded by one functional pre-scan.

    ``kinds``/``a``/``b`` are parallel event lists (see the ``_E_*``
    constants); ``offsets`` maps a requested instruction position to the
    event-list offset reached there, and ``snapshots`` maps a position
    to a deep :class:`~repro.arch.state.ArchState` copy taken there.
    ``total`` is the dynamic instruction count actually executed (short
    of the limit on halt).
    """

    __slots__ = ("kinds", "a", "b", "offsets", "snapshots", "total",
                 "halted")

    def __init__(self, kinds, a, b, offsets, snapshots, total, halted):
        self.kinds = kinds
        self.a = a
        self.b = b
        self.offsets = offsets
        self.snapshots = snapshots
        self.total = total
        self.halted = halted


def _static_event_kinds(pipeline):
    """Per-PC warm-event kind table (0 = no event beyond I-cache)."""
    kinds = []
    oracle = pipeline.oracle
    oracle_all = pipeline.oracle_all
    perfect_pcs = pipeline.config.perfect_pcs
    for pc, entry in enumerate(pipeline._decoded):
        opclass = entry[_D_OPCLASS]
        if opclass is OpClass.LOAD:
            kind = _E_LOAD
        elif opclass is OpClass.STORE:
            kind = _E_STORE
        elif opclass is OpClass.BRANCH:
            if oracle is not None and (oracle_all or pc in perfect_pcs):
                kind = _E_ORACLE
            else:
                kind = _E_BR
        elif opclass is OpClass.JUMP:
            inst = entry[_D_INST]
            opcode = entry[_D_OPCODE]
            if opcode is Opcode.JAL and inst.rd == LINK_REG:
                kind = _E_JAL_LINK
            elif (
                opcode is Opcode.JALR
                and inst.rs1 == LINK_REG
                and inst.rd == ZERO_REG
            ):
                kind = _E_JALR_RET
            else:
                kind = _E_JUMP
        elif (
            opclass is OpClass.BQ_BRANCH
            or opclass is OpClass.TCR_BRANCH
            or opclass is OpClass.TQ_POP_BOV
        ):
            kind = _E_CFD_T
        else:
            kind = 0
        kinds.append(kind)
    return kinds


class _TrackingMemory(Memory):
    """A :class:`Memory` that remembers which words a window wrote.

    The recorder drains ``dirty`` at every stride boundary into the
    boundary's memory delta; replaying the deltas in order reproduces
    the exact memory image at any boundary.  All executor store paths
    (``sw``/``sb`` and the CFD queue-save ops) funnel through
    ``store_word``/``store_byte``, so the dirty set is complete.
    """

    def __init__(self, image=None):
        Memory.__init__(self, image)
        self.dirty = set()

    def store_word(self, addr, value):
        # Inlined fast path (the pre-scan runs this per store); the
        # error path defers to the base class for its diagnostics.
        if addr & 3 or addr < 0:
            Memory.store_word(self, addr, value)
        else:
            self._words[addr] = value & 0xFFFFFFFF
        self.dirty.add(addr)

    def store_byte(self, addr, value):
        Memory.store_byte(self, addr, value)
        self.dirty.add(addr & ~3)


#: One stride boundary: everything needed to restart a functional scan
#: at ``position`` — the event offset reached, the recorder's I-cache
#: block register, and the architectural-state delta (full registers and
#: queue images — they are small — plus the memory words written since
#: the previous boundary).
_Boundary = namedtuple(
    "_Boundary",
    "position offset prev_block pc tcr halted regs bq vq tq mem_delta",
)


class _TraceRecorder:
    """Warm-event recording state for one pre-scan.

    Holds the event arrays, the stride-boundary snapshots and the
    per-program constants that :func:`record_portable_trace` fills in
    its scan loop.
    """

    def __init__(self, pipeline, state, stride=DEFAULT_TRACE_STRIDE):
        if stride <= 0:
            raise ValueError("trace stride must be positive")
        self.state = state
        self.stride = stride
        self.static_kinds = _static_event_kinds(pipeline)
        line_bytes = pipeline._l1i_line_bytes
        # CODE_BASE is line-aligned, so the block index is a pure shift.
        self.block_shift = (line_bytes // 4).bit_length() - 1
        self.fingerprint = warm_fingerprint(pipeline.config)
        self.tq_bits = pipeline.config.tq_bits
        self.kinds = []
        self.a = []
        self.b = []
        self.count = 0
        self.prev_block = -1
        self.halted = False
        self.boundaries = []
        state.memory.dirty.clear()  # the program image is not a delta
        self._capture_boundary()

    def _capture_boundary(self):
        state = self.state
        memory = state.memory
        words = memory._words
        delta = {addr: words.get(addr, 0) for addr in memory.dirty}
        memory.dirty.clear()
        bq, vq, tq = state.bq, state.vq, state.tq
        bits = self.tq_bits
        self.boundaries.append(_Boundary(
            self.count, len(self.kinds), self.prev_block, state.pc,
            state.tcr, state.halted, tuple(state.regs),
            (tuple(bq._entries), bq.total_pushes, bq.total_pops, bq._mark),
            (tuple(vq._entries), vq.total_pushes, vq.total_pops),
            (
                tuple((ov << bits) | count for count, ov in tq._entries),
                tq.total_pushes, tq.total_pops,
            ),
            delta,
        ))

    def finish(self, machine_halted):
        """Seal the recording; returns the :class:`PortableWarmTrace`."""
        self.halted = bool(machine_halted)
        if self.boundaries[-1].position != self.count:
            self._capture_boundary()
        return PortableWarmTrace(
            self.fingerprint, self.stride, self.block_shift, self.tq_bits,
            self.kinds, self.a, self.b, self.count, self.halted,
            self.boundaries,
        )


def _recording_state(pipeline):
    """A throwaway functional state with write tracking installed."""
    config = pipeline.config
    state = ArchState(
        bq_size=config.bq_size,
        vq_size=config.vq_size,
        tq_size=config.tq_size,
        tq_bits=config.tq_bits,
    )
    state.memory = _TrackingMemory()
    state.load_program(pipeline.program)
    return state


def record_portable_trace(pipeline, limit, stride=DEFAULT_TRACE_STRIDE):
    """One functional pre-scan of up to *limit* instructions.

    Runs a throwaway :class:`FunctionalExecutor` (the pipeline is
    untouched) and returns a :class:`PortableWarmTrace`: the complete
    warm-event stream plus stride-boundary scaffolding from which event
    offsets and architectural snapshots are derivable at any position.
    """
    state = _recording_state(pipeline)
    recorder = _TraceRecorder(pipeline, state, stride)
    executor = FunctionalExecutor(pipeline.program, state)
    step = executor.step
    # Everything is bound to locals: the pre-scan is the hottest loop
    # in sampled mode and a per-instruction method call costs ~40% here.
    static_kinds = recorder.static_kinds
    block_shift = recorder.block_shift
    kinds = recorder.kinds
    a_list = recorder.a
    b_list = recorder.b
    k_append = kinds.append
    a_append = a_list.append
    b_append = b_list.append
    prev_block = -1
    i = 0
    next_boundary = stride
    machine_halted = False
    while i < limit:
        record = step()
        if record is None:
            machine_halted = True
            break
        i += 1
        pc = record.pc
        block = pc >> block_shift
        if block != prev_block:
            k_append(_E_ICACHE)
            a_append(CODE_BASE + pc * 4)
            b_append(0)
            prev_block = block
        kind = static_kinds[pc]
        if kind:
            if kind == _E_LOAD or kind == _E_STORE:
                k_append(kind)
                a_append(pc)
                b_append(record.mem_addr)
            elif kind == _E_BR or kind == _E_ORACLE:
                if record.taken:
                    k_append(kind + 1)
                    a_append(pc)
                    b_append(record.target)
                    prev_block = -1
                else:
                    k_append(kind)
                    a_append(pc)
                    b_append(0)
            elif kind == _E_CFD_T:
                if record.taken:
                    k_append(kind)
                    a_append(pc)
                    b_append(record.target)
                    prev_block = -1
            else:  # jumps: always taken
                k_append(kind)
                a_append(pc)
                b_append(record.target)
                prev_block = -1
        if i == next_boundary:
            next_boundary += stride
            recorder.count = i
            recorder.prev_block = prev_block
            recorder._capture_boundary()
    recorder.count = i
    recorder.prev_block = prev_block
    return recorder.finish(machine_halted)


class PortableWarmTrace:
    """A plan-independent, config-portable warm pre-scan.

    Holds the parallel event stream (``kinds``/``a``/``b``), the true
    dynamic length (``total``, short of the recording budget on halt),
    and the stride ``boundaries``.  :meth:`materialize` derives a
    :class:`WarmTrace` for any requested positions; :meth:`to_bytes` /
    :meth:`from_bytes` serialize losslessly for the on-disk store.
    """

    __slots__ = ("fingerprint", "stride", "block_shift", "tq_bits",
                 "kinds", "a", "b", "total", "halted", "boundaries")

    def __init__(self, fingerprint, stride, block_shift, tq_bits,
                 kinds, a, b, total, halted, boundaries):
        self.fingerprint = fingerprint
        self.stride = stride
        self.block_shift = block_shift
        self.tq_bits = tq_bits
        self.kinds = kinds
        self.a = a
        self.b = b
        self.total = total
        self.halted = halted
        self.boundaries = boundaries

    # ------------------------------------------------------ coverage

    def clip(self, limit):
        """``(total, halted)`` as a budget-*limit* recording would report.

        Raises :class:`TraceCompatibilityError` when the trace cannot
        cover *limit* (recorded budget exhausted before *limit* without
        a halt).
        """
        if limit < self.total:
            return limit, False
        if limit == self.total:
            return self.total, False
        if not self.halted:
            raise TraceCompatibilityError(
                "trace covers %d instructions (budget exhausted); "
                "cannot serve a %d-instruction request"
                % (self.total, limit)
            )
        return self.total, True

    # -------------------------------------------------- materialization

    def _restart_state(self, boundary, words, config):
        state = ArchState()
        state.regs = list(boundary.regs)
        memory = Memory()
        memory._words = words
        state.memory = memory
        bq = BranchQueue(config.bq_size)
        bq._entries = deque(boundary.bq[0])
        bq.total_pushes, bq.total_pops, bq._mark = boundary.bq[1:]
        vq = ValueQueue(config.vq_size)
        vq._entries = deque(boundary.vq[0])
        vq.total_pushes, vq.total_pops = boundary.vq[1:]
        tq = TripCountQueue(config.tq_size, config.tq_bits)
        mask = tq.max_count
        bits = config.tq_bits
        tq._entries = deque(
            (word & mask, (word >> bits) & 1) for word in boundary.tq[0]
        )
        tq.total_pushes, tq.total_pops = boundary.tq[1:]
        state.bq, state.vq, state.tq = bq, vq, tq
        state.tcr = boundary.tcr
        state.pc = boundary.pc
        state.halted = boundary.halted
        return state

    def _advance_counting(self, executor, static_kinds, prev_block, count,
                          offset):
        """Functionally re-execute *count* instructions, advancing the
        event offset exactly as the recorder did."""
        step = executor.step
        shift = self.block_shift
        for _ in range(count):
            record = step()
            if record is None:
                raise TraceFormatError(
                    "functional re-execution halted before a recorded "
                    "boundary — trace scaffolding is inconsistent"
                )
            pc = record.pc
            block = pc >> shift
            if block != prev_block:
                offset += 1
                prev_block = block
            kind = static_kinds[pc]
            if not kind:
                continue
            if kind == _E_BR or kind == _E_ORACLE:
                offset += 1
                if record.taken:
                    prev_block = -1
            elif kind == _E_LOAD or kind == _E_STORE:
                offset += 1
            elif kind == _E_CFD_T:
                if record.taken:
                    offset += 1
                    prev_block = -1
            else:
                offset += 1
                prev_block = -1
        return offset, prev_block

    def materialize(self, pipeline, limit, positions=(),
                    snapshot_positions=()):
        """Derive a :class:`WarmTrace` for *pipeline* at the requested
        positions — including positions that were never marked at record
        time.

        For each position the nearest preceding stride boundary's state
        is reconstructed (registers/queues from the boundary image,
        memory by folding the delta chain) and at most one stride is
        functionally re-executed to the exact mark, counting events the
        way the recorder did; marks are visited in one forward pass, so
        overlapping windows are never re-executed.  Positions past the
        (clipped) dynamic length are silently absent, matching the
        original single-pass recorder's contract.
        """
        fingerprint = warm_fingerprint(pipeline.config)
        if fingerprint != self.fingerprint:
            raise TraceCompatibilityError(
                "trace was recorded under %r but the pipeline needs %r"
                % (self.fingerprint, fingerprint)
            )
        total, halted = self.clip(limit)
        snap_set = set(snapshot_positions)
        marks = sorted(
            p for p in (set(positions) | snap_set) if 0 <= p <= total
        )
        offsets = {}
        snapshots = {}
        if marks:
            program = pipeline.program
            config = pipeline.config
            static_kinds = _static_event_kinds(pipeline)
            boundaries = self.boundaries
            boundary_positions = [b.position for b in boundaries]
            # The program's memoized image (the one every machine loads)
            # is the base the boundary deltas fold onto.
            base_words = dict(program_image(program))
            applied = 0  # boundaries whose memory delta is folded in
            executor = None
            state = None
            pos = -1
            prev_block = -1
            offset = 0
            for mark in marks:
                floor = bisect_right(boundary_positions, mark) - 1
                if executor is None or boundaries[floor].position > pos:
                    # Jump: fold deltas up to the floor boundary and
                    # restart the functional machine there.  The working
                    # dict is handed to the executor WITHOUT a copy:
                    # mid-stride writes it makes are overwritten by the
                    # next fold anyway, because each boundary delta
                    # stores the absolute final value of every address
                    # written in its stride.
                    while applied <= floor:
                        base_words.update(boundaries[applied].mem_delta)
                        applied += 1
                    boundary = boundaries[floor]
                    state = self._restart_state(boundary, base_words, config)
                    executor = FunctionalExecutor(program, state)
                    pos = boundary.position
                    prev_block = boundary.prev_block
                    offset = boundary.offset
                if mark > pos:
                    offset, prev_block = self._advance_counting(
                        executor, static_kinds, prev_block, mark - pos,
                        offset,
                    )
                    pos = mark
                offsets[mark] = offset
                if mark in snap_set:
                    snapshots[mark] = state.snapshot()
        return WarmTrace(
            self.kinds, self.a, self.b, offsets, snapshots, total, halted
        )

    # ------------------------------------------------------ serialization

    def to_bytes(self):
        """Serialize to the versioned, CRC-protected binary format."""
        body = bytearray()
        body += array("B", self.kinds).tobytes()
        body += array("I", self.a).tobytes()
        body += array("I", self.b).tobytes()
        for boundary in self.boundaries:
            body += _pack_boundary(boundary)
        header = struct.pack(
            "<4sIIIIQBxxxQII",
            _TRACE_MAGIC, TRACE_SCHEMA_VERSION, self.stride,
            self.block_shift, self.tq_bits, self.total,
            1 if self.halted else 0, len(self.kinds),
            len(self.boundaries), len(self.fingerprint.encode()),
        )
        fp = self.fingerprint.encode()
        return header + fp + struct.pack("<I", zlib.crc32(bytes(body))) + body

    @classmethod
    def from_bytes(cls, raw):
        """Deserialize; raises :class:`TraceFormatError` on any damage.

        *raw* may be any buffer — a ``bytes`` read or an ``mmap``.  All
        views into it are released before returning or raising, so an
        mmap-backed caller can always close its map (a view trapped in
        an exception traceback would otherwise pin the buffer open).
        """
        view = memoryview(raw)
        body = None
        try:
            head_size = struct.calcsize("<4sIIIIQBxxxQII")
            if len(view) < head_size:
                raise TraceFormatError("trace file shorter than its header")
            (magic, version, stride, block_shift, tq_bits, total, halted,
             n_events, n_boundaries, fp_len) = struct.unpack_from(
                "<4sIIIIQBxxxQII", view, 0
            )
            if magic != _TRACE_MAGIC:
                raise TraceFormatError("bad trace magic %r" % (bytes(magic),))
            if version != TRACE_SCHEMA_VERSION:
                raise TraceFormatError(
                    "trace schema v%d is not the supported v%d"
                    % (version, TRACE_SCHEMA_VERSION)
                )
            cursor = head_size
            try:
                fingerprint = bytes(view[cursor:cursor + fp_len]).decode()
                cursor += fp_len
                (crc,) = struct.unpack_from("<I", view, cursor)
                cursor += 4
                body = view[cursor:]
                if zlib.crc32(bytes(body)) != crc:
                    raise TraceFormatError("trace body CRC mismatch")
                kinds = array("B")
                kinds.frombytes(body[:n_events])
                at = n_events
                a = array("I")
                a.frombytes(body[at:at + 4 * n_events])
                at += 4 * n_events
                b = array("I")
                b.frombytes(body[at:at + 4 * n_events])
                at += 4 * n_events
                boundaries = []
                for _ in range(n_boundaries):
                    boundary, at = _unpack_boundary(body, at)
                    boundaries.append(boundary)
            except (struct.error, ValueError) as exc:
                if isinstance(exc, TraceFormatError):
                    raise
                raise TraceFormatError(
                    "truncated trace body: %s" % exc) from exc
            if (len(kinds) != n_events or len(a) != n_events
                    or len(b) != n_events):
                raise TraceFormatError("trace event arrays are truncated")
            if not boundaries:
                raise TraceFormatError("trace holds no boundaries")
        finally:
            if body is not None:
                body.release()
            view.release()
        return cls(
            fingerprint, stride, block_shift, tq_bits, kinds, a, b,
            total, bool(halted), boundaries,
        )


def _pack_boundary(boundary):
    out = bytearray()
    out += struct.pack(
        "<QQqQQB3x", boundary.position, boundary.offset,
        boundary.prev_block, boundary.pc, boundary.tcr,
        1 if boundary.halted else 0,
    )
    out += array("I", boundary.regs).tobytes()
    bq_entries, bq_pushes, bq_pops, bq_mark = boundary.bq
    out += struct.pack(
        "<QQqI", bq_pushes, bq_pops,
        -1 if bq_mark is None else bq_mark, len(bq_entries),
    )
    out += array("B", bq_entries).tobytes()
    vq_entries, vq_pushes, vq_pops = boundary.vq
    out += struct.pack("<QQI", vq_pushes, vq_pops, len(vq_entries))
    out += array("I", vq_entries).tobytes()
    tq_entries, tq_pushes, tq_pops = boundary.tq
    out += struct.pack("<QQI", tq_pushes, tq_pops, len(tq_entries))
    out += array("I", tq_entries).tobytes()
    delta = boundary.mem_delta
    out += struct.pack("<I", len(delta))
    flat = array("I")
    for addr in sorted(delta):
        flat.append(addr)
        flat.append(delta[addr])
    out += flat.tobytes()
    return bytes(out)


def _unpack_boundary(view, at):
    (position, offset, prev_block, pc, tcr, halted) = struct.unpack_from(
        "<QQqQQB3x", view, at
    )
    at += struct.calcsize("<QQqQQB3x")
    regs = array("I")
    regs.frombytes(view[at:at + 4 * 32])
    if len(regs) != 32:
        raise TraceFormatError("truncated boundary register image")
    at += 4 * 32
    bq_pushes, bq_pops, bq_mark, n = struct.unpack_from("<QQqI", view, at)
    at += struct.calcsize("<QQqI")
    bq_entries = array("B")
    bq_entries.frombytes(view[at:at + n])
    at += n
    bq = (tuple(bq_entries), bq_pushes, bq_pops,
          None if bq_mark < 0 else bq_mark)
    vq_pushes, vq_pops, n = struct.unpack_from("<QQI", view, at)
    at += struct.calcsize("<QQI")
    vq_entries = array("I")
    vq_entries.frombytes(view[at:at + 4 * n])
    at += 4 * n
    vq = (tuple(vq_entries), vq_pushes, vq_pops)
    tq_pushes, tq_pops, n = struct.unpack_from("<QQI", view, at)
    at += struct.calcsize("<QQI")
    tq_entries = array("I")
    tq_entries.frombytes(view[at:at + 4 * n])
    at += 4 * n
    tq = (tuple(tq_entries), tq_pushes, tq_pops)
    (n,) = struct.unpack_from("<I", view, at)
    at += 4
    flat = array("I")
    flat.frombytes(view[at:at + 8 * n])
    at += 8 * n
    delta = dict(zip(flat[0::2], flat[1::2]))
    if len(delta) != n:
        raise TraceFormatError("truncated boundary memory delta")
    return _Boundary(
        position, offset, prev_block, pc, tcr, bool(halted),
        tuple(regs), bq, vq, tq, delta,
    ), at


def record_warm_trace(pipeline, limit, positions=(), snapshot_positions=()):
    """Functionally pre-execute up to *limit* instructions, recording the
    warm-mode event stream.

    The recorder runs a throwaway :class:`FunctionalExecutor` (the
    pipeline is untouched) and emits exactly the side-effect schedule
    :func:`warm_advance` would apply — I-cache block accesses (with the
    taken-transfer reset), data accesses, predictor-trained and
    oracle-covered branches, RAS pushes/pops, BTB installs.  *positions*
    mark instruction indices whose event offsets the caller needs;
    *snapshot_positions* (a subset semantically, merged automatically)
    additionally capture a deep architectural-state copy, which a
    sampled run adopts to teleport its checker across a warm gap.
    Positions past the halt point are silently absent from the result.

    Implemented as :func:`record_portable_trace` +
    :meth:`PortableWarmTrace.materialize` — there is exactly one event
    scanner in the codebase, so the direct path and the trace-store path
    produce identical results by construction.
    """
    trace = record_portable_trace(pipeline, limit)
    return trace.materialize(pipeline, limit, positions, snapshot_positions)


def replay_warm_events(pipeline, trace, start, end):
    """Apply recorded warm events ``[start, end)`` to *pipeline*'s warm
    state (predictors, confidence, BTB, RAS, caches, oracle cursors).

    This is the fast half of a warm gap: the architectural state does
    not advance here — the caller teleports the checker to the matching
    pre-scan snapshot afterwards (:meth:`Pipeline.restore_committed_state`).
    The training side effects are exactly those of :func:`warm_advance`
    over the same instructions.
    """
    kinds = trace.kinds
    a_list = trace.a
    b_list = trace.b
    predictor = pipeline.predictor
    confidence = pipeline.confidence
    btb = pipeline.btb
    ras = pipeline.ras
    memory = pipeline.memory
    oracle = pipeline.oracle
    train = predictor.train
    spec_update = predictor.speculative_update
    conf_spec = confidence.speculative_update
    conf_update = confidence.update
    install = btb.install
    access_data = memory.access_data
    access_inst = memory.access_inst
    oracle_predict = oracle.predict if oracle is not None else None
    i = start
    while i < end:
        kind = kinds[i]
        if kind == _E_ICACHE:
            access_inst(a_list[i])
        elif kind == _E_LOAD:
            access_data(b_list[i], False, a_list[i])
        elif kind == _E_STORE:
            access_data(b_list[i], True, a_list[i])
        elif kind == _E_BR:
            pc = a_list[i]
            predicted = train(pc, False)
            conf_spec(False)
            conf_update(pc, not predicted)
        elif kind == _E_BR_T:
            pc = a_list[i]
            predicted = train(pc, True)
            conf_spec(True)
            conf_update(pc, predicted)
            install(pc, b_list[i])
        elif kind == _E_ORACLE:
            pc = a_list[i]
            predicted = oracle_predict(pc)
            spec_update(pc, False)
            conf_spec(False)
            conf_update(pc, not predicted)
        elif kind == _E_ORACLE_T:
            pc = a_list[i]
            predicted = oracle_predict(pc)
            spec_update(pc, True)
            conf_spec(True)
            conf_update(pc, predicted)
            install(pc, b_list[i])
        elif kind == _E_CFD_T or kind == _E_JUMP:
            install(a_list[i], b_list[i])
        elif kind == _E_JAL_LINK:
            pc = a_list[i]
            ras.push(pc + 1)
            install(pc, b_list[i])
        else:  # _E_JALR_RET
            ras.pop()
            install(a_list[i], b_list[i])
        i += 1
