"""TAGE and ISL-TAGE (TAGE + loop predictor + statistical corrector).

The paper's baseline predictor is 64 KB ISL-TAGE, winner of CBP3.  This is
a faithful-in-structure reimplementation at model scale: a bimodal base
table, geometrically spaced tagged tables with usefulness counters and the
standard allocation/aging policy, the ``use_alt_on_na`` newly-allocated
filter, a loop predictor, and a small statistical corrector that can veto
low-confidence TAGE predictions.

Global history is an integer bit-vector updated speculatively at fetch and
repaired from checkpoints on mispredictions (see
:class:`~repro.branch.base.BranchPredictor`).

State layout
------------
All table state is flat lists of ints, one list per field:

* ``_tags``/``_ctrs``/``_useful`` hold the tagged tables back to back;
  entry *i* of table *t* sits at ``(t << table_bits) | i``.  Counters
  are signed (-4..3, >= 0 means taken); useful counters are 0..3.
* ``_base`` is the 2-bit bimodal base table.
* ``_regs`` are the incrementally folded histories (the hardware CSR
  trick), one register per distinct (history length, fold width) pair.
  With ``table_bits=10, tag_bits=11`` a table's index fold and its
  (tag - 1) fold are the same fold, so six tables need 12 registers.
* ISL-TAGE adds the corrector tables ``_sc`` (back to back, like the
  tagged tables) and the loop table ``_loop_tag``/``_loop_past``/
  ``_loop_cur``/``_loop_conf``/``_loop_age`` (tag -1 marks an empty slot).

Kernels
-------
``predict``, ``update``, ``speculative_update`` and ``train`` run once
per branch, so they are straight-line code: every table unrolled, every
saturating counter inlined, every fold register a local.  They are
compiled once per geometry (:func:`_kernel_source`) into a subclass of
the predictor class, of the same name (:func:`_kernel_class`), and
``__init__`` moves each instance into its geometry's subclass.  They
close over no state and hold no reference to an instance, so a
predictor is freed as soon as it is dropped, and it deep-copies and
pickles through ``__reduce__``.
The prediction *meta* handed from ``predict`` to ``update`` is a flat
tuple of the flat indices, tags and prediction-time outcomes.
"""

from repro.branch.base import BranchPredictor, HistorySnapshot

_DEFAULT_HISTORY_LENGTHS = (4, 8, 16, 32, 64, 128)

#: The methods compiled per geometry.
_KERNEL_METHODS = ("predict", "update", "speculative_update", "train")

#: ``{geometry: class}``: the predictor class with that geometry's
#: compiled kernels as its methods.
_CLASSES = {}


def _fold(history, in_bits, out_bits):
    """XOR-fold the low *in_bits* of *history* down to *out_bits*.

    The result is the XOR of consecutive *out_bits*-wide chunks.  Chunk
    folding is associative — folding by any multiple of *out_bits* first
    and then by *out_bits* XORs the same chunks — so we halve the chunk
    count each round (log passes) instead of peeling one chunk at a time.
    """
    if out_bits <= 0:
        return 0
    history &= (1 << in_bits) - 1
    while in_bits > out_bits:
        chunks = (in_bits + out_bits - 1) // out_bits
        half = (chunks + 1) // 2 * out_bits
        history = (history ^ (history >> half)) & ((1 << half) - 1)
        in_bits = half
    return history


def _fold_registers(geometry):
    """The distinct (length, width) fold registers of *geometry*, and the
    register expression of each table's index, tag and (tag - 1) fold
    (``"0"`` for a zero-width fold)."""
    kind, table_bits, tag_bits, lengths, _period = geometry
    regs = []

    def reg(length, bits):
        if bits <= 0:
            return "0"
        if (length, bits) not in regs:
            regs.append((length, bits))
        return "r%d" % regs.index((length, bits))

    folds = [(reg(length, table_bits), reg(length, tag_bits),
              reg(length, tag_bits - 1)) for length in lengths]
    sc = ()
    if kind == "isl":
        sc = tuple(reg(h, ISLTAGEPredictor.SC_TABLE_BITS) if h else None
                   for h in ISLTAGEPredictor.SC_HISTORY)
    return tuple(regs), folds, sc


def _kernel_source(geometry):
    """``{name: Python source}`` of the hot methods of one geometry, plus
    ``tage_meta``, the TAGE scan that ``update`` runs without a meta."""
    kind, table_bits, tag_bits, lengths, period = geometry
    regs, folds, sc_regs = _fold_registers(geometry)
    tables = len(lengths)
    index_mask = (1 << table_bits) - 1
    tag_mask = (1 << tag_bits) - 1
    isl = kind == "isl"
    consts = ISLTAGEPredictor  # corrector and loop-table constants
    idx = ["i%d" % t for t in range(tables)]
    tag = ["g%d" % t for t in range(tables)]
    tage_meta = idx + tag + ["pt", "pi", "ai", "bi", "ppred", "apred",
                             "weak", "tpred"]
    sc = ["s%d" % k for k in range(len(sc_regs))]
    isl_meta = ["used", "lpred"] + sc if isl else []
    unpack = "%s, = self._regs" % ", ".join("r%d" % r for r in range(len(regs)))

    def ctr(name, at, lo, hi):
        """Saturating +1/-1 of ``name[at]`` toward the outcome."""
        return [
            "v = %s[%s]" % (name, at),
            "if taken:",
            "    if v < %d:" % hi,
            "        %s[%s] = v + 1" % (name, at),
            "elif v > %d:" % lo,
            "    %s[%s] = v - 1" % (name, at),
        ]

    def scan():
        """Index/tag computation, provider search and the TAGE prediction.

        A fold register is narrower than the field it is XORed into, so
        the per-PC part of every index (``PARTS``, memoized per PC) and
        of every tag (``pc`` masked) can be masked before the XOR.
        """
        out = [unpack, "TG = self._tags", "C = self._ctrs", "B = self._base",
               "q = PARTS.get(pc)",
               "if q is None:",
               "    q = PARTS[pc] = (%s,)" % ", ".join(
                   "((pc ^ (pc >> %d)) & %d) | %d"
                   % (t + 1, index_mask, t << table_bits)
                   for t in range(tables)),
               "%s, = q" % ", ".join("q%d" % t for t in range(tables)),
               "pm = pc & %d" % tag_mask]
        for t, (fi, fg, fg2) in enumerate(folds):
            out.append("i%d = q%d ^ %s" % (t, t, fi))
            out.append("g%d = pm ^ %s ^ (%s << 1)" % (t, fg, fg2))
        # Provider: the longest-history hit; alternate: the next hit below.
        out.append("ai = -1")
        for t in range(tables - 1, -1, -1):
            out.append("%s TG[i%d] == g%d:" % ("if" if t == tables - 1
                                                else "elif", t, t))
            out.append("    pt = %d" % t)
            out.append("    pi = i%d" % t)
            for a in range(t - 1, -1, -1):
                out.append("    %s TG[i%d] == g%d:" % ("if" if a == t - 1
                                                        else "elif", a, a))
                out.append("        ai = i%d" % a)
        out += [
            "else:",
            "    pt = pi = -1",
            "bi = pc & 8191",
            "bpred = B[bi] >= 2",
            "if pi >= 0:",
            "    v = C[pi]",
            "    ppred = v >= 0",
            "    apred = C[ai] >= 0 if ai >= 0 else bpred",
            "    weak = v == 0 or v == -1",
            "    tpred = apred if weak and self._use_alt_on_na >= 8 else ppred",
            "else:",
            "    ppred = apred = tpred = bpred",
            "    weak = False",
        ]
        return out

    def tage_update():
        """Train the provider/alternate/base, allocate on a misprediction
        and age the useful counters (needs the scan's locals)."""
        base = ctr("B", "bi", 0, 3)
        return [
            "n = self._update_count + 1",
            "self._update_count = n",
            "if pi >= 0:",
            "    if weak and ppred != apred:",
            "        u = self._use_alt_on_na",
            "        if apred == taken:",
            "            if u < 15:",
            "                self._use_alt_on_na = u + 1",
            "        elif u > 0:",
            "            self._use_alt_on_na = u - 1",
            *["    " + line for line in ctr("C", "pi", -4, 3)],
            "    U = self._useful",
            "    u = U[pi]",
            "    if ppred != apred:",
            "        if ppred == taken:",
            "            if u < 3:",
            "                U[pi] = u = u + 1",
            "        elif u > 0:",
            "            U[pi] = u = u - 1",
            "    if u == 0:",  # newly allocated provider: train the alternate
            "        if ai >= 0:",
            *["            " + line for line in ctr("C", "ai", -4, 3)],
            "        else:",
            *["            " + line for line in base],
            "else:",
            *["    " + line for line in base],
            "if tpred != taken:",
            "    self._allocate(pt + 1, (%s,), (%s,), taken)"
            % (", ".join(idx), ", ".join(tag)),
            "if n %% %d == 0:" % period,
            "    self._age_useful()",
        ]

    def shift():
        """Shift the outcome into the history and every fold register.

        Each register rotates left within its width with the outcome
        XORed in (one lookup in ``ROT<width>_<outcome>``), and the history
        bit that left its window is cancelled at bit ``length % width``.
        """
        widths = sorted({bits for _, bits in regs})
        out = ["h = self._history", "if taken:", "    d = 1"]
        out += ["    W%d = ROT%d_1" % (bits, bits) for bits in widths]
        out += ["else:", "    d = 0"]
        out += ["    W%d = ROT%d_0" % (bits, bits) for bits in widths]
        leaving = {}
        for length, bits in regs:
            top = length % bits
            if (length, top) not in leaving:
                name = leaving[length, top] = "y%d_%d" % (length, top)
                move = length - 1 - top
                out.append("%s = (h %s %d) & %d" % (
                    name, ">>" if move >= 0 else "<<", abs(move), 1 << top))
        out.append("self._regs = [%s]" % ", ".join(
            "W%d[r%d] ^ %s" % (bits, r, leaving[length, length % bits])
            for r, (length, bits) in enumerate(regs)))
        out.append("self._history = ((h << 1) | d) & %d"
                   % ((1 << (lengths[-1] + 1)) - 1))
        return out

    def isl_predict():
        """Loop predictor, else the statistical corrector (vetoes weak
        TAGE predictions only); sets ``final`` and the ISL meta."""
        sc_bits = consts.SC_TABLE_BITS
        sc_mask = (1 << sc_bits) - 1
        terms = []
        for k, reg in enumerate(sc_regs):
            value = "pc" if reg is None else "(pc ^ %s)" % reg
            offset = " | %d" % (k << sc_bits) if k else ""
            terms.append("s%d = (%s & %d)%s" % (k, value, sc_mask, offset))
        return [
            *loop_index(),
            "if (self._loop_tag[li] == lt and self._loop_conf[li] >= %d"
            % consts.LOOP_CONFIDENT,
            "        and self._loop_trust >= 4):",
            "    used = True",
            "    lpred = final = self._loop_cur[li] < self._loop_past[li]",
            "    %s = -1" % " = ".join(sc),
            "else:",
            "    used = False",
            "    lpred = True",
            *["    " + term for term in terms],
            "    final = tpred",
            "    if weak:",
            "        S = self._sc",
            "        v = %s + (2 if tpred else -2)"
            % " + ".join("S[%s]" % s for s in sc),
            "        if v >= %d or v <= -%d:" % (consts.SC_THRESHOLD,
                                                 consts.SC_THRESHOLD),
            "            final = v >= 0",
        ]

    def isl_update():
        """Loop trust, loop table and corrector training (needs ``li``,
        ``lt`` and the ISL meta locals)."""
        return [
            "if used:",
            "    v = self._loop_trust",
            "    if lpred == taken:",
            "        if v < 7:",
            "            self._loop_trust = v + 1",
            "    else:",
            "        self._loop_trust = v - 2 if v > 2 else 0",
            *loop_update(),
            "if %s >= 0:" % sc[0],
            "    S = self._sc",
            *["    " + line for s in sc for line in ctr("S", s, -31, 31)],
        ]

    def loop_update():
        """One committed outcome into the loop table (``li``/``lt``)."""
        return [
            "LT = self._loop_tag",
            "LA = self._loop_age",
            "v = LT[li]",
            "if v != lt and v >= 0 and LA[li] > 1:",
            "    LA[li] -= 1",  # another loop's entry survives, one step older
            "else:",
            "    LC = self._loop_cur",
            "    LF = self._loop_conf",
            "    LP = self._loop_past",
            "    if v != lt:",
            "        LT[li] = lt",
            "        LP[li] = LC[li] = LF[li] = 0",
            "        LA[li] = 8",
            "    if taken:",
            "        v = LC[li] + 1",
            "        if v >= %d:" % consts.LOOP_MAX_ITER,
            "            LF[li] = LC[li] = 0",  # degenerate loop: give up
            "        else:",
            "            LC[li] = v",
            "    else:",
            "        v = LC[li]",
            "        if v == LP[li]:",
            "            if LF[li] < 7:",
            "                LF[li] += 1",
            "        else:",
            "            LF[li] = 0",
            "            LP[li] = v",
            "        LC[li] = 0",
            "        LA[li] = 8",
        ]

    def loop_index():
        return ["li = pc & %d" % ((1 << consts.LOOP_TABLE_BITS) - 1),
                "lt = (pc >> 2) & %d" % ((1 << consts.LOOP_TAG_BITS) - 1)]

    def body(lines, indent=1):
        return ["    " * indent + line for line in lines]

    def function(signature, lines):
        return "def %s:\n%s\n" % (signature, "\n".join(body(lines)))

    tage_locals = ", ".join(tage_meta)
    meta_locals = ", ".join(tage_meta + isl_meta)
    return {
        # The TAGE half of the meta, for an update that got none.
        "tage_meta": function("tage_meta(self, pc)",
                              scan() + ["return %s" % tage_locals]),
        "predict": function(
            "predict(self, pc)",
            scan() + (isl_predict() + ["return final, (%s)" % meta_locals]
                      if isl else ["return tpred, (%s)" % tage_locals])),
        "update": function("update(self, pc, taken, meta=None)", [
            "if meta is None:",
            *body((loop_index() + loop_update() if isl else [])
                  + ["%s = tage_meta(self, pc)" % tage_locals]),
            "else:",
            *body(["%s = meta" % meta_locals]
                  + (loop_index() + isl_update() if isl else [])),
            "C = self._ctrs",
            "B = self._base",
            *tage_update(),
        ]),
        "speculative_update": function("speculative_update(self, pc, taken)",
                                       [unpack] + shift()),
        "train": function(
            "train(self, pc, taken)",
            scan() + (isl_predict() + isl_update() if isl else [])
            + tage_update() + shift()
            + ["return %s" % ("final" if isl else "tpred")]),
    }


def _rotations(bits, outcome):
    """``table[f]``: the *bits*-wide fold *f* rotated left by one, with
    *outcome* XORed into bit 0."""
    mask = (1 << bits) - 1
    return [(((f << 1) | (f >> (bits - 1))) & mask) ^ outcome
            for f in range(1 << bits)]


def _kernel_class(geometry):
    """The predictor class of *geometry*: a subclass of the plain class
    (same name) whose hot methods are that geometry's compiled kernels.

    The kernels' globals are the rotation tables of
    :func:`_kernel_source`'s shift and ``PARTS``, a per-PC memo of the
    PC's share of every table index (a pure function of the PC for this
    geometry).
    """
    cls = _CLASSES.get(geometry)
    if cls is None:
        kind, table_bits, tag_bits, lengths, period = geometry
        name = "<%s kernel table_bits=%d tag_bits=%d lengths=%s period=%d>" % (
            kind, table_bits, tag_bits, ",".join(map(str, lengths)), period)
        namespace = {"PARTS": {}}
        for _, bits in _fold_registers(geometry)[0]:
            for outcome in (0, 1):
                namespace["ROT%d_%d" % (bits, outcome)] = _rotations(
                    bits, outcome)
        # One compile per function keeps the parser's peak memory to
        # that of the largest function rather than of all of them.
        for source in _kernel_source(geometry).values():
            exec(compile(source, name, "exec"), namespace)
        base = ISLTAGEPredictor if kind == "isl" else TAGEPredictor
        methods = {method: namespace[method] for method in _KERNEL_METHODS}
        cls = _CLASSES[geometry] = type(base.__name__, (base,), dict(
            methods, __module__=base.__module__,
            __qualname__=base.__qualname__))
    return cls


def _rebuild(geometry):
    """An empty predictor of *geometry* (the unpickle/deepcopy hook)."""
    return object.__new__(_kernel_class(geometry))


class TAGEPredictor(BranchPredictor):
    """Plain TAGE (no loop predictor, no statistical corrector)."""

    name = "tage"
    _KIND = "tage"

    U_RESET_PERIOD = 1 << 18

    def __init__(self, table_bits=10, tag_bits=11,
                 history_lengths=_DEFAULT_HISTORY_LENGTHS,
                 u_reset_period=None):
        self.u_reset_period = u_reset_period or self.U_RESET_PERIOD
        self.table_bits = table_bits
        self.tag_bits = tag_bits
        self.history_lengths = tuple(history_lengths)
        self.num_tables = len(self.history_lengths)
        entries = self.num_tables << table_bits
        self._tags = [0] * entries
        self._ctrs = [0] * entries
        self._useful = [0] * entries
        self._base = [2] * (1 << 13)  # 2-bit bimodal base
        self._history = 0
        self._use_alt_on_na = 8  # 4-bit counter, >=8 means "use alt"
        self._update_count = 0
        self._alloc_tick = 0
        self._geometry = (self._KIND, table_bits, tag_bits,
                          self.history_lengths, self.u_reset_period)
        self._fold_params = _fold_registers(self._geometry)[0]
        self._regs = [0] * len(self._fold_params)  # folds of the empty history
        self.__class__ = _kernel_class(self._geometry)

    def __reduce__(self):
        # Rebuild through the geometry, and leave out any per-instance
        # wrapper of a kernel: it would still call the original.
        state = {key: value for key, value in self.__dict__.items()
                 if key not in _KERNEL_METHODS}
        return _rebuild, (self._geometry,), state

    # -- history management -------------------------------------------------

    def snapshot(self):
        return HistorySnapshot(self._history)

    def restore(self, snapshot):
        self._history = h = snapshot.payload
        self._regs = [_fold(h & ((1 << length) - 1), length, bits)
                      for length, bits in self._fold_params]

    # -- cold paths of the kernels ---------------------------------------------

    def _allocate(self, start, indices, tags, taken):
        """Allocate one entry above the provider (tables *start*..) on a
        misprediction; when every candidate is useful, age them instead."""
        count = self.num_tables - start
        if count <= 0:
            return
        # Deterministic pseudo-random start offset spreads allocations.
        self._alloc_tick = tick = (self._alloc_tick + 1) % 3
        offset = tick % count
        useful = self._useful
        for k in range(count):
            table = start + (offset + k) % count
            i = indices[table]
            if useful[i] == 0:
                self._tags[i] = tags[table]
                self._ctrs[i] = 0 if taken else -1
                return
        for table in range(start, self.num_tables):
            i = indices[table]
            if useful[i]:
                useful[i] -= 1

    def _age_useful(self):
        useful = self._useful
        useful[:] = [u >> 1 for u in useful]

    def stats(self):
        live = sum(1 for c, u in zip(self._ctrs, self._useful) if c or u)
        return {"tables": self.num_tables, "live_entries": live}


class ISLTAGEPredictor(TAGEPredictor):
    """TAGE + loop predictor + small statistical corrector (ISL-TAGE).

    The loop predictor is direct-mapped with small tags.  It tracks, per
    static branch, the trip count of regular loops and predicts the exit
    iteration once the count has been confirmed a few times; a confident
    loop prediction overrides TAGE while the loop-trust counter is high.
    The iteration counter advances at training (retire) time — a
    modelling simplification relative to the speculative iteration
    tracking of the CBP3 code, which only costs accuracy in the shadow of
    in-flight iterations.
    """

    name = "isl_tage"
    _KIND = "isl"

    SC_TABLE_BITS = 10
    SC_HISTORY = (0, 8, 21)
    SC_THRESHOLD = 6
    LOOP_TABLE_BITS = 8
    LOOP_TAG_BITS = 14
    LOOP_MAX_ITER = 1 << 14
    LOOP_CONFIDENT = 3

    def __init__(self, table_bits=10, tag_bits=11,
                 history_lengths=_DEFAULT_HISTORY_LENGTHS):
        loop_entries = 1 << self.LOOP_TABLE_BITS
        self._loop_tag = [-1] * loop_entries
        self._loop_past = [0] * loop_entries
        self._loop_cur = [0] * loop_entries
        self._loop_conf = [0] * loop_entries
        self._loop_age = [0] * loop_entries
        self._loop_trust = 4  # 0..7; >=4 means trust a confident loop pred
        self._sc = [0] * (len(self.SC_HISTORY) << self.SC_TABLE_BITS)
        super().__init__(table_bits, tag_bits, history_lengths)
