"""Whole-trace block replay inside the compiled kernel.

The batch entry point (:meth:`~repro.core.smc.SMC.service_pending_kernel`)
still marshals the controller state across the FFI boundary once per
gate; on dependent-load streams the gates are singleton batches and the
marshalling dominates.  This driver removes it: for an eligible
single-core block trace — ``run_trace``, or ``run_cores`` with one core,
on one channel or on a :class:`~repro.core.channels.ChannelSet` — the
*entire* replay runs resident in C: the
``Processor._execute_burst_blocks`` loop, the engine's gate closure, the
channel routing, every channel's critical-mode episodes with their
scheduler state, refresh interleave, and the event-queue bookkeeping.
Python is re-entered once per :class:`~repro.cpu.blocks.AccessBlock`
(thousands of accesses) only to flush logs (and to run the cache model
when it cannot be lifted), and the controller objects are loaded/stored
exactly once per trace.  The cache is not: each hierarchy's
:class:`CacheMirror` stays resident between traces and owns the set
contents, so a trace reloads only the LRU ticks and per-level stats;
the full per-set copy runs on the hierarchy's first replay and after
Python code took the lists back.

On a multi-channel topology each channel keeps its own controller table;
channel 0's :class:`~repro.dram.kernel.state.KernelState` doubles as the
trace context that owns the shared state (processor counters, pending
and MLP-window buffers, event heap, cache, time-scaling counters).

Eligibility is the batch kernel's structural gate on every channel plus
the block-replay extras (compiled backend, no prefetcher, the mapper's
own channel hook, clean MLP window, one scheduler object per channel);
any miss records ``smc.kernel_fallback_reason`` (the façade's own on a
``ChannelSet``) and the caller falls back to the Python gate closure —
bit-identical either way.
"""

from __future__ import annotations

import ctypes
import functools
import itertools

import numpy as np

from repro.core.events import EventKind
from repro.cpu.cache import _SET_STATE
from repro.dram.kernel.state import (
    CFG_FIELDS, KERN_OK, KERR_DEADLOCK, KERR_DECODE_RANGE, PTR_FIELDS, Cfg,
    Ptr, St, TBL_STRIDE, VIOL_STRIDE, WRHIT_STRIDE, scratch,
)

#: Event-heap headroom (entries) per block on top of the worst-case
#: release pushes: covers every refresh deadline a block could span.
_HEAP_SLACK = 4096


def _arr(n: int):
    return np.zeros(n, dtype=np.int64)


def _grow_keep(arr, need: int):
    """``arr`` grown to at least ``need`` slots, contents preserved."""
    if arr.shape[0] >= need:
        return arr
    new = scratch(max(64, 2 * need))
    new[:arr.shape[0]] = arr
    return new


#: A mirror's arrays per level: way state ``[set * assoc]``, then per set.
_MIRROR_ARRAYS = tuple(f"{prefix}_{name}" for prefix in ("c1", "c2")
                       for name in ("tags", "dirty", "stamps", "count", "mru"))


class CacheMirror:
    """A :class:`~repro.cpu.cache.CacheHierarchy`'s sets in kernel layout.

    Padded ``[set * assoc]`` tags, dirty bits and LRU stamps with a
    live-way count and MRU slot per set (slots past the count are never
    read, so they stay stale).  Allocated on the hierarchy's first block
    replay and kept for its lifetime; the trace context's ``c1_*``/
    ``c2_*`` slots point here.  Either the mirror or the levels' per-set
    lists own the contents, never both: :meth:`own` drops the lists, and
    :meth:`materialize` rebuilds them the first time Python code reads
    one (``Cache.__getattr__``).
    """

    def __init__(self, hier, backend) -> None:
        self.levels = (hier.l1, hier.l2)
        self.cfg = _arr(len(CFG_FIELDS))
        for prefix, level, sets_slot, assoc_slot in (
                ("c1", hier.l1, Cfg.C1_SETS, Cfg.C1_ASSOC),
                ("c2", hier.l2, Cfg.C2_SETS, Cfg.C2_ASSOC)):
            for name in ("tags", "dirty", "stamps"):
                setattr(self, f"{prefix}_{name}",
                        _arr(level.num_sets * level.assoc))
            for name in ("count", "mru"):
                setattr(self, f"{prefix}_{name}", _arr(level.num_sets))
            self.cfg[sets_slot] = level.num_sets
            self.cfg[assoc_slot] = level.assoc
        p64 = ctypes.POINTER(ctypes.c_int64)
        self._table = (p64 * len(PTR_FIELDS))()   # unused slots stay NULL
        for name in ("cfg",) + _MIRROR_ARRAYS:
            self._table[getattr(Ptr, name.upper())] = \
                getattr(self, name).ctypes.data_as(p64)
        #: CLFLUSH of one line address in the arrays (``repro_cache_flush``):
        #: bits 0/1 are L1 present/dirty, bits 2/3 the same for L2.
        self.flush = functools.partial(backend.cache_flush,
                                       ctypes.addressof(self._table))

    def own(self) -> None:
        """Take the set contents over from the levels' per-set lists.

        Copies every set unless the mirror owns them already, then drops
        the lists: the kernel's first write makes them stale.
        """
        if self.levels[0]._owner is self:
            return
        for prefix, level in zip(("c1", "c2"), self.levels):
            assoc = level.assoc
            tags = getattr(self, prefix + "_tags")
            dirty = getattr(self, prefix + "_dirty")
            stamps = getattr(self, prefix + "_stamps")
            for s, ways in enumerate(level._tags):
                if ways:
                    base = s * assoc
                    c = len(ways)
                    tags[base:base + c] = ways
                    dirty[base:base + c] = level._dirty[s]
                    stamps[base:base + c] = level._stamps[s]
            getattr(self, prefix + "_count")[:] = [
                len(ways) for ways in level._tags]
            getattr(self, prefix + "_mru")[:] = level._mru
        for level in self.levels:
            for name in _SET_STATE:
                del level.__dict__[name]
            level._owner = self

    def materialize(self) -> None:
        """Rebuild both levels' per-set lists and hand them back."""
        for prefix, level in zip(("c1", "c2"), self.levels):
            assoc = level.assoc
            tags = getattr(self, prefix + "_tags").tolist()
            dirty = getattr(self, prefix + "_dirty").tolist()
            stamps = getattr(self, prefix + "_stamps").tolist()
            count = getattr(self, prefix + "_count").tolist()
            level._tags = [tags[s * assoc:s * assoc + c]
                           for s, c in enumerate(count)]
            level._dirty = [[bool(d) for d in dirty[s * assoc:s * assoc + c]]
                            for s, c in enumerate(count)]
            level._stamps = [stamps[s * assoc:s * assoc + c]
                             for s, c in enumerate(count)]
            level._mru = getattr(self, prefix + "_mru").tolist()
            level._owner = None


def _load_cache(ks, hier, backend) -> None:
    """Point the trace context at ``hier``'s mirror, owning its sets.

    The full per-set copy runs only when Python owns the lists: on the
    hierarchy's first replay, or after Python code took them back.  A
    trace that follows a trace, a technique episode or a CLFLUSH (which
    evicts in the mirror) loads only the LRU ticks and per-level stats.
    """
    mirror = hier._kernel_mirror
    if mirror is None:
        mirror = hier._kernel_mirror = CacheMirror(hier, backend)
    mirror.own()
    cfg = ks.cfg
    st = ks.st
    l1, l2 = hier.l1, hier.l2
    cfg[Cfg.C1_SETS] = l1.num_sets
    cfg[Cfg.C1_ASSOC] = l1.assoc
    cfg[Cfg.C1_HIT] = l1.hit_latency
    cfg[Cfg.C2_SETS] = l2.num_sets
    cfg[Cfg.C2_ASSOC] = l2.assoc
    cfg[Cfg.C2_HIT12] = l1.hit_latency + l2.hit_latency
    cfg[Cfg.C_MISS_LAT] = l1.hit_latency + hier.memory_fill_latency
    cfg[Cfg.C_LINE_BYTES] = hier.line_bytes
    for name in _MIRROR_ARRAYS:
        setattr(ks, name, getattr(mirror, name))
    st[St.C1_TICK] = l1._tick
    st[St.C2_TICK] = l2._tick
    st[St.C1_HITS] = l1.stats.hits
    st[St.C1_MISSES] = l1.stats.misses
    st[St.C1_WB] = l1.stats.writebacks
    st[St.C2_HITS] = l2.stats.hits
    st[St.C2_MISSES] = l2.stats.misses
    st[St.C2_WB] = l2.stats.writebacks
    ks._ptr_table = None


def _store_cache(ks, hier) -> None:
    """Write the LRU ticks and per-level stats back to the levels.

    The set contents stay in the mirror, which owns them until Python
    code reads the lists (see :class:`CacheMirror`).
    """
    st = ks.st
    l1, l2 = hier.l1, hier.l2
    l1._tick = int(st[St.C1_TICK])
    l2._tick = int(st[St.C2_TICK])
    l1.stats.hits = int(st[St.C1_HITS])
    l1.stats.misses = int(st[St.C1_MISSES])
    l1.stats.writebacks = int(st[St.C1_WB])
    l2.stats.hits = int(st[St.C2_HITS])
    l2.stats.misses = int(st[St.C2_MISSES])
    l2.stats.writebacks = int(st[St.C2_WB])


def _eligible(proc, smcs: list) -> str | None:
    """Why this trace cannot replay in the kernel, or ``None``."""
    schedulers = [ctl._scheduler for ctl in smcs]
    if (len({id(s) for s in schedulers}) < len(smcs)
            and any(s.stateful for s in schedulers)):
        return "stateful scheduler shared across channels"
    for ctl in smcs:
        ks = ctl._kernel_state if ctl._kernel_resolved \
            else ctl._kernel_resolve()
        if ks is None:
            return ctl.kernel_fallback_reason
        if getattr(ctl._kernel_backend, "run_block", None) is None:
            return ("pure-Python backend (block replay needs the compiled"
                    " kernel)")
        if ctl.serve_hook is not None:
            return "technique episode (serve hook)"
        if ctl.tile.has_requests or len(ctl.api.program):
            return "staged tile state pending"
    if proc.prefetcher is not None:
        return "stream prefetcher installed"
    hook = proc.channel_hook
    if hook is not None and (len(smcs) == 1
                             or hook != smcs[0]._mapper.channel_of):
        return "multi-channel request routing"
    if proc.outstanding:
        return "MLP window not drained at trace start"
    return None


def run_gated_kernel(engine, session, proc, smc) -> bool:
    """Replay ``proc``'s fed block trace to completion in the kernel.

    ``smc`` is the session's controller: one
    :class:`~repro.core.smc.SoftwareMemoryController` or the
    multi-channel :class:`~repro.core.channels.ChannelSet` façade.
    Returns ``False`` (nothing touched, reason recorded) when
    ineligible; the caller then runs the Python gate closure.  On
    ``True`` the processor is done and every side effect of the Python
    path — controller state, stats, event queue, request latencies —
    has been applied.
    """
    smcs = getattr(smc, "smcs", None) or [smc]   # per-channel controllers
    reason = _eligible(proc, smcs)
    if reason is not None:
        smc.kernel_fallback_reason = reason
        return False
    states = [ctl._kernel_state for ctl in smcs]
    nch = len(states)
    ks = states[0]             # the trace context
    backend = smcs[0]._kernel_backend
    st = ks.st
    cfg = ks.cfg
    mlp = int(cfg[Cfg.MLP])

    for index, (ctl, state) in enumerate(zip(smcs, states)):
        if len(ctl._device._rows) != int(state.st[St.NMAT]):
            state.refresh_materialized()
        state.load(counters=index == 0)
    st[St.NCH] = nch
    if nch > 1 and ks.chan_tables.shape[0] != nch:
        ks.chan_tables = _arr(nch)
        ks._ptr_table = None

    # -- trace-level slots the marshaller does not own -----------------------
    if ks.out_tag.shape[0] < mlp + 2:
        for name in ("out_tag", "out_issue", "out_release", "out_rid"):
            setattr(ks, name, scratch(mlp + 2))
        ks._ptr_table = None
    # Every channel's refresh deadlines push onto the one event heap.
    slack = nch * _HEAP_SLACK
    queue = engine.queue
    heap_len = len(queue._heap)
    if ks.heap.shape[0] < 4 * (heap_len + slack):
        ks.heap = scratch(4 * (heap_len + 2 * slack))
        ks._ptr_table = None
    heap = ks.heap
    for i, (time, seq, kind, payload) in enumerate(queue._heap):
        base = 4 * i
        heap[base] = time
        heap[base + 1] = seq
        heap[base + 2] = int(kind)
        heap[base + 3] = payload
    st[St.HEAP_LEN] = heap_len
    st[St.QSEQ] = queue._seq
    st[St.PEND_COUNT] = 0
    st[St.OUT_COUNT] = 0
    st[St.LAT_COUNT] = 0
    st[St.DONE] = 0
    st[St.POS] = 0
    st[St.WB_PTR] = 0
    for slot in (St.E_GATES, St.E_RELEASES, St.E_REFRESHES, St.E_BATCHED,
                 St.E_SKIPPED):
        st[slot] = 0
    # The consumed id becomes the first kernel-issued rid; the counter is
    # re-anchored from NEXT_RID after the run, so numbering is seamless.
    st[St.NEXT_RID] = next(proc._rid)
    stats = proc.stats
    st[St.P_CYCLES] = proc.cycles
    st[St.P_ACCESSES] = stats.accesses
    st[St.P_LOADS] = stats.loads
    st[St.P_STORES] = stats.stores
    st[St.P_COMPUTE] = stats.compute_cycles
    st[St.P_STALLS] = stats.stall_cycles
    st[St.P_LLC_MISS] = stats.llc_miss_requests
    st[St.P_WB_REQ] = stats.writeback_requests

    # Resident cache filter: the standard two-level hierarchy runs
    # inside run_block itself (no Python cache scan, no decode-memo
    # prime — the kernel decodes directly).  A subclassed hierarchy
    # keeps the Python filter per block, as does a strict address map
    # whose trace actually goes out of range: the Python path names
    # the prime batch's worst offender, not the first, so the error
    # case must replay through it.  In-range traces cannot differ —
    # a strict cache never holds an out-of-range line (its fill would
    # have raised at install time) — so one max/min scan settles it.
    from repro.cpu.cache import CacheHierarchy
    has_cache = type(proc.hierarchy) is CacheHierarchy
    blocks = proc._blocks
    mapper = smcs[0]._mapper
    if has_cache and mapper.strict:
        if not isinstance(blocks, (list, tuple)):
            blocks = list(blocks)   # the feed hands over a generator
            proc._blocks = blocks
        total = mapper._total_bytes
        for block in blocks:
            if block.addr and not 0 <= min(block.addr) <= max(
                    block.addr) < total:
                has_cache = False
                break
    st[St.HAS_CACHE] = 1 if has_cache else 0
    if has_cache:
        _load_cache(ks, proc.hierarchy, backend)

    run_block = backend.run_block
    finish_trace = backend.finish_trace
    access_block = proc.hierarchy.access_block
    latencies = stats.request_latencies

    def flush_logs() -> None:
        count = int(st[St.LAT_COUNT])
        if count:
            latencies.extend(ks.latencies[:count].tolist())
            st[St.LAT_COUNT] = 0
        for state in states:
            if int(state.st[St.VIOL_COUNT]):
                state.scatter_violations()
            if int(state.st[St.WRHIT_COUNT]):
                state.apply_wr_hits()

    err = KERN_OK
    for block in blocks:
        ks.blk_flags = np.asarray(block.flags, dtype=np.int64)
        ks.blk_gap = np.asarray(block.gap, dtype=np.int64)
        n = ks.blk_flags.shape[0]
        if has_cache:
            ks.blk_addr = np.asarray(block.addr, dtype=np.int64)
            if ks.blk_lat.shape[0] < n:
                ks.blk_lat = scratch(n)
                ks.blk_fill = scratch(n)
            # Worst case two writebacks per access (demand L2 eviction
            # plus the dirty-L1-victim fold's own eviction).
            if ks.blk_wbidx.shape[0] < 2 * n + 2:
                ks.blk_wbidx = scratch(2 * n + 2)
                ks.blk_wbaddr = scratch(2 * n + 2)
            nwb = 2 * n + 2
        else:
            traffic = access_block(block.addr, block.flags)
            hook = proc.prime_hook
            if hook is not None and (traffic.n_fills or traffic.wb_addr):
                hook(traffic.fill_addr, traffic.wb_addr)
            ks.blk_lat = np.asarray(traffic.latency, dtype=np.int64)
            ks.blk_fill = np.asarray(traffic.fill_addr, dtype=np.int64)
            ks.blk_wbidx = np.asarray(traffic.wb_index, dtype=np.int64)
            ks.blk_wbaddr = np.asarray(traffic.wb_addr, dtype=np.int64)
            nwb = ks.blk_wbidx.shape[0]
        ks._ptr_table = None
        # Worst-case capacity for this block (overflow inside the kernel
        # is a hard error, never a silent drop).  Logs were flushed after
        # the previous call, so the ensure_* replacements are safe; the
        # pend buffer and heap carry live state and grow preservingly.
        carried = int(st[St.PEND_COUNT])
        created = carried + n + nwb
        if ks.pend_tag.shape[0] < created + 8:
            for name in ("pend_tag", "pend_addr", "pend_flags", "pend_rid",
                         "pend_release", "pend_chan"):
                setattr(ks, name, _grow_keep(getattr(ks, name), created + 8))
            ks._ptr_table = None
        pend_cap = ks.pend_tag.shape[0]
        for index, state in enumerate(states):
            if nch > 1:        # the routed slices land in req_* per channel
                state.ensure_requests(pend_cap)
            state.ensure_table(pend_cap)
            state.ensure_viol(3 * (created + mlp) + 256)
            state.ensure_wrhit(created + mlp + 64)
            sst = state.st
            sst[St.TBL_CAP] = state.tbl.shape[0] // TBL_STRIDE
            sst[St.VIOL_CAP] = state.viol.shape[0] // VIOL_STRIDE
            sst[St.WRHIT_CAP] = state.wrhit.shape[0] // WRHIT_STRIDE
            if index:
                ks.chan_tables[index] = ctypes.addressof(
                    state.pointer_table())
        if ks.latencies.shape[0] < n + mlp + 8:
            ks.latencies = scratch(2 * (n + mlp + 8))
            ks._ptr_table = None
        heap_need = 4 * (int(st[St.HEAP_LEN]) + created + slack)
        if ks.heap.shape[0] < heap_need:
            ks.heap = _grow_keep(ks.heap, heap_need)
            ks._ptr_table = None
        st[St.PEND_CAP] = pend_cap
        st[St.LAT_CAP] = ks.latencies.shape[0]
        st[St.HEAP_CAP] = ks.heap.shape[0] // 4
        st[St.BLK_N] = n
        st[St.BLK_NWB] = nwb
        st[St.POS] = 0
        st[St.WB_PTR] = 0
        err = int(run_block(ks.pointer_table()))
        flush_logs()
        if err != KERN_OK:
            break
    if err == KERN_OK:
        err = int(finish_trace(ks.pointer_table()))
        flush_logs()

    # -- write everything back (best effort even on error) -------------------
    for index, state in enumerate(states):
        state.store(counters=index == 0)
    if has_cache:
        _store_cache(ks, proc.hierarchy)
    estats = engine.stats
    estats.gates += int(st[St.E_GATES])
    estats.releases += int(st[St.E_RELEASES])
    estats.refreshes += int(st[St.E_REFRESHES])
    estats.batched_episodes += int(st[St.E_BATCHED])
    estats.events_skipped += int(st[St.E_SKIPPED])
    heap_len = int(st[St.HEAP_LEN])
    heap = ks.heap
    queue._heap = [
        (int(heap[4 * i]), int(heap[4 * i + 1]),
         EventKind(int(heap[4 * i + 2])), int(heap[4 * i + 3]))
        for i in range(heap_len)
    ]
    queue._seq = int(st[St.QSEQ])
    proc.cycles = int(st[St.P_CYCLES])
    stats.accesses = int(st[St.P_ACCESSES])
    stats.loads = int(st[St.P_LOADS])
    stats.stores = int(st[St.P_STORES])
    stats.compute_cycles = int(st[St.P_COMPUTE])
    stats.stall_cycles = int(st[St.P_STALLS])
    stats.llc_miss_requests = int(st[St.P_LLC_MISS])
    stats.writeback_requests = int(st[St.P_WB_REQ])
    proc._rid = itertools.count(int(st[St.NEXT_RID]))
    proc._cur = None
    proc._pos = int(st[St.POS])
    proc._wb_ptr = int(st[St.WB_PTR])
    proc.outstanding.clear()
    for state in states:
        state.release_trace_buffers()

    if err == KERR_DEADLOCK:
        from repro.core.engine import EmulationDeadlock
        raise EmulationDeadlock(
            "processor blocked with no pending memory requests")
    if err == KERR_DECODE_RANGE:
        mapper._check_range(int(st[St.ERR_ADDR]))
        raise AssertionError("decode error did not reproduce")
    if err != KERN_OK:
        raise RuntimeError(f"block kernel failed with error {err}")
    proc._done = True
    return True
