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
(thousands of accesses) only to run the cache model and to flush logs,
and the controller objects are loaded/stored exactly once per trace.

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
import itertools

import numpy as np

from repro.core.events import EventKind
from repro.dram.kernel.state import (
    KERN_OK, KERR_DEADLOCK, KERR_DECODE_RANGE, Cfg, St,
    TBL_STRIDE, VIOL_STRIDE, WRHIT_STRIDE, scratch,
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


def _load_cache(ks, hier) -> None:
    """Flatten the two cache levels into the kernel's way arrays.

    Padded ``[set * assoc]`` layout with a live-way count per set; slots
    past the count are never read by the kernel, so they stay stale.
    """
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
    for prefix, level, tick_slot in (("c1", l1, St.C1_TICK),
                                     ("c2", l2, St.C2_TICK)):
        sets, assoc = level.num_sets, level.assoc
        if getattr(ks, prefix + "_tags").shape[0] != sets * assoc:
            setattr(ks, prefix + "_tags", _arr(sets * assoc))
            setattr(ks, prefix + "_dirty", _arr(sets * assoc))
            setattr(ks, prefix + "_stamps", _arr(sets * assoc))
            setattr(ks, prefix + "_count", _arr(sets))
            setattr(ks, prefix + "_mru", _arr(sets))
        tags = getattr(ks, prefix + "_tags")
        dirty = getattr(ks, prefix + "_dirty")
        stamps = getattr(ks, prefix + "_stamps")
        count = getattr(ks, prefix + "_count")
        mru = getattr(ks, prefix + "_mru")
        for s, ways in enumerate(level._tags):
            c = len(ways)
            if c:
                base = s * assoc
                tags[base:base + c] = ways
                dirty[base:base + c] = level._dirty[s]
                stamps[base:base + c] = level._stamps[s]
            count[s] = c
        mru[:] = level._mru
        st[tick_slot] = level._tick
    st[St.C1_HITS] = l1.stats.hits
    st[St.C1_MISSES] = l1.stats.misses
    st[St.C1_WB] = l1.stats.writebacks
    st[St.C2_HITS] = l2.stats.hits
    st[St.C2_MISSES] = l2.stats.misses
    st[St.C2_WB] = l2.stats.writebacks
    ks._ptr_table = None


def _store_cache(ks, hier) -> None:
    """Write the kernel's way arrays back into the cache-level lists."""
    st = ks.st
    l1, l2 = hier.l1, hier.l2
    for prefix, level, tick_slot in (("c1", l1, St.C1_TICK),
                                     ("c2", l2, St.C2_TICK)):
        assoc = level.assoc
        tags = getattr(ks, prefix + "_tags").tolist()
        dirty = getattr(ks, prefix + "_dirty").tolist()
        stamps = getattr(ks, prefix + "_stamps").tolist()
        count = getattr(ks, prefix + "_count").tolist()
        mru = getattr(ks, prefix + "_mru").tolist()
        for s in range(level.num_sets):
            c = count[s]
            base = s * assoc
            level._tags[s] = tags[base:base + c]
            level._dirty[s] = [bool(d) for d in dirty[base:base + c]]
            level._stamps[s] = stamps[base:base + c]
        level._mru[:] = mru
        level._tick = int(st[tick_slot])
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
        _load_cache(ks, proc.hierarchy)

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
